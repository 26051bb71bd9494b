"""The signed simplex category and truncated real simplicial sets.

``delta_leq(N)`` is the category of order-preserving maps between the
ordinals ``[0], ..., [N]``; a morphism is named by its value string and
target, e.g. ``011:1`` for the map ``[2] -> [1]`` with images 0,1,1.  The
order-reversing involution conjugates a map by the flips of its endpoints,
giving an action of the two-element group; the semidirect product of the
simplex category by that action is the signed simplex category.

The same category has a second presentation: morphisms are pairs ``(f, t)``
of a monotone (weakly increasing or weakly decreasing) function and a sign
``t``, with ``t`` forced to the direction of ``f`` whenever ``f`` is not
constant, composed by ``(f,t).(f',t') = (f f', t t')``.  ``build_nabla``
constructs both presentations together with the explicit isomorphism
between them and checks it tablewise; the CLI prints that verdict.

Presheaves on the signed simplex category ("real simplicial sets",
truncated at level ``N``) are stored as set diagrams over the opposite of
the semidirect presentation.  They are equivalent to simplicial sets with
an anti-involution; the translation in both directions is implemented by
:func:`to_involutive` and :func:`from_involutive` and the equivalence is
the identity on underlying data.

The pair presentation and ``build_nabla`` live in
:mod:`smallcat.presentations`, the translation and the conjugation
squares in :mod:`smallcat.involutive`, and representables, normal
monomorphisms and the generating cofibrations in
:mod:`smallcat.simplicial`, and loading a document builds and compiles
none of them.  ``perfbench`` still reads some of their names here
(``nabla.to_involutive``, ``nabla.generating_cofibrations``, ...),
through the module ``__getattr__``.
"""
from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

# Timed functions are called via their module: see the package docstring.
from . import fincat, moved, semidirect
from .fincat import CatFunctor, FiniteCategory, cyclic_group, pair_name, record
from .semidirect import GroupAction, SemidirectCategory
from .semidirect import inclusion_iota  # re-exported: ``nabla.inclusion_iota`` stays

# Diagram code is imported by the functions that use it, so that the
# ``nabla`` command loads none.
if TYPE_CHECKING:
    from .setval import SetDiagram

# The names perfbench/ reads here, each from its home module on first
# access.
__getattr__ = moved(
    globals(), presentations="monotone_pair_category", involutive="""
    to_involutive from_involutive conjugation_squares_hold""",
    simplicial="representable_rsset generating_cofibrations")

SWAP = "g1"      # the nonidentity element of the two-element group
UNIT = "g0"


def _monotone_maps(m: int, n: int):
    """Weakly increasing maps [m] -> [n], as image tuples in lex order."""
    return itertools.combinations_with_replacement(range(n + 1), m + 1)


def delta_name(images: tuple[int, ...], n: int) -> str:
    return "".join(map(str, images)) + f":{n}"


def delta_images(name: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in name.split(":")[0])


def delta_target(name: str) -> int:
    return int(name.split(":")[1])


def object_level(name: str) -> int:
    """Decode ``[n]`` to ``n``."""
    return int(name[1:-1])


@functools.cache
def delta_leq(N: int) -> FiniteCategory:
    """The category of order-preserving maps between ``[0] .. [N]``."""
    if not 0 <= N <= 9:
        raise ValueError("truncation level must be between 0 and 9")
    objects = [f"[{n}]" for n in range(N + 1)]
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    images: dict[str, tuple[int, ...]] = {}
    by_pair: dict[tuple[int, int], list[str]] = {}
    for m in range(N + 1):
        for n in range(N + 1):
            for imgs in _monotone_maps(m, n):
                name = delta_name(imgs, n)
                morphisms.append(name)
                images[name] = imgs
                source[name], target[name] = f"[{m}]", f"[{n}]"
                by_pair.setdefault((m, n), []).append(name)
    for n in range(N + 1):
        identity[f"[{n}]"] = delta_name(tuple(range(n + 1)), n)
    for (m, n), first in by_pair.items():
        for (n2, k), second in by_pair.items():
            if n2 != n:
                continue
            for f in first:
                fi = images[f]
                for g in second:
                    gi = images[g]
                    compose[(g, f)] = delta_name(
                        tuple(gi[v] for v in fi), k)
    return FiniteCategory._taking(objects, morphisms, source, target,
                                  identity, compose)


def flip_delta_morphism(name: str) -> str:
    """Conjugate an order-preserving map by the order reversals of its
    endpoints: index ``i`` goes to ``n - f(m - i)``."""
    imgs = delta_images(name)
    n = delta_target(name)
    m = len(imgs) - 1
    return delta_name(tuple(n - imgs[m - i] for i in range(m + 1)), n)


def flip_functor(N: int) -> CatFunctor:
    """The order-reversing involution of the truncated simplex category."""
    delta = delta_leq(N)
    return CatFunctor(delta, delta,
                      {x: x for x in delta.objects},
                      {f: flip_delta_morphism(f) for f in delta.morphisms})


def nabla_action(N: int) -> GroupAction:
    """The two-element group acting on the simplex category by the flip."""
    delta = delta_leq(N)
    G = cyclic_group(2)
    return GroupAction(G, delta, {UNIT: CatFunctor(
        delta, delta, {x: x for x in delta.objects},
        {m: m for m in delta.morphisms}), SWAP: flip_functor(N)})


@functools.cache
def nabla_category(N: int) -> SemidirectCategory:
    """The semidirect presentation (canonical shape for presheaves)."""
    return semidirect.semidirect(nabla_action(N))


# ---------------------------------------------------------------------------
# truncated (real) simplicial sets


@record(frozen=True)
class TruncatedSimplicialSet:
    """Simplex sets and the full action of the truncated simplex category."""

    level: int
    diagram: SetDiagram    # over opposite(delta_leq(level))

    def simplices(self, n: int) -> tuple[str, ...]:
        return self.diagram.values[f"[{n}]"]


@record(frozen=True)
class TruncatedRealSimplicialSet:
    """Presheaf on the signed simplex category, truncated at ``level``."""

    level: int
    diagram: SetDiagram    # over opposite(nabla_category(level).category)

    def simplices(self, n: int) -> tuple[str, ...]:
        return self.diagram.values[f"[{n}]"]


def validate_rsset(X: TruncatedRealSimplicialSet) -> list[str]:
    from . import setval
    if X.diagram.shape != fincat.opposite(nabla_category(X.level).category):
        return ["shape is not the opposite signed simplex category"]
    errors = setval.validate_diagram(X.diagram)
    if errors:
        return errors
    # the involution levels square to the identity by functoriality; check
    # explicitly anyway, it is the structural heart of the object
    for n, sig in involution_levels(X).items():
        for e in X.diagram.values[f"[{n}]"]:
            if sig[sig[e]] != e:
                errors.append(f"involution at level {n} does not square to one")
                break
    return errors


def involution_levels(X: TruncatedRealSimplicialSet) -> dict[int, dict[str, str]]:
    """The level involutions induced by the swap-tagged identities."""
    delta = delta_leq(X.level)
    return {n: dict(X.diagram.action[pair_name(delta.identity[f"[{n}]"], SWAP)])
            for n in range(X.level + 1)}


