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

Representables, normal monomorphisms and the generating cofibrations
live in :mod:`smallcat.simplicial`, read through ``__getattr__``.
"""
from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

# Timed functions are called via their module: see the package docstring.
from . import fincat, moved, semidirect
from .fincat import (
    CatFunctor,
    FiniteCategory,
    cyclic_group,
    pair_name,
    opposite_functor,
    record,
    tabulate,
)
from .semidirect import (
    GroupAction,
    SemidirectCategory,
    inclusion_iota,
)

# Diagram code is imported by the functions that use it, so that
# ``build_nabla`` and the ``nabla`` command load none.
if TYPE_CHECKING:
    from .setval import SetDiagram

# Read from smallcat.simplicial on first access.
__getattr__ = moved(globals(), simplicial="""
    monotone_pair_data validate_sset degenerate_simplices is_normal_mono
    representable_sset boundary_inclusion_sset representable_rsset
    generating_cofibrations""")

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
def monotone_pair_category(N: int) -> FiniteCategory:
    """The signed-simplex category presented by monotone pairs ``(f, t)``.

    Nonconstant maps carry their forced sign; constant maps occur with both
    signs.  Names are ``images:target:sign``.
    """
    objects = [f"[{n}]" for n in range(N + 1)]
    morphisms, source, target, identity = [], {}, {}, {}
    data: dict[str, tuple[tuple[int, ...], int, int]] = {}
    for m in range(N + 1):
        for n in range(N + 1):
            seen = set()
            for imgs in _monotone_maps(m, n):
                for func, tags in ((imgs, None), (tuple(reversed(imgs)), None)):
                    if func in seen:
                        continue
                    seen.add(func)
                    constant = len(set(func)) == 1
                    increasing = all(func[i] <= func[i + 1]
                                     for i in range(len(func) - 1))
                    if constant:
                        signs = (1, -1)
                    else:
                        signs = (1,) if increasing else (-1,)
                    for t in signs:
                        s = "+" if t == 1 else "-"
                        name = "".join(map(str, func)) + f":{n}:{s}"
                        morphisms.append(name)
                        data[name] = (func, n, t)
                        source[name], target[name] = f"[{m}]", f"[{n}]"
    for n in range(N + 1):
        identity[f"[{n}]"] = "".join(map(str, range(n + 1))) + f":{n}:+"

    def composite(name2: str, name1: str) -> str:
        (f1, _, t1), (f2, n2, t2) = data[name1], data[name2]
        s = "+" if t1 * t2 == 1 else "-"
        return "".join(str(f2[v]) for v in f1) + f":{n2}:{s}"

    return tabulate(objects, morphisms, source, target, identity, composite)


@record(frozen=True)
class NablaPresentations:
    semidirect: SemidirectCategory
    pairs: FiniteCategory
    iso: CatFunctor     # semidirect presentation -> pair presentation
    isomorphic: bool    # iso is a functor and a bijection on morphisms


def build_nabla(N: int) -> NablaPresentations:
    """Both presentations of the signed simplex category plus the explicit
    isomorphism between them, with its tablewise check in ``isomorphic``."""
    sd = nabla_category(N)
    pairs = monotone_pair_category(N)
    ob = {x: x for x in sd.category.objects}
    mor = {}
    for name, (phi, g) in sd.pair_of.items():
        imgs = delta_images(phi)
        n = delta_target(phi)
        if g == UNIT:
            mor[name] = "".join(map(str, imgs)) + f":{n}:+"
        else:
            rev = tuple(reversed(imgs))
            mor[name] = "".join(map(str, rev)) + f":{n}:-"
    iso = CatFunctor(sd.category, pairs, ob, mor)
    isomorphic = (not fincat.validate_functor(iso)
                  and len(set(mor.values())) == len(mor) == len(pairs.morphisms))
    return NablaPresentations(sd, pairs, iso, isomorphic)


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
    delta = delta_leq(X.level)
    for n in range(X.level + 1):
        obj = f"[{n}]"
        sig = X.diagram.action[pair_name(delta.identity[obj], SWAP)]
        for e in X.diagram.values[obj]:
            if sig[sig[e]] != e:
                errors.append(f"involution at level {n} does not square to one")
                break
    return errors


def involution_levels(X: TruncatedRealSimplicialSet) -> dict[int, dict[str, str]]:
    """The level involutions induced by the swap-tagged identities."""
    delta = delta_leq(X.level)
    return {n: dict(X.diagram.action[pair_name(delta.identity[f"[{n}]"], SWAP)])
            for n in range(X.level + 1)}


def to_involutive(X: TruncatedRealSimplicialSet
                  ) -> tuple[TruncatedSimplicialSet, dict[int, dict[str, str]]]:
    """Forget down to a simplicial set with an anti-involution.

    Returns the underlying truncated simplicial set together with the level
    involutions; the pair determines ``X`` completely.
    """
    from . import setval
    N = X.level
    sd = nabla_category(N)
    iota = inclusion_iota(sd)
    underlying = setval.restrict(opposite_functor(iota), X.diagram)
    return (TruncatedSimplicialSet(N, underlying), involution_levels(X))


def from_involutive(A: TruncatedSimplicialSet,
                    sigma: dict[int, dict[str, str]]
                    ) -> TruncatedRealSimplicialSet:
    """Assemble a real simplicial set from an anti-involution.

    ``sigma[n]`` must square to the identity and satisfy the conjugation
    square ``alpha^* . sigma_n == sigma_m . flip(alpha)^*`` for every
    ``alpha: [m] -> [n]``; the signed action is then ``(alpha, swap)^* =
    sigma_m . alpha^*``, which is the unique extension compatible with the
    composition convention of the semidirect presentation.  Invalid input
    is rejected.
    """
    from . import setval
    N = A.level
    delta = delta_leq(N)
    for n in range(N + 1):
        obj = f"[{n}]"
        s = sigma.get(n)
        if s is None or set(s) != set(A.diagram.values[obj]):
            raise ValueError(f"involution at level {n} is not a total function")
        for e in A.diagram.values[obj]:
            if s[s[e]] != e:
                raise ValueError(f"involution at level {n} does not square to one")
    for alpha in delta.morphisms:
        m = object_level(delta.source[alpha])
        n = object_level(delta.target[alpha])
        flip = flip_delta_morphism(alpha)
        for e in A.diagram.values[f"[{n}]"]:
            if A.diagram.action[alpha][sigma[n][e]] != \
                    sigma[m][A.diagram.action[flip][e]]:
                raise ValueError(f"involution does not conjugate {alpha}")
    sd = nabla_category(N)
    shape = fincat.opposite(sd.category)
    values = {o: A.diagram.values[o] for o in shape.objects}
    action = {}
    for name, (phi, g) in sd.pair_of.items():
        m = object_level(sd.category.source[name])
        base = A.diagram.action[phi]
        if g == UNIT:
            action[name] = dict(base)
        else:
            action[name] = {e: sigma[m][base[e]] for e in base}
    X = TruncatedRealSimplicialSet(N, setval.SetDiagram.build(shape, values,
                                                               action))
    errs = validate_rsset(X)
    if errs:
        raise ValueError("assembled action is not functorial: " + errs[0])
    return X


def conjugation_squares_hold(X: TruncatedRealSimplicialSet) -> bool:
    """Check ``(alpha,1)^* . sigma_n == sigma_m . (flip(alpha),1)^*`` for
    every order-preserving ``alpha``."""
    N = X.level
    delta = delta_leq(N)
    sigma = involution_levels(X)
    for alpha in delta.morphisms:
        m = object_level(delta.source[alpha])
        n = object_level(delta.target[alpha])
        flip = flip_delta_morphism(alpha)
        act = X.diagram.action
        for e in X.diagram.values[f"[{n}]"]:
            if act[pair_name(alpha, UNIT)][sigma[n][e]] != \
                    sigma[m][act[pair_name(flip, UNIT)][e]]:
                return False
    return True
