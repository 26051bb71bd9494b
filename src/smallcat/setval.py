"""Set-valued diagrams on finite categories: validation, limits as
compatible families and restriction.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.
Limits are compatible families inside the product, found on codes by one
search under a node budget (:func:`~smallcat.coded._search_families`),
which the right Kan core shares; limit families list their components in
object order, and the limit over the empty shape is a one-point set.

Coded diagrams, the diagram-map search and the family search live in
``coded``, the Kan extensions (coded cores, whose tables give the units,
counits and transposes) in ``kan``, the adjunction certificates in
``certify``, and the other limits and colimits and the algebra of
diagram maps in ``universal``; only the code that uses them loads them.
``perfbench`` still reads some of their names here (``setval.lan``,
``setval.limit``, ...), through the module ``__getattr__``.
"""
from __future__ import annotations

from . import moved
from .fincat import CatFunctor, FiniteCategory, record

# The names perfbench/ reads here, each from its home module on first
# access.
__getattr__ = moved(globals(), kan="""
    comma_over comma_under lan ran lan_transpose ran_transpose
    corepresentable""", certify="""
    AdjunctionReport certify_kan_adjunctions""", universal="""
    enumerate_diagram_maps limit colimit coproduct_diagrams
    quotient_diagram""")


@record(frozen=True)
class SetDiagram:
    """A functor from ``shape`` to finite sets."""

    shape: FiniteCategory
    values: dict[str, tuple[str, ...]]
    action: dict[str, dict[str, str]]

    @classmethod
    def build(cls, shape, values, action) -> "SetDiagram":
        return cls(shape,
                   {o: tuple(sorted(vs)) for o, vs in values.items()},
                   {m: dict(f) for m, f in action.items()})

    def total_elements(self) -> int:
        return sum(len(v) for v in self.values.values())


@record(frozen=True)
class DiagramMap:
    """A natural transformation between two diagrams over the same shape."""

    source: SetDiagram
    target: SetDiagram
    components: dict[str, dict[str, str]]

    def key(self) -> tuple:
        return tuple((o, tuple(sorted(c.items())))
                     for o, c in sorted(self.components.items()))


@record(frozen=True)
class LimitResult:
    elements: tuple[str, ...]
    projections: dict[str, dict[str, str]]


@record(frozen=True)
class ColimitResult:
    elements: tuple[str, ...]
    injections: dict[str, dict[str, str]]


# ---------------------------------------------------------------------------
# validation


def validate_diagram(X: SetDiagram) -> list[str]:
    """Check that no value set lists an element twice, and functoriality of
    ``X`` on the full composition table.

    Each object's value set is built once, and each composable pair binds
    its three action maps once."""
    C = X.shape
    values, action = X.values, X.action
    errors = []
    for o in C.objects:
        if o not in values:
            errors.append(f"object {o}: missing value set")
    sets = {o: set(vs) for o, vs in values.items()}
    for o, vs in values.items():
        if len(sets[o]) != len(vs):     # name the first repeat
            twice = next(e for i, e in enumerate(vs) if e in vs[:i])
            errors.append(f"object {o}: element {twice} listed twice")
    empty: set = set()
    for m in C.morphisms:
        f = action.get(m)
        if f is None:
            errors.append(f"morphism {m}: missing function")
            continue
        if f.keys() != sets.get(C.source[m], empty):
            errors.append(f"morphism {m}: domain mismatch")
        elif not sets.get(C.target[m], empty).issuperset(f.values()):
            errors.append(f"morphism {m}: values escape target set")
    if errors:
        return errors
    for o in C.objects:
        i = action[C.identity[o]]
        if any(i[e] != e for e in values[o]):
            errors.append(f"identity of {o} does not act as identity")
    source = C.source
    for (f, g), h in C.compose.items():
        af, ag, ah = action[f], action[g], action[h]
        for e in values[source[g]]:
            if af[ag[e]] != ah[e]:
                errors.append(f"functoriality fails at ({f},{g}) on {e}")
                break
    return errors


# ---------------------------------------------------------------------------
# limits as compatible families


def _family_name(fam: dict[str, str]) -> str:
    return "(" + ",".join(f"{o}={fam[o]}" for o in sorted(fam)) + ")"


# ---------------------------------------------------------------------------
# restriction


def restrict(iota: CatFunctor, Y):
    """Precompose ``Y``, a :class:`SetDiagram` or :class:`CodedDiagram`
    over the codomain of ``iota``, with ``iota``.

    The result is a gather: it shares the value tuples, already sorted, and
    the maps of ``Y`` rather than copying them."""
    C = iota.domain
    return type(Y)(C, {c: Y.values[iota.ob_map[c]] for c in C.objects},
                   {m: Y.action[iota.mor_map[m]] for m in C.morphisms})
