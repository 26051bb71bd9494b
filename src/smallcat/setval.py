"""Set-valued diagrams on finite categories: validation, limits as
compatible families and restriction.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.
Limits are compatible families inside the product, found on codes by one
search under a node budget (:func:`_search_families`), which the right
Kan core shares; limit families list their components in object order,
and the limit over the empty shape is a one-point set.

Coded diagrams and the diagram-map search live in ``coded``, the Kan
extensions (coded cores, whose tables give the units, counits and
transposes) in ``kan``, the adjunction certificates in ``certify``, and
the other limits and colimits and the algebra of diagram maps in
``universal``; only the code that uses them loads them.
Their old names here (``setval.lan``, ``setval._code``, ...) still
work through the module ``__getattr__``.
"""
from __future__ import annotations

from operator import add, getitem

from . import moved
from .fincat import (
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    backtrack,
    constraint_lists,
    distinct,
    record,
)

# Each name is read from its home module on first access.
__getattr__ = moved(globals(), coded="""
    CodedDiagram _code""", kan="""
    CommaCategory _comma_category comma_over comma_under
    CodedKan lan lan_map lan_unit ran ran_counit lan_transpose ran_transpose
    representable corepresentable""", certify="""
    AdjunctionReport certify_adjunction certify_kan_adjunctions""",
    universal="""
    validate_diagram_map identity_diagram_map compose_diagram_maps
    is_iso_diagram_map is_mono_diagram_map is_epi_diagram_map
    enumerate_diagram_maps limit colimit
    coproduct_diagrams quotient_diagram diagram_pushout terminal_objects
    connected_components restrict_map""")


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


def _search_families(heads: list[str], elements: list, links,
                     budget: int) -> list[tuple[str, tuple[int, ...]]]:
    """The families ``a`` with slot ``k`` a code of ``elements[k]`` that
    meet each constraint ``(table, (k,), k2)`` of ``links``, ``table[a[k]]
    == a[k2]``: ``(name, a)`` pairs in name order, the name ``(h0v0,...)``
    joining each ``heads[k]`` and ``elements[k][a[k]]``.  The one family
    search of the limit and the right Kan core.

    ``budget`` bounds the nodes of the search (``backtrack``): past it,
    ``BudgetError`` is raised (``limit product exceeds budget``), before a
    family is named.  Raises :class:`ValueError` when two families render
    to one name.
    """
    found = list(map(tuple, backtrack(
        [range(len(vs)) for vs in elements],
        constraint_lists(len(heads), links),
        NodeBudget(budget, "limit product exceeds budget", "limit_families"))))
    names = [f"({','.join(map(add, heads, map(getitem, elements, a)))})"
             for a in found]
    if len(set(names)) != len(names):
        distinct(names, "family identifier {} names two families")
    return sorted(zip(names, found))


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
