"""Set-valued diagrams on finite categories: validation, coded map search
and restriction.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.
Diagram maps are searched for on codes: :func:`_coded_maps` yields each
map as the tuple of images of the ``(object, element)`` pairs of
:func:`_slots`.  Limits are compatible families inside the product
(:func:`_families`); limit families list their components in object
order, and the limit over the empty shape is a one-point set.

The Kan extensions and adjunction certificates live in
:mod:`smallcat.kan`, and the other limits and colimits and the algebra of
diagram maps in :mod:`smallcat.universal`; only the code that uses them
loads them.  Their old names here (``setval.lan``, ``setval.colimit``,
...) still work through the module ``__getattr__``.
"""
from __future__ import annotations

from typing import Iterator

from . import moved
from .fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    backtrack,
    constraint_lists,
    distinct,
    record,
)

# Read from smallcat.kan and smallcat.universal on first access.
__getattr__ = moved(globals(), kan="""
    CommaCategory AdjunctionReport _comma_category comma_over comma_under
    LeftKan RightKan left_kan lan lan_map lan_unit right_kan ran ran_counit
    lan_transpose ran_transpose representable corepresentable
    certify_adjunction certify_kan_adjunctions""", universal="""
    validate_diagram_map identity_diagram_map compose_diagram_maps
    is_iso_diagram_map is_mono_diagram_map is_epi_diagram_map
    enumerate_diagram_maps _iter_diagram_maps limit colimit
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
# validation and the coded map search


def validate_diagram(X: SetDiagram) -> list[str]:
    """Check functoriality of ``X`` on the full composition table."""
    C = X.shape
    errors = []
    for o in C.objects:
        if o not in X.values:
            errors.append(f"object {o}: missing value set")
    for m in C.morphisms:
        f = X.action.get(m)
        if f is None:
            errors.append(f"morphism {m}: missing function")
            continue
        src, tgt = C.source[m], C.target[m]
        if set(f.keys()) != set(X.values.get(src, ())):
            errors.append(f"morphism {m}: domain mismatch")
        elif not set(f.values()) <= set(X.values.get(tgt, ())):
            errors.append(f"morphism {m}: values escape target set")
    if errors:
        return errors
    for o in C.objects:
        i = C.identity[o]
        if any(X.action[i][e] != e for e in X.values[o]):
            errors.append(f"identity of {o} does not act as identity")
    for (f, g), h in C.compose.items():
        for e in X.values[C.source[g]]:
            if X.action[f][X.action[g][e]] != X.action[h][e]:
                errors.append(f"functoriality fails at ({f},{g}) on {e}")
                break
    return errors


def _slots(X: SetDiagram) -> dict[tuple[str, str], int]:
    """The slot of each ``(object, element)`` pair of ``X``, in search
    order: a coded map out of ``X`` is the tuple of their images."""
    return {(o, e): k for k, (o, e) in enumerate(
        (o, e) for o in X.shape.objects for e in X.values[o])}


def _naturality_checks(X: SetDiagram, Y: SetDiagram,
                       slot: dict[tuple[str, str], int]) -> list[tuple]:
    """``(table, k, k2)`` per morphism ``m`` and element ``e`` of its
    source: a coded map ``a: X -> Y`` is natural iff ``table[a[k]] == a[k2]``
    for each, where ``table`` is ``Y.action[m]`` and ``k``, ``k2`` are the
    slots of ``e`` and of its image under ``X.action[m]``."""
    C = X.shape
    return [(Y.action[m], slot[(C.source[m], e)],
             slot[(C.target[m], X.action[m][e])])
            for m in C.morphisms for e in X.values[C.source[m]]]


def _coded_maps(X: SetDiagram, Y: SetDiagram, budget: NodeBudget,
                forced: dict[tuple[str, str], str] | None = None,
                fibre: tuple[DiagramMap, DiagramMap] | None = None
                ) -> Iterator[tuple[str, ...]]:
    """Yield the diagram maps ``X -> Y`` in lexicographic order, each as the
    tuple of images of the pairs of :func:`_slots`.

    Each variable ``(o, e)`` has candidates ``Y.values[o]``, or only
    ``forced[(o, e)]`` when given, and the checks of
    :func:`_naturality_checks` are its constraints.  ``fibre = (p, bottom)``
    also requires ``p.components[o][a[e]] == bottom.components[o][e]``.
    """
    slot = _slots(X)
    variables = list(slot)
    n = len(variables)
    constraints, constants = [], []
    if fibre is not None:
        p, bottom = fibre
        constraints = [(p.components[o], (k,), -1 - k)
                       for k, (o, e) in enumerate(variables)]
        constants = [bottom.components[o][e] for o, e in variables]
    constraints += [(table, (k,), k2)
                    for table, k, k2 in _naturality_checks(X, Y, slot)]
    forced = forced or {}
    candidates = [(forced[v],) if v in forced else Y.values[v[0]]
                  for v in variables]
    for a in backtrack(candidates, constraint_lists(n, constraints),
                       budget, constants):
        yield tuple(a[:n])


# ---------------------------------------------------------------------------
# limits as compatible families


def _family_name(fam: dict[str, str]) -> str:
    return "(" + ",".join(f"{o}={fam[o]}" for o in sorted(fam)) + ")"


def _families(obs, values, constraints, budget: int) -> LimitResult:
    """The families ``fam`` over ``obs`` with ``fam[o]`` in ``values[o]``
    and ``table[fam[o1]] == fam[o2]`` for each ``(o1, table, o2)`` in
    ``constraints``: the limit, with the families found in product order.

    Raises :class:`BudgetError` if the product of the value sets (an empty
    set counted as one) exceeds ``budget``, and :class:`ValueError` when two
    families render to one name.
    """
    size = 1
    for o in obs:
        size *= max(len(values[o]), 1)
        if size > budget:
            raise BudgetError("limit product exceeds budget")
    if not obs:
        return LimitResult(("()",), {})
    slot = {o: k for k, o in enumerate(obs)}
    checks = constraint_lists(len(obs), ((table, (slot[o1],), slot[o2])
                                         for o1, table, o2 in constraints))
    projections: dict[str, dict[str, str]] = {o: {} for o in obs}
    names = []
    for a in backtrack([values[o] for o in obs], checks,
                       NodeBudget(None, "unbounded")):
        fam = dict(zip(obs, a))
        n = _family_name(fam)
        names.append(n)
        for o, v in fam.items():
            projections[o][n] = v
    distinct(names, "family identifier {} names two families")
    return LimitResult(tuple(sorted(names)), projections)


# ---------------------------------------------------------------------------
# restriction


def restrict(iota: CatFunctor, Y: SetDiagram) -> SetDiagram:
    """Precompose ``Y`` (over the codomain of ``iota``) with ``iota``.

    The result shares the value tuples, already sorted, and the maps of
    ``Y`` rather than copying them."""
    C = iota.domain
    return SetDiagram(C, {c: Y.values[iota.ob_map[c]] for c in C.objects},
                      {m: Y.action[iota.mor_map[m]] for m in C.morphisms})


