"""Set-valued diagrams on finite categories: limits, colimits and maps.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.  Limits
are computed as compatible families inside the product, colimits as
quotients of the tagged disjoint union.  Diagram maps are searched for on
codes: :func:`_coded_maps` yields each map as the tuple of images of the
``(object, element)`` pairs of :func:`_slots`.

The Kan extensions, comma categories, representables and adjunction
certificates live in :mod:`smallcat.kan`, which builds on this module;
only the commands that compute one load it.  Their old names here
(``setval.lan``, ``setval.certify_kan_adjunctions``, ...) still work: the
module ``__getattr__`` reads each from :mod:`smallcat.kan` on first
access.

Naming is deterministic throughout: disjoint-union tags are pair strings
``(object,element)``, colimit classes are named by their lexicographically
minimal member tag, and limit families list their components in object
order.  Empty shapes follow the usual conventions: the limit over the empty
shape is a one-point set, the colimit is empty.
"""
from __future__ import annotations

from typing import Iterator

from . import moved
from .fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    Partition,
    backtrack,
    constraint_lists,
    pair_name,
    record,
)

# The Kan half, read from smallcat.kan on first access.
__getattr__ = moved(globals(), "kan", """
    CommaCategory AdjunctionReport _comma_category comma_over comma_under
    LeftKan RightKan left_kan lan lan_map lan_unit right_kan ran ran_counit
    lan_transpose ran_transpose representable corepresentable
    certify_adjunction certify_kan_adjunctions""")


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
# validation and elementary diagram operations


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


def validate_diagram_map(h: DiagramMap) -> list[str]:
    """Check typing and naturality of ``h`` on every shape morphism."""
    X, Y = h.source, h.target
    if X.shape != Y.shape:
        return ["source and target live over different shapes"]
    C = X.shape
    errors = []
    for o in C.objects:
        comp = h.components.get(o)
        if comp is None or set(comp.keys()) != set(X.values[o]) \
                or not set(comp.values()) <= set(Y.values[o]):
            errors.append(f"component at {o}: not a function into the target")
    if errors:
        return errors
    for m in C.morphisms:
        src, tgt = C.source[m], C.target[m]
        for e in X.values[src]:
            if h.components[tgt][X.action[m][e]] != Y.action[m][h.components[src][e]]:
                errors.append(f"naturality fails at {m} on {e}")
                break
    return errors


def identity_diagram_map(X: SetDiagram) -> DiagramMap:
    return DiagramMap(X, X, {o: {e: e for e in X.values[o]}
                             for o in X.shape.objects})


def compose_diagram_maps(h2: DiagramMap, h1: DiagramMap) -> DiagramMap:
    """``h2`` after ``h1``."""
    return DiagramMap(h1.source, h2.target,
                      {o: {e: h2.components[o][h1.components[o][e]]
                           for e in h1.source.values[o]}
                       for o in h1.source.shape.objects})


def is_iso_diagram_map(h: DiagramMap) -> bool:
    return all(len(set(h.components[o].values())) == len(h.target.values[o])
               and len(h.components[o]) == len(h.target.values[o])
               for o in h.source.shape.objects)


def is_mono_diagram_map(h: DiagramMap) -> bool:
    return all(len(set(h.components[o].values())) == len(h.source.values[o])
               for o in h.source.shape.objects)


def is_epi_diagram_map(h: DiagramMap) -> bool:
    return all(set(h.components[o].values()) == set(h.target.values[o])
               for o in h.source.shape.objects)


def enumerate_diagram_maps(X: SetDiagram, Y: SetDiagram,
                           node_budget: int = 2_000_000) -> list[DiagramMap]:
    """All diagram maps ``X -> Y``, by element-level backtracking."""
    if X.shape != Y.shape:
        raise ValueError("shapes differ")
    budget = NodeBudget(node_budget, "diagram map search exceeded budget")
    return list(_iter_diagram_maps(X, Y, budget))


def _iter_diagram_maps(X: SetDiagram, Y: SetDiagram, budget: NodeBudget,
                       forced: dict[tuple[str, str], str] | None = None,
                       fibre: tuple[DiagramMap, DiagramMap] | None = None
                       ) -> Iterator[DiagramMap]:
    """Yield the diagram maps ``X -> Y`` of :func:`_coded_maps` as
    :class:`DiagramMap` records."""
    slot = _slots(X)
    for a in _coded_maps(X, Y, budget, forced, fibre):
        comps: dict[str, dict[str, str]] = {o: {} for o in X.shape.objects}
        for (o, e), img in zip(slot, a):
            comps[o][e] = img
        yield DiagramMap(X, Y, comps)


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
# limits and colimits


def _family_name(fam: dict[str, str]) -> str:
    return "(" + ",".join(f"{o}={fam[o]}" for o in sorted(fam)) + ")"


def limit(X: SetDiagram, budget: int = 2_000_000) -> LimitResult:
    """Compatible families in the product of the value sets."""
    C = X.shape
    return _families(C.objects, X.values,
                     [(C.source[m], X.action[m], C.target[m])
                      for m in C.morphisms], budget)


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
    named = projections[obs[0]]     # every family so far, by name
    names = []
    for a in backtrack([values[o] for o in obs], checks,
                       NodeBudget(None, "unbounded")):
        fam = dict(zip(obs, a))
        n = _family_name(fam)
        if n in named:
            raise ValueError(f"family identifier {n} names two families")
        names.append(n)
        for o, v in fam.items():
            projections[o][n] = v
    return LimitResult(tuple(sorted(names)), projections)


def colimit(X: SetDiagram) -> ColimitResult:
    """Quotient of the tagged disjoint union by the action-generated relation.

    Classes come from a :class:`~smallcat.fincat.Partition` of the tags and
    are named by their lexicographically minimal member tag.  Raises
    :class:`ValueError` when two elements' tags render alike.
    """
    C = X.shape
    tag = {(o, e): pair_name(o, e) for o in C.objects for e in X.values[o]}
    seen: set[str] = set()
    for t in tag.values():
        if t in seen:
            raise ValueError(f"colimit tag {t} names two elements")
        seen.add(t)
    classes = Partition(seen)
    for m in C.morphisms:
        o, o2 = C.source[m], C.target[m]
        for e in X.values[o]:
            classes.union(tag[o, e], tag[o2, X.action[m][e]])
    injections = {o: {e: classes.find(tag[o, e]) for e in X.values[o]}
                  for o in C.objects}
    elements = {t for inj in injections.values() for t in inj.values()}
    return ColimitResult(tuple(sorted(elements)), injections)


def coproduct_diagrams(diagrams: list[SetDiagram]
                       ) -> tuple[SetDiagram, list[DiagramMap]]:
    """Disjoint union over a common shape; summand ``k`` is tagged ``(k,e)``."""
    shape = diagrams[0].shape
    values: dict[str, list[str]] = {o: [] for o in shape.objects}
    for k, X in enumerate(diagrams):
        if X.shape != shape:
            raise ValueError("summands live over different shapes")
        for o in shape.objects:
            values[o].extend(pair_name(str(k), e) for e in X.values[o])
    action = {}
    for m in shape.morphisms:
        f = {}
        for k, X in enumerate(diagrams):
            for e in X.values[shape.source[m]]:
                f[pair_name(str(k), e)] = pair_name(str(k), X.action[m][e])
        action[m] = f
    total = SetDiagram.build(shape, values, action)
    injections = [DiagramMap(X, total,
                             {o: {e: pair_name(str(k), e) for e in X.values[o]}
                              for o in shape.objects})
                  for k, X in enumerate(diagrams)]
    return total, injections


def quotient_diagram(X: SetDiagram, pairs: list[tuple[str, str, str]]
                     ) -> tuple[SetDiagram, DiagramMap]:
    """Quotient ``X`` by the congruence generated by ``(object, e, e')`` pairs.

    The relation is closed under every structure map, so the result is again
    a valid diagram.  Classes come from a :class:`~smallcat.fincat.Partition`
    of the ``(object, element)`` pairs and are named by their minimal element.
    """
    C = X.shape
    classes = Partition((o, e) for o in C.objects for e in X.values[o])
    for o, a, b in pairs:
        classes.union((o, a), (o, b))
    changed = True
    while changed:
        changed = False
        for m in C.morphisms:
            src, tgt = C.source[m], C.target[m]
            image_of: dict[tuple[str, str], str] = {}
            for e in X.values[src]:
                cls = classes.find((src, e))
                img = X.action[m][e]
                if cls in image_of:
                    changed |= classes.union((tgt, image_of[cls]), (tgt, img))
                else:
                    image_of[cls] = img
    name = {(o, e): classes.find((o, e))[1]
            for o in C.objects for e in X.values[o]}
    values = {o: sorted({name[(o, e)] for e in X.values[o]})
              for o in C.objects}
    action = {}
    for m in C.morphisms:
        src, tgt = C.source[m], C.target[m]
        action[m] = {name[(src, e)]: name[(tgt, X.action[m][e])]
                     for e in X.values[src]}
    Q = SetDiagram.build(C, values, action)
    proj = DiagramMap(X, Q, {o: {e: name[(o, e)] for e in X.values[o]}
                             for o in C.objects})
    return Q, proj


def diagram_pushout(f: DiagramMap, g: DiagramMap
                    ) -> tuple[SetDiagram, DiagramMap, DiagramMap]:
    """Level-wise pushout of the span ``target(f) <-f- A -g-> target(g)``.

    Returns the pushout diagram and the two structure maps from ``target(f)``
    and ``target(g)``.
    """
    if f.source != g.source:
        raise ValueError("maps must share their domain")
    X, B = f.target, g.target
    total, (inx, inb) = coproduct_diagrams([X, B])
    A = f.source
    pairs = []
    for o in A.shape.objects:
        for a in A.values[o]:
            pairs.append((o, inx.components[o][f.components[o][a]],
                          inb.components[o][g.components[o][a]]))
    Q, proj = quotient_diagram(total, pairs)
    return Q, compose_diagram_maps(proj, inx), compose_diagram_maps(proj, inb)


# ---------------------------------------------------------------------------
# components


def terminal_objects(C: FiniteCategory) -> list[str]:
    return [t for t in C.objects
            if all(len(C.hom(x, t)) == 1 for x in C.objects)]


def connected_components(C: FiniteCategory) -> list[set[str]]:
    """Partition of the objects by zig-zags of morphisms."""
    classes = Partition(C.objects)
    for m in C.morphisms:
        classes.union(C.source[m], C.target[m])
    comps: dict[str, set[str]] = {}
    for o in C.objects:
        comps.setdefault(classes.find(o), set()).add(o)
    return [comps[k] for k in sorted(comps)]


# ---------------------------------------------------------------------------
# restriction


def restrict(iota: CatFunctor, Y: SetDiagram) -> SetDiagram:
    """Precompose ``Y`` (over the codomain of ``iota``) with ``iota``.

    The result shares the value tuples, already sorted, and the maps of
    ``Y`` rather than copying them."""
    C = iota.domain
    return SetDiagram(C, {c: Y.values[iota.ob_map[c]] for c in C.objects},
                      {m: Y.action[iota.mor_map[m]] for m in C.morphisms})


def restrict_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    C = iota.domain
    return DiagramMap(restrict(iota, h.source), restrict(iota, h.target),
                      {c: dict(h.components[iota.ob_map[c]])
                       for c in C.objects})
