"""Limits, colimits, coproducts, quotients and pushouts of set-valued
diagrams, and the algebra of diagram maps.

Colimit classes are named by their minimal ``(object,element)`` tag,
coproduct summand ``k`` tags its elements ``(k,e)``, and the colimit over
the empty shape is empty.  Every name here is also reachable through
:mod:`smallcat.setval`, where it lived before.
"""
from __future__ import annotations

from typing import Iterator

from .fincat import (
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    Partition,
    pair_name,
)
from .setval import (
    ColimitResult,
    DiagramMap,
    LimitResult,
    SetDiagram,
    _coded_maps,
    _families,
    _slots,
    restrict,
)


# ---------------------------------------------------------------------------
# diagram maps


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


# ---------------------------------------------------------------------------
# limits, colimits, coproducts, quotients and pushouts


def limit(X: SetDiagram, budget: int = 2_000_000) -> LimitResult:
    """Compatible families in the product of the value sets."""
    C = X.shape
    return _families(C.objects, X.values,
                     [(C.source[m], X.action[m], C.target[m])
                      for m in C.morphisms], budget)


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
# components and restriction


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


def restrict_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    C = iota.domain
    return DiagramMap(restrict(iota, h.source), restrict(iota, h.target),
                      {c: dict(h.components[iota.ob_map[c]])
                       for c in C.objects})
