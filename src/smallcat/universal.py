"""Limits, colimits, coproducts, quotients and pushouts of set-valued
diagrams, and the algebra of diagram maps.

Colimit classes, found by :func:`~smallcat.searchcore.least_members`, are
named by their minimal ``(object,element)`` tag, coproduct summand ``k``
tags its elements ``(k,e)``, and the colimit over the empty shape is
empty.
"""
from __future__ import annotations

from operator import itemgetter

from .fincat import (
    CatFunctor,
    FiniteCategory,
    distinct,
    hom_index,
    pair_name,
)
from .coded import _code, _maps, _search_families, _squares
from .searchcore import least_members
from .setval import ColimitResult, DiagramMap, LimitResult, SetDiagram, restrict


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
    """All diagram maps ``X -> Y`` in lexicographic order: the solutions of
    the coded search (:func:`~smallcat.coded._maps`), decoded."""
    S = _code(X)
    return [_decode_map(X, Y, a)
            for a in _maps(S, _code(Y), _squares(S), node_budget)]


def _decode_map(X: SetDiagram, Y: SetDiagram, a) -> DiagramMap:
    """The map ``X -> Y`` whose slot ``k``, the ``k``-th element of ``X`` in
    object order, holds the code in ``Y`` of its image."""
    codes = iter(a)
    return DiagramMap(X, Y, {o: {e: Y.values[o][next(codes)]
                                 for e in X.values[o]}
                             for o in X.shape.objects})


# ---------------------------------------------------------------------------
# limits, colimits, coproducts, quotients and pushouts


def limit(X: SetDiagram, budget: int = 2_000_000) -> LimitResult:
    """Compatible families in the product of the value sets: the coded
    family search (:func:`~smallcat.coded._search_families`) over the
    objects of the shape, under ``budget`` nodes."""
    C, Y = X.shape, _code(X)
    slot = dict(zip(C.objects, range(len(C.objects))))
    ranked = _search_families(
        [o + "=" for o in C.objects], [X.values[o] for o in C.objects],
        [(Y.action[m], (slot[C.source[m]],), slot[C.target[m]])
         for m in C.morphisms], budget)
    found = sorted(ranked, key=itemgetter(1))   # in search order
    return LimitResult(tuple([name for name, _ in ranked]),
                       {o: {name: X.values[o][a[k]] for name, a in found}
                        for k, o in enumerate(C.objects)})


def colimit(X: SetDiagram) -> ColimitResult:
    """Quotient of the tagged disjoint union by the action-generated relation.

    Classes come from :func:`~smallcat.searchcore.least_members` on the tags
    and are named by their lexicographically minimal member tag.  Raises
    :class:`ValueError` when two elements' tags render alike.
    """
    C = X.shape
    tag = {(o, e): pair_name(o, e) for o in C.objects for e in X.values[o]}
    distinct(tag.values(), "colimit tag {} names two elements")
    at = dict(zip(tag, range(len(tag))))
    name = dict(zip(tag, least_members(list(tag.values()), [
        (at[C.source[m], e], at[C.target[m], X.action[m][e]])
        for m in C.morphisms for e in X.values[C.source[m]]])))
    injections = {o: {e: name[o, e] for e in X.values[o]}
                  for o in C.objects}
    return ColimitResult(tuple(sorted(set(name.values()))), injections)


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
    a valid diagram.  Classes come from
    :func:`~smallcat.searchcore.least_members` on the ``(object, element)``
    pairs and are named by their minimal element.
    """
    C = X.shape
    keys = [(o, e) for o in C.objects for e in X.values[o]]
    at = dict(zip(keys, range(len(keys))))
    leaving: dict[str, list[str]] = {o: [] for o in C.objects}
    for m in C.morphisms:
        leaving[C.source[m]].append(m)
    # the images of the pairs under the morphisms out of their objects
    # already form a congruence: those morphisms are closed under composition
    name = dict(zip(keys, least_members([e for _, e in keys], [
        (at[C.target[m], X.action[m][a]], at[C.target[m], X.action[m][b]])
        for o, a, b in pairs for m in leaving[o]])))
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
    homs = hom_index(C)
    return [t for t in C.objects
            if all(len(homs.get((x, t), ())) == 1 for x in C.objects)]


def connected_components(C: FiniteCategory) -> list[set[str]]:
    """Partition of the objects by zig-zags of morphisms."""
    at = dict(zip(C.objects, range(len(C.objects))))
    comps: dict[str, set[str]] = {}
    for o, least in zip(C.objects, least_members(C.objects, [
            (at[C.source[m]], at[C.target[m]]) for m in C.morphisms])):
        comps.setdefault(least, set()).add(o)
    return [comps[k] for k in sorted(comps)]


def restrict_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    C = iota.domain
    return DiagramMap(restrict(iota, h.source), restrict(iota, h.target),
                      {c: dict(h.components[iota.ob_map[c]])
                       for c in C.objects})
