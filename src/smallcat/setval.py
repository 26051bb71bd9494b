"""Set-valued diagrams on finite categories and their Kan extensions.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.  Limits
are computed as compatible families inside the product, colimits as
quotients of the tagged disjoint union.  The Kan extensions are the
pointwise (co)limits over comma categories, computed without building
those categories: the left one by one union-find chase over every codomain
object, the right one as compatible families over the under-comma objects.
:func:`left_kan` and :func:`right_kan` build a :class:`LeftKan` or
:class:`RightKan` record per functor and diagram, holding the comma
objects, (co)limits, extension and (co)unit; the transposes and
:func:`lan_map` read a record passed to them instead of rebuilding it, and
the plain functions (:func:`lan`, :func:`lan_unit`, ...) build one per call.

Naming is deterministic throughout: disjoint-union tags are pair strings
``(object,element)``, colimit classes are named by their lexicographically
minimal member tag, and limit families list their components in object
order.  Empty shapes follow the usual conventions: the limit over the empty
shape is a one-point set, the colimit is empty.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator

# Timed functions are called via their module: see the package docstring.
from . import fincat
from .fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    NodeBudget,
    Partition,
    backtrack,
    constraint_lists,
    field,
    pair_name,
    record,
    validate_natural,
)


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
class CommaCategory:
    """A comma category together with its projection functor.

    ``object_data`` decodes each object identifier to its pair; for an
    over-comma the pair is ``(domain object, arrow)``, for an under-comma it
    is ``(arrow, domain object)``.  ``morphism_data`` decodes a comma
    morphism to its underlying domain-category morphism.
    """

    category: FiniteCategory
    projection: CatFunctor
    object_data: dict[str, tuple[str, str]]
    morphism_data: dict[str, str]


@record(frozen=True)
class LimitResult:
    elements: tuple[str, ...]
    projections: dict[str, dict[str, str]]


@record(frozen=True)
class ColimitResult:
    elements: tuple[str, ...]
    injections: dict[str, dict[str, str]]


@record
class AdjunctionReport:
    """Outcome of an adjunction check; ``failures`` carries witnesses."""

    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)


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
# comma categories


def _comma_category(object_data: dict[str, tuple],
                    C: FiniteCategory,
                    proj_index: int,
                    arrow_ok) -> CommaCategory:
    objects = sorted(object_data)
    morphisms, source, target, identity = [], {}, {}, {}
    morphism_data = {}
    homs = fincat.hom_index(C)
    for o1 in objects:
        for o2 in objects:
            c1 = object_data[o1][proj_index]
            c2 = object_data[o2][proj_index]
            for m in homs.get((c1, c2), ()):
                if arrow_ok(object_data[o1], object_data[o2], m):
                    name = f"({m},{o1},{o2})"
                    morphisms.append(name)
                    source[name], target[name] = o1, o2
                    morphism_data[name] = m
    for o in objects:
        c = object_data[o][proj_index]
        identity[o] = f"({C.identity[c]},{o},{o})"

    def composite(n2: str, n1: str) -> str:
        m = C.compose[(morphism_data[n2], morphism_data[n1])]
        return f"({m},{source[n1]},{target[n2]})"

    cat = fincat.tabulate(objects, morphisms, source, target, identity,
                          composite)
    proj = CatFunctor(cat, C,
                      {o: object_data[o][proj_index] for o in objects},
                      dict(morphism_data))
    return CommaCategory(cat, proj, dict(object_data), morphism_data)


def comma_over(iota: CatFunctor, d: str) -> CommaCategory:
    """The comma category of arrows ``iota(c) -> d``; objects are ``(c,arrow)``."""
    C, D = iota.domain, iota.codomain
    object_data = {}
    for c in C.objects:
        for phi in D.hom(iota.ob_map[c], d):
            object_data[pair_name(c, phi)] = (c, phi)

    def arrow_ok(p1, p2, m):
        return D.compose[(p2[1], iota.mor_map[m])] == p1[1]

    return _comma_category(object_data, C, 0, arrow_ok)


def comma_under(d: str, iota: CatFunctor) -> CommaCategory:
    """The comma category of arrows ``d -> iota(c)``; objects are ``(arrow,c)``."""
    C, D = iota.domain, iota.codomain
    object_data = {}
    for c in C.objects:
        for phi in D.hom(d, iota.ob_map[c]):
            object_data[pair_name(phi, c)] = (phi, c)

    def arrow_ok(p1, p2, m):
        return D.compose[(iota.mor_map[m], p1[0])] == p2[0]

    return _comma_category(object_data, C, 1, arrow_ok)


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
# restriction and Kan extensions


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


@record(frozen=True)
class LeftKan:
    """The left Kan extension of ``X`` along ``iota``: ``objects[d]`` decodes
    each object ``(c,phi)`` of the comma category over ``d`` to its pair
    ``(c, phi: iota c -> d)``, ``colims[d]`` is the colimit of ``X`` over
    that comma, and ``unit`` maps ``X`` to the restricted ``extension``.
    Built by :func:`left_kan`; :func:`lan_transpose` and :func:`lan_map`
    take it."""

    objects: dict[str, dict[str, tuple[str, str]]]
    colims: dict[str, ColimitResult]
    extension: SetDiagram
    unit: DiagramMap


@record(frozen=True)
class RightKan:
    """The right Kan extension of ``X`` along ``iota``: ``objects[d]``
    decodes each object ``(phi,c)`` of the comma category under ``d`` to its
    pair ``(phi: d -> iota c, c)``, ``lims[d]`` is the limit of ``X`` over
    that comma, and ``counit`` maps the restricted ``extension`` to ``X``.
    Built by :func:`right_kan`; :func:`ran_transpose` takes it."""

    objects: dict[str, dict[str, tuple[str, str]]]
    lims: dict[str, LimitResult]
    extension: SetDiagram
    counit: DiagramMap


def left_kan(iota: CatFunctor, X: SetDiagram) -> LeftKan:
    """The left Kan extension of ``X`` along ``iota``, with its unit.

    One union-find chase over every codomain object at once (Meyers,
    Spivak and Wisnesky, *Fast Left Kan Extensions Using Union Find*): the
    items are ``(d, ((c,phi),x))`` for ``phi: iota c -> d`` and ``x`` in
    ``X c``, and each ``u: c -> c2`` joins ``(c, phi2 . iota u, x)`` with
    ``(c2, phi2, X u x)``.  Each class is named by its minimal tag, as
    :func:`colimit` names it over the comma category.
    """
    C, D = iota.domain, iota.codomain
    homs = fincat.hom_index(D)
    # objects[d] as comma_over(iota, d).object_data lists them
    objects: dict[str, dict[str, tuple[str, str]]] = {d: {} for d in D.objects}
    for c in C.objects:
        for d in D.objects:
            for phi in homs.get((iota.ob_map[c], d), ()):
                objects[d][pair_name(c, phi)] = (c, phi)
    # tags[d][o][x] is the item of x at the comma object o over d
    tags = {d: {o: {x: (d, pair_name(o, x)) for x in X.values[c]}
                for o, (c, _) in objects[d].items()} for d in D.objects}
    classes = Partition(t for by_o in tags.values() for by_x in by_o.values()
                        for t in by_x.values())
    for u in C.morphisms:
        c, c2 = C.source[u], C.target[u]
        if u == C.identity[c]:
            continue    # an identity joins each item to itself
        iu, Xu = iota.mor_map[u], X.action[u]
        for d in D.objects:
            for phi2 in homs.get((iota.ob_map[c2], d), ()):
                to = tags[d][pair_name(c2, phi2)]
                for x, t in tags[d][pair_name(c, D.compose[(phi2, iu)])].items():
                    classes.union(t, to[Xu[x]])
    colims = {}
    for d in D.objects:
        injections = {o: {x: classes.find(t)[1] for x, t in tags[d][o].items()}
                      for o in sorted(objects[d])}
        elements = {t for inj in injections.values() for t in inj.values()}
        colims[d] = ColimitResult(tuple(sorted(elements)), injections)
    values = {d: colims[d].elements for d in D.objects}
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        mapping: dict[str, str] = {}
        for o, (c, phi) in objects[d].items():
            # both injections list the elements of X c in one order
            o2 = pair_name(c, D.compose[(psi, phi)])
            for src_class, tgt_class in zip(
                    colims[d].injections[o].values(),
                    colims[d2].injections[o2].values()):
                prev = mapping.setdefault(src_class, tgt_class)
                if prev != tgt_class:
                    raise AssertionError("left Kan extension action ill-defined")
        action[psi] = mapping
    LX = SetDiagram(D, values, action)   # sorted values, fresh maps
    errs = validate_diagram(LX)
    if errs:
        raise AssertionError("left Kan extension not functorial: " + errs[0])
    unit = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(c, D.identity[d])
        unit[c] = {e: colims[d].injections[o][e] for e in X.values[c]}
    return LeftKan(objects, colims, LX, DiagramMap(X, restrict(iota, LX), unit))


def lan(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise left Kan extension of ``X`` along ``iota``."""
    return left_kan(iota, X).extension


def lan_map(iota: CatFunctor, h: DiagramMap, *,
            kans: tuple[LeftKan, LeftKan] | None = None) -> DiagramMap:
    """The induced map between left Kan extensions; ``kans``, if given, is
    the pair of records of ``h.source`` and ``h.target``."""
    src, tgt = kans or (left_kan(iota, h.source), left_kan(iota, h.target))
    comps = {}
    for d in iota.codomain.objects:
        mapping = {}
        for o, (c, phi) in src.objects[d].items():
            for e in h.source.values[c]:
                mapping[src.colims[d].injections[o][e]] = \
                    tgt.colims[d].injections[o][h.components[c][e]]
        comps[d] = mapping
    return DiagramMap(src.extension, tgt.extension, comps)


def lan_unit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The unit ``X -> restrict(iota, lan(iota, X))`` of the Kan adjunction."""
    return left_kan(iota, X).unit


def right_kan(iota: CatFunctor, X: SetDiagram) -> RightKan:
    """The right Kan extension of ``X`` along ``iota``, with its counit.

    ``RX d`` holds the compatible families over the objects ``(phi,c)`` of
    the comma category under ``d``: each ``u: c -> c2`` requires the
    component at ``(iota u . phi, c2)`` to be ``X u`` of the one at
    ``(phi, c)``.
    """
    C, D = iota.domain, iota.codomain
    homs = fincat.hom_index(D)
    # objects[d] as comma_under(d, iota).object_data lists them
    objects: dict[str, dict[str, tuple[str, str]]] = {d: {} for d in D.objects}
    for c in C.objects:
        for d in D.objects:
            for phi in homs.get((d, iota.ob_map[c]), ()):
                objects[d][pair_name(phi, c)] = (phi, c)
    constraints: dict[str, list] = {d: [] for d in D.objects}
    for u in C.morphisms:
        c, c2 = C.source[u], C.target[u]
        if u == C.identity[c]:
            continue    # an identity asks each component to be itself
        iu, Xu = iota.mor_map[u], X.action[u]
        for d in D.objects:
            for phi in homs.get((d, iota.ob_map[c]), ()):
                constraints[d].append((pair_name(phi, c), Xu,
                                       pair_name(D.compose[(iu, phi)], c2)))
    lims = {}
    for d in D.objects:
        obs = sorted(objects[d])
        lims[d] = _families(obs, {o: X.values[objects[d][o][1]] for o in obs},
                            constraints[d], 2_000_000)
    values = {d: lims[d].elements for d in D.objects}
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        # the component at (phi2,c) of the image is the one at (phi2 psi,c)
        parts = {o2: lims[d].projections[pair_name(D.compose[(phi2, psi)], c)]
                 for o2, (phi2, c) in objects[d2].items()}
        action[psi] = {fam: _family_name({o2: proj[fam]
                                          for o2, proj in parts.items()})
                       for fam in lims[d].elements}
    RX = SetDiagram(D, values, action)   # sorted values, fresh maps
    errs = validate_diagram(RX)
    if errs:
        raise AssertionError("right Kan extension not functorial: " + errs[0])
    counit = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(D.identity[d], c)
        counit[c] = {fam: lims[d].projections[o][fam] for fam in RX.values[d]}
    return RightKan(objects, lims, RX, DiagramMap(restrict(iota, RX), X, counit))


def ran(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise right Kan extension of ``X`` along ``iota``."""
    return right_kan(iota, X).extension


def ran_counit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The counit ``restrict(iota, ran(iota, X)) -> X`` of the Kan adjunction."""
    return right_kan(iota, X).counit


def lan_transpose(iota: CatFunctor, X: SetDiagram, Y: SetDiagram,
                  f: DiagramMap, *, kan: LeftKan | None = None) -> DiagramMap:
    """Send ``f: lan(iota, X) -> Y`` to its adjunct ``X -> restrict(iota, Y)``:
    ``restrict(iota, f)`` after the unit, read off ``f`` without restricting
    its source."""
    unit = (kan or left_kan(iota, X)).unit
    return DiagramMap(unit.source, restrict(iota, f.target),
                      {c: {x: f.components[iota.ob_map[c]][u]
                           for x, u in unit.components[c].items()}
                       for c in iota.domain.objects})


def ran_transpose(iota: CatFunctor, Y: SetDiagram, X: SetDiagram,
                  g: DiagramMap, *, kan: RightKan | None = None) -> DiagramMap:
    """Send ``g: restrict(iota, Y) -> X`` to its adjunct ``Y -> ran(iota, X)``."""
    R = kan or right_kan(iota, X)
    comps = {}
    for d in iota.codomain.objects:
        mapping = {}
        for y in Y.values[d]:
            fam = {}
            for o, (phi, c) in R.objects[d].items():
                fam[o] = g.components[c][Y.action[phi][y]]
            mapping[y] = _family_name(fam)
        comps[d] = mapping
    return DiagramMap(Y, R.extension, comps)


def representable(C: FiniteCategory, x: str) -> SetDiagram:
    """The presheaf ``hom(-, x)`` as a diagram over ``opposite(C)``."""
    values = {o: C.hom(o, x) for o in C.objects}
    action = {m: {u: C.compose[(u, m)] for u in values[C.target[m]]}
              for m in C.morphisms}
    return SetDiagram.build(fincat.opposite(C), values, action)


def corepresentable(C: FiniteCategory, x: str) -> SetDiagram:
    """The covariant functor ``hom(x, -)`` as a diagram over ``C``."""
    values = {o: C.hom(x, o) for o in C.objects}
    action = {m: {u: C.compose[(m, u)] for u in values[C.source[m]]}
              for m in C.morphisms}
    return SetDiagram.build(C, values, action)


# ---------------------------------------------------------------------------
# adjunction certification


def certify_adjunction(left: CatFunctor, right: CatFunctor,
                       unit: NaturalTransformation,
                       counit: NaturalTransformation) -> AdjunctionReport:
    """Verify naturality of unit and counit and both triangle identities.

    ``left : C -> D`` and ``right : D -> C`` with unit ``id_C => right.left``
    and counit ``left.right => id_D``.  The first failing identity is
    reported with its witness.
    """
    C, D = left.domain, left.codomain
    failures: list[str] = []
    checked = 0
    for name, F in (("left adjoint", left), ("right adjoint", right)):
        errs = fincat.validate_functor(F)
        if errs:
            failures.append(f"{name} invalid: {errs[0]}")
    for name, nt in (("unit", unit), ("counit", counit)):
        errs = validate_natural(nt)
        if errs:
            failures.append(f"{name} not natural: {errs[0]}")
    if failures:
        return AdjunctionReport(False, checked, failures)
    for c in C.objects:
        checked += 1
        lc = left.ob_map[c]
        if D.compose[(counit.components[lc],
                      left.mor_map[unit.components[c]])] != D.identity[lc]:
            failures.append(f"left triangle fails at object {c}")
    for d in D.objects:
        checked += 1
        rd = right.ob_map[d]
        if C.compose[(right.mor_map[counit.components[d]],
                      unit.components[rd])] != C.identity[rd]:
            failures.append(f"right triangle fails at object {d}")
    return AdjunctionReport(not failures, checked, failures)


def certify_kan_adjunctions(iota: CatFunctor,
                            domain_diagrams: list[SetDiagram],
                            codomain_diagrams: list[SetDiagram],
                            naturality_budget: int = 3,
                            node_budget: int = 2_000_000) -> AdjunctionReport:
    """Certify the two Kan adjunctions on a finite corpus of diagrams.

    For every corpus pair the transposition for (extend-left, restrict) and
    for (restrict, extend-right) is checked to be a bijection of hom-sets.
    The naturality of the first in both variables is checked on the first
    ``naturality_budget`` maps, in search order, of ``lan X -> Y`` and of
    each ``X2 -> X`` and ``Y -> Y2`` between corpus diagrams; only those
    are searched for, so ``node_budget`` bounds each bijection search and
    each such prefix, never a whole hom-set.

    Maps are coded as in :func:`_coded_maps`: a left transpose gathers
    ``f`` at the slots of the unit's images, a right transpose looks each
    family up by its components, and names appear only in the witnesses.
    """
    C, D = iota.domain, iota.codomain
    nb = naturality_budget
    failures: list[str] = []
    checked = 0

    def maps(S: SetDiagram, T: SetDiagram) -> Iterator[tuple[str, ...]]:
        if S.shape != T.shape:
            raise ValueError("shapes differ")
        return _coded_maps(S, T, NodeBudget(
            node_budget, "diagram map search exceeded budget"))

    def bijection(side, where, homs, transpose, targets, checks):
        image = set()
        for f in homs:
            t = transpose(f)
            if t is not None and all(table[t[k]] == t[k2]
                                     for table, k, k2 in checks):
                image.add(t)
            else:
                failures.append(f"{side} transpose not natural {where}")
        if len(image) != len(homs):
            failures.append(f"{side} transpose not injective {where}")
        if image != targets:
            failures.append(f"{side} transpose not surjective {where}")

    lefts = [left_kan(iota, X) for X in domain_diagrams]
    rights = [right_kan(iota, X) for X in domain_diagrams]
    slots = [_slots(X) for X in domain_diagrams]
    lslots = [_slots(L.extension) for L in lefts]
    # lan_idx[xi][k]: the slot in LX of the unit's image of slot k of X;
    # typed[xi]: the unit is defined on X, so transposes are maps out of X
    lan_idx, typed = [], []
    for X, L, slot, lslot in zip(domain_diagrams, lefts, slots, lslots):
        unit = L.unit.components
        lan_idx.append([lslot[(iota.ob_map[c], unit[c][x])] for c, x in slot])
        typed.append(all(set(unit[c]) == set(X.values[c]) for c in C.objects))
    yslots = [_slots(Y) for Y in codomain_diagrams]
    firsts: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for xi, X in enumerate(domain_diagrams):
        R = rights[xi]
        families = {}   # the names of the families at d by their components
        for d in D.objects:
            projs = [R.lims[d].projections[o] for o in R.objects[d]]
            families[d] = {tuple(p[n] for p in projs): n
                           for n in R.lims[d].elements}
        for yi, Y in enumerate(codomain_diagrams):
            checked += 1
            where = f"(X{xi},Y{yi})"
            rY = restrict(iota, Y)
            left_homs = list(maps(lefts[xi].extension, Y))
            firsts[(xi, yi)] = left_homs[:nb]
            gather = lan_idx[xi]
            bijection("lan", where, left_homs,
                      lambda f: (tuple(map(f.__getitem__, gather))
                                 if typed[xi] else None),
                      set(maps(X, rY)), _naturality_checks(X, rY, slots[xi]))
            # the family of y at d reads g at the slots of Y phi y in rY
            ryslot = _slots(rY)
            ran_idx = [(families[d], [ryslot[(c, Y.action[phi][y])]
                                      for phi, c in R.objects[d].values()])
                       for d, y in yslots[yi]]

            def ran_transpose_coded(g):
                t = tuple([fams.get(tuple(map(g.__getitem__, idx)))
                           for fams, idx in ran_idx])
                return None if None in t else t
            bijection("ran", where, list(maps(rY, X)), ran_transpose_coded,
                      set(maps(Y, R.extension)),
                      _naturality_checks(Y, R.extension, yslots[yi]))

    # naturality of the lan transposition in both variables: for u: X2 ->
    # X, f: LX -> Y and v: Y -> Y2, the transpose of v.f.lan(u) at slot k
    # of X2 is v at the slot in Y of f[A[k]], and restrict(v) after the
    # transpose of f after u is v at that of f[B[k]]
    ends: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for xi, X in enumerate(domain_diagrams):
        for xj, X2 in enumerate(domain_diagrams):
            us = list(islice(maps(X2, X), nb))
            if not us:
                continue
            src, tgt, slot2 = lefts[xj], lefts[xi], slots[xj]
            # lan(u) at the slot p of LX2 is inj[u[k]], as in lan_map
            plan = [(lslots[xj][(d, src.colims[d].injections[o][e])],
                     tgt.colims[d].injections[o], slot2[(c, e)])
                    for d in D.objects for o, (c, _) in src.objects[d].items()
                    for e in X2.values[c]]
            sides = []
            for u in us:
                lu: list = [None] * len(lslots[xj])
                for p, inj, k in plan:
                    lu[p] = inj[u[k]]
                sides.append(
                    ([lslots[xi][(iota.ob_map[c], lu[lan_idx[xj][k]])]
                      for k, (c, _) in enumerate(slot2)],
                     [lan_idx[xi][slots[xi][(c, u[k])]]
                      for k, (c, _) in enumerate(slot2)]))
            for yi, Y in enumerate(codomain_diagrams):
                # per (f, u): the pairs of slots of Y that v must identify
                needs = []
                for f in firsts[(xi, yi)]:
                    fy = [yslots[yi][(d, y)]
                          for (d, _), y in zip(lslots[xi], f)]
                    needs += [[(fy[a], fy[b]) for a, b in zip(A, B)
                               if fy[a] != fy[b]] for A, B in sides]
                if not needs:
                    continue
                for yj, Y2 in enumerate(codomain_diagrams):
                    if (yi, yj) not in ends:
                        ends[(yi, yj)] = list(islice(maps(Y, Y2), nb))
                    vs = ends[(yi, yj)]
                    checked += len(needs) * len(vs)
                    bad = sum(not typed[xj]
                              or any(v[a] != v[b] for a, b in need)
                              for need in needs for v in vs)
                    failures += ["transpose unnatural "
                                 f"(X{xj}->X{xi},Y{yi}->Y{yj})"] * bad
    return AdjunctionReport(not failures, checked, failures)
