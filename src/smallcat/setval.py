"""Set-valued diagrams on finite categories and their Kan extensions.

A :class:`SetDiagram` is a functor from a finite category to finite sets,
stored as one value set per object and one function per morphism.  Limits
are computed as compatible families inside the product, colimits as
quotients of the tagged disjoint union; left and right Kan extensions are
computed pointwise over comma categories.  :func:`left_kan` and
:func:`right_kan` build a :class:`LeftKan` or :class:`RightKan` record per
functor and diagram, holding the commas, (co)limits, extension and
(co)unit; the transposes and :func:`lan_map` read a record passed to them
instead of rebuilding it, and the plain functions (:func:`lan`,
:func:`lan_unit`, ...) build one per call.

Naming is deterministic throughout: disjoint-union tags are pair strings
``(object,element)``, colimit classes are named by their lexicographically
minimal member tag, and limit families list their components in object
order.  Empty shapes follow the usual conventions: the limit over the empty
shape is a one-point set, the colimit is empty.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    pair_name,
    validate_natural,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiagramMap:
    """A natural transformation between two diagrams over the same shape."""

    source: SetDiagram
    target: SetDiagram
    components: dict[str, dict[str, str]]

    def key(self) -> tuple:
        return tuple((o, tuple(sorted(c.items())))
                     for o, c in sorted(self.components.items()))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LimitResult:
    elements: tuple[str, ...]
    projections: dict[str, dict[str, str]]


@dataclass(frozen=True)
class ColimitResult:
    elements: tuple[str, ...]
    injections: dict[str, dict[str, str]]


@dataclass
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
    """Yield the diagram maps ``X -> Y`` in lexicographic order.

    Each element ``(o, e)`` of ``X`` is a variable with candidates
    ``Y.values[o]``, or only ``forced[(o, e)]`` when given.  Naturality at
    ``m`` sending ``e`` to ``e2`` is the constraint
    ``Y.action[m][a[e]] == a[e2]``.  ``fibre = (p, bottom)`` also requires
    ``p.components[o][a[e]] == bottom.components[o][e]``.
    """
    C = X.shape
    variables = [(o, e) for o in C.objects for e in X.values[o]]
    n = len(variables)
    slot = {v: k for k, v in enumerate(variables)}
    constraints, constants = [], []
    if fibre is not None:
        p, bottom = fibre
        constraints = [(p.components[o], (k,), -1 - k)
                       for k, (o, e) in enumerate(variables)]
        constants = [bottom.components[o][e] for o, e in variables]
    constraints += [(Y.action[m], (slot[(C.source[m], e)],),
                     slot[(C.target[m], X.action[m][e])])
                    for m in C.morphisms for e in X.values[C.source[m]]]
    forced = forced or {}
    candidates = [(forced[v],) if v in forced else Y.values[v[0]]
                  for v in variables]
    for a in backtrack(candidates, constraint_lists(n, constraints),
                       budget, constants):
        comps: dict[str, dict[str, str]] = {o: {} for o in C.objects}
        for (o, e), img in zip(variables, a):
            comps[o][e] = img
        yield DiagramMap(X, Y, comps)


# ---------------------------------------------------------------------------
# limits and colimits


def _family_name(fam: dict[str, str]) -> str:
    return "(" + ",".join(f"{o}={fam[o]}" for o in sorted(fam)) + ")"


def limit(X: SetDiagram, budget: int = 2_000_000) -> LimitResult:
    """Compatible families in the product of the value sets."""
    C = X.shape
    obs = list(C.objects)
    if not obs:
        return LimitResult(("()",), {})
    size = 1
    for o in obs:
        size *= max(len(X.values[o]), 1)
        if size > budget:
            raise BudgetError("limit product exceeds budget")
    families = []
    for combo in itertools.product(*(X.values[o] for o in obs)):
        fam = dict(zip(obs, combo))
        if all(X.action[m][fam[C.source[m]]] == fam[C.target[m]]
               for m in C.morphisms):
            families.append(fam)
    names = sorted(_family_name(f) for f in families)
    projections: dict[str, dict[str, str]] = {o: {} for o in obs}
    for fam in families:
        n = _family_name(fam)
        for o in obs:
            projections[o][n] = fam[o]
    return LimitResult(tuple(names), projections)


def colimit(X: SetDiagram) -> ColimitResult:
    """Quotient of the tagged disjoint union by the action-generated relation.

    Classes come from a :class:`~smallcat.fincat.Partition` of the tags and
    are named by their lexicographically minimal member tag.
    """
    C = X.shape
    classes = Partition(pair_name(o, e) for o in C.objects for e in X.values[o])
    for m in C.morphisms:
        o, o2 = C.source[m], C.target[m]
        for e in X.values[o]:
            classes.union(pair_name(o, e), pair_name(o2, X.action[m][e]))
    injections = {o: {e: classes.find(pair_name(o, e)) for e in X.values[o]}
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
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    morphism_data = {}
    homs: dict[tuple[str, str], list[str]] = {}
    for m in C.morphisms:
        homs.setdefault((C.source[m], C.target[m]), []).append(m)
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
    for n1 in morphisms:
        for n2 in morphisms:
            if source[n2] == target[n1]:
                m = C.compose[(morphism_data[n2], morphism_data[n1])]
                compose[(n2, n1)] = f"({m},{source[n1]},{target[n2]})"
    cat = FiniteCategory.build(objects, morphisms, source, target,
                               identity, compose)
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
    """Precompose ``Y`` (over the codomain of ``iota``) with ``iota``."""
    C = iota.domain
    return SetDiagram.build(
        C,
        {c: Y.values[iota.ob_map[c]] for c in C.objects},
        {m: Y.action[iota.mor_map[m]] for m in C.morphisms},
    )


def restrict_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    C = iota.domain
    return DiagramMap(restrict(iota, h.source), restrict(iota, h.target),
                      {c: dict(h.components[iota.ob_map[c]])
                       for c in C.objects})


@dataclass(frozen=True)
class LeftKan:
    """The left Kan extension of ``X`` along ``iota``: ``commas[d]`` is the
    comma category over ``d``, ``colims[d]`` the colimit of ``X`` over it,
    and ``unit`` maps ``X`` to the restricted ``extension``.  Built by
    :func:`left_kan`; :func:`lan_transpose` and :func:`lan_map` take it."""

    commas: dict[str, CommaCategory]
    colims: dict[str, ColimitResult]
    extension: SetDiagram
    unit: DiagramMap


@dataclass(frozen=True)
class RightKan:
    """The right Kan extension of ``X`` along ``iota``: ``commas[d]`` is the
    comma category under ``d``, ``lims[d]`` the limit of ``X`` over it, and
    ``counit`` maps the restricted ``extension`` to ``X``.  Built by
    :func:`right_kan`; :func:`ran_transpose` takes it."""

    commas: dict[str, CommaCategory]
    lims: dict[str, LimitResult]
    extension: SetDiagram
    counit: DiagramMap


def left_kan(iota: CatFunctor, X: SetDiagram) -> LeftKan:
    """The left Kan extension of ``X`` along ``iota``, with its unit."""
    C, D = iota.domain, iota.codomain
    commas = {d: comma_over(iota, d) for d in D.objects}
    colims = {d: colimit(restrict(commas[d].projection, X))
              for d in D.objects}
    values = {d: colims[d].elements for d in D.objects}
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        mapping: dict[str, str] = {}
        for o, (c, phi) in commas[d].object_data.items():
            o2 = pair_name(c, D.compose[(psi, phi)])
            for e in X.values[c]:
                src_class = colims[d].injections[o][e]
                tgt_class = colims[d2].injections[o2][e]
                prev = mapping.get(src_class)
                if prev is not None and prev != tgt_class:
                    raise AssertionError("left Kan extension action ill-defined")
                mapping[src_class] = tgt_class
        action[psi] = mapping
    LX = SetDiagram.build(D, values, action)
    errs = validate_diagram(LX)
    if errs:
        raise AssertionError("left Kan extension not functorial: " + errs[0])
    unit = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(c, D.identity[d])
        unit[c] = {e: colims[d].injections[o][e] for e in X.values[c]}
    return LeftKan(commas, colims, LX, DiagramMap(X, restrict(iota, LX), unit))


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
        for o, (c, phi) in src.commas[d].object_data.items():
            for e in h.source.values[c]:
                mapping[src.colims[d].injections[o][e]] = \
                    tgt.colims[d].injections[o][h.components[c][e]]
        comps[d] = mapping
    return DiagramMap(src.extension, tgt.extension, comps)


def lan_unit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The unit ``X -> restrict(iota, lan(iota, X))`` of the Kan adjunction."""
    return left_kan(iota, X).unit


def right_kan(iota: CatFunctor, X: SetDiagram) -> RightKan:
    """The right Kan extension of ``X`` along ``iota``, with its counit."""
    C, D = iota.domain, iota.codomain
    commas = {d: comma_under(d, iota) for d in D.objects}
    lims = {d: limit(restrict(commas[d].projection, X)) for d in D.objects}
    values = {d: lims[d].elements for d in D.objects}
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        mapping = {}
        for fam_name in lims[d].elements:
            fam2 = {}
            for o2, (phi2, c) in commas[d2].object_data.items():
                o = pair_name(D.compose[(phi2, psi)], c)
                fam2[o2] = lims[d].projections[o][fam_name]
            mapping[fam_name] = _family_name(fam2)
        action[psi] = mapping
    RX = SetDiagram.build(D, values, action)
    errs = validate_diagram(RX)
    if errs:
        raise AssertionError("right Kan extension not functorial: " + errs[0])
    counit = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(D.identity[d], c)
        counit[c] = {fam: lims[d].projections[o][fam] for fam in RX.values[d]}
    return RightKan(commas, lims, RX, DiagramMap(restrict(iota, RX), X, counit))


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
            for o, (phi, c) in R.commas[d].object_data.items():
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
    for (restrict, extend-right) is checked to be a bijection of hom-sets,
    and its naturality in both variables is checked against corpus maps
    (up to ``naturality_budget`` maps per side).
    """
    failures: list[str] = []
    checked = 0

    lefts = [left_kan(iota, X) for X in domain_diagrams]
    rights = [right_kan(iota, X) for X in domain_diagrams]

    for xi, X in enumerate(domain_diagrams):
        LX = lefts[xi].extension
        RX = rights[xi].extension
        for yi, Y in enumerate(codomain_diagrams):
            checked += 1
            rY = restrict(iota, Y)
            left_homs = enumerate_diagram_maps(LX, Y, node_budget)
            right_homs = enumerate_diagram_maps(X, rY, node_budget)
            image = {}
            for f in left_homs:
                t = lan_transpose(iota, X, Y, f, kan=lefts[xi])
                if validate_diagram_map(t):
                    failures.append(f"lan transpose not natural (X{xi},Y{yi})")
                    continue
                image[t.key()] = f
            if len(image) != len(left_homs):
                failures.append(f"lan transpose not injective (X{xi},Y{yi})")
            if set(image) != {h.key() for h in right_homs}:
                failures.append(f"lan transpose not surjective (X{xi},Y{yi})")

            left2 = enumerate_diagram_maps(rY, X, node_budget)
            right2 = enumerate_diagram_maps(Y, RX, node_budget)
            image2 = {}
            for g in left2:
                t = ran_transpose(iota, Y, X, g, kan=rights[xi])
                if validate_diagram_map(t):
                    failures.append(f"ran transpose not natural (X{xi},Y{yi})")
                    continue
                image2[t.key()] = g
            if len(image2) != len(left2):
                failures.append(f"ran transpose not injective (X{xi},Y{yi})")
            if set(image2) != {h.key() for h in right2}:
                failures.append(f"ran transpose not surjective (X{xi},Y{yi})")

    # naturality of the lan transposition in both variables
    nb = naturality_budget
    for xi, X in enumerate(domain_diagrams):
        for xj, X2 in enumerate(domain_diagrams):
            us = enumerate_diagram_maps(X2, X, node_budget)[:nb]
            if not us:
                continue
            lus = [lan_map(iota, u, kans=(lefts[xj], lefts[xi])) for u in us]
            for yi, Y in enumerate(codomain_diagrams):
                fs = enumerate_diagram_maps(lefts[xi].extension, Y,
                                            node_budget)[:nb]
                if not fs:
                    continue
                for yj, Y2 in enumerate(codomain_diagrams):
                    vs = enumerate_diagram_maps(Y, Y2, node_budget)[:nb]
                    for u, lu in zip(us, lus):
                        for v in vs:
                            for f in fs:
                                checked += 1
                                lhs = lan_transpose(
                                    iota, X2, Y2,
                                    compose_diagram_maps(
                                        v, compose_diagram_maps(f, lu)),
                                    kan=lefts[xj])
                                rhs = compose_diagram_maps(
                                    restrict_map(iota, v),
                                    compose_diagram_maps(
                                        lan_transpose(iota, X, Y, f,
                                                      kan=lefts[xi]), u))
                                if lhs.key() != rhs.key():
                                    failures.append(
                                        "transpose unnatural "
                                        f"(X{xj}->X{xi},Y{yi}->Y{yj})")
    return AdjunctionReport(not failures, checked, failures)
