"""Kan extensions of set-valued diagrams, comma categories and adjunction
certificates.

The Kan extensions are the pointwise (co)limits over comma categories,
computed without building those categories: the left one by one
union-find chase over every codomain object, the right one as compatible
families over the under-comma objects.  :func:`left_kan` and
:func:`right_kan` build a :class:`LeftKan` or :class:`RightKan` record per
functor and diagram, holding the comma objects, (co)limits, extension and
(co)unit; the transposes and :func:`lan_map` read a record passed to them
instead of rebuilding it, and the plain functions (:func:`lan`,
:func:`lan_unit`, ...) build one per call.

A comma object is named by the pair string of its two parts, a comma
morphism by the triple of its morphism and ends, and an item of the left
chase by the pair string of its comma object and element.  Names with
commas in them can make two of these render alike; that raises
:class:`ValueError` instead of merging them.

Every name here is also reachable as an attribute of
:mod:`smallcat.setval`, where it lived before; only the commands that
compute a Kan extension or a certificate load this module.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator

# Timed functions are called via their module: see the package docstring.
from . import fincat, setval
from .fincat import (
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    NodeBudget,
    Partition,
    distinct,
    field,
    pair_name,
    record,
)
from .setval import (
    ColimitResult,
    DiagramMap,
    LimitResult,
    SetDiagram,
    _coded_maps,
    _families,
    _family_name,
    _naturality_checks,
    _slots,
    restrict,
)


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


@record
class AdjunctionReport:
    """Outcome of an adjunction check; ``failures`` carries witnesses."""

    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# comma categories


def _comma_objects(iota: CatFunctor, homs: dict[tuple[str, str], list[str]],
                   d: str, under: bool) -> dict[str, tuple[str, str]]:
    """The objects of the comma category over ``d``, or under it when
    ``under``, keyed by their pair names: ``(c,phi)`` for ``phi: iota c ->
    d``, or ``(phi,c)`` for ``phi: d -> iota c``; ``homs`` is the
    :func:`~smallcat.fincat.hom_index` of the codomain of ``iota``."""
    objects: dict[str, tuple[str, str]] = {}
    pairs = []
    ob = iota.ob_map
    for c in iota.domain.objects:
        for phi in homs.get((d, ob[c]) if under else (ob[c], d), ()):
            pair = (phi, c) if under else (c, phi)
            pairs.append(pair)
            objects[pair_name(*pair)] = pair
    if len(objects) != len(pairs):      # two pairs, one name
        distinct([pair_name(*pair) for pair in pairs],
                 "comma object identifier {} names two comma objects")
    return objects


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
    distinct(morphisms, "comma morphism identifier {} names two comma morphisms")
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
    object_data = _comma_objects(iota, fincat.hom_index(D), d, False)

    def arrow_ok(p1, p2, m):
        return D.compose[(p2[1], iota.mor_map[m])] == p1[1]

    return _comma_category(object_data, C, 0, arrow_ok)


def comma_under(d: str, iota: CatFunctor) -> CommaCategory:
    """The comma category of arrows ``d -> iota(c)``; objects are ``(arrow,c)``."""
    C, D = iota.domain, iota.codomain
    object_data = _comma_objects(iota, fincat.hom_index(D), d, True)

    def arrow_ok(p1, p2, m):
        return D.compose[(iota.mor_map[m], p1[0])] == p2[0]

    return _comma_category(object_data, C, 1, arrow_ok)


# ---------------------------------------------------------------------------
# Kan extensions


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
    objects = {d: _comma_objects(iota, homs, d, False) for d in D.objects}
    # tags[d][o][x] is the item of x at the comma object o over d
    tags = {d: {o: {x: (d, pair_name(o, x)) for x in X.values[c]}
                for o, (c, _) in objects[d].items()} for d in D.objects}
    items = [t for by_o in tags.values() for by_x in by_o.values()
             for t in by_x.values()]
    classes = Partition(items)
    if len(classes.parent) != len(items):           # two items, one name
        for by_o in tags.values():
            distinct([t for by_x in by_o.values() for _, t in by_x.values()],
                     "Kan extension item identifier {} names two Kan "
                     "extension items")
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
    errs = setval.validate_diagram(LX)
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
    objects = {d: _comma_objects(iota, homs, d, True) for d in D.objects}
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
    errs = setval.validate_diagram(RX)
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
    from .search import validate_natural
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
