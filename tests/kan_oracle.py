"""The Kan-extension code as it was before the extension records.

Every function here recomputes its comma categories and (co)limits from
scratch.  It is kept, unchanged, as the exhaustive reference that
``test_setval`` compares :mod:`smallcat.kan` against.

:func:`left_kan` and :func:`right_kan` are the record builders as they were
before the coded Kan core, unchanged, with their records :class:`LeftKan`
and :class:`RightKan`: they work on names throughout, and the extensions,
units and counits :mod:`smallcat.kan` renders from its cores must equal
theirs up to ``repr``.

:func:`certify_on_records` is the certifier as it was before coded maps,
copied unchanged but for its name and for calling the Kan extensions and
transposes through :mod:`smallcat.kan`: it handles every map as a
:class:`DiagramMap`.

:class:`Partition` (behind :func:`left_kan`) and :func:`_families` with
:func:`limit` are the union-find and the name-level family search as they
were before every quotient read :func:`smallcat.fincat.least_members` and
``limit`` shared the right Kan core's coded search, copied unchanged; the
colimits are those of ``partition_oracle``.  So the union-find and the
family naming here share no code with :mod:`smallcat`; the family search
still runs on :func:`smallcat.fincat.backtrack`.
"""
from partition_oracle import colimit
from smallcat import fincat, kan, setval
from smallcat.fincat import (
    CatFunctor,
    NodeBudget,
    backtrack,
    constraint_lists,
    distinct,
    pair_name,
    record,
)
from smallcat.kan import _comma_objects
from smallcat.setval import (
    AdjunctionReport,
    ColimitResult,
    DiagramMap,
    LimitResult,
    SetDiagram,
    _family_name,
    comma_over,
    comma_under,
    compose_diagram_maps,
    enumerate_diagram_maps,
    restrict,
    restrict_map,
    validate_diagram,
    validate_diagram_map,
)


class Partition:
    """Union-find (Tarjan 1975) over hashable, mutually comparable items.

    :meth:`union` links the larger root under the smaller, so :meth:`find`
    names each class by its minimal member.  :meth:`find` halves paths and
    raises ``KeyError`` for an item the partition was not built over.
    """

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # x skips to its grandparent
        return x

    def union(self, a, b) -> bool:
        """Join the classes of ``a`` and ``b``; ``False`` if already one."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if b < a:
            a, b = b, a
        self.parent[b] = a
        return True


def _families(obs, values, constraints, budget: int) -> LimitResult:
    """The families ``fam`` over ``obs`` with ``fam[o]`` in ``values[o]``
    and ``table[fam[o1]] == fam[o2]`` for each ``(o1, table, o2)`` in
    ``constraints``: the limit, with the families found in product order.

    ``budget`` bounds the nodes of the search (``backtrack``), each
    component tried counting one: past it, ``BudgetError`` is raised
    (``limit product exceeds budget``).  Raises :class:`ValueError` when
    two families render to one name.
    """
    slot = {o: k for k, o in enumerate(obs)}
    # the whole search runs, or fails its budget, before a family is named
    found = list(map(tuple, backtrack(
        [values[o] for o in obs],
        constraint_lists(len(obs), [(table, (slot[o1],), slot[o2])
                                    for o1, table, o2 in constraints]),
        NodeBudget(budget, "limit product exceeds budget"))))
    projections: dict[str, dict[str, str]] = {o: {} for o in obs}
    names = []
    for a in found:
        fam = dict(zip(obs, a))
        n = _family_name(fam)
        names.append(n)
        for o, v in fam.items():
            projections[o][n] = v
    distinct(names, "family identifier {} names two families")
    return LimitResult(tuple(sorted(names)), projections)


def limit(X: SetDiagram, budget: int = 2_000_000) -> LimitResult:
    """Compatible families in the product of the value sets, searched for
    under ``budget`` nodes (see :func:`_families`)."""
    C = X.shape
    return _families(C.objects, X.values,
                     [(C.source[m], X.action[m], C.target[m])
                      for m in C.morphisms], budget)


def _lan_data(iota: CatFunctor, X: SetDiagram):
    D = iota.codomain
    commas = {d: comma_over(iota, d) for d in D.objects}
    colims = {}
    for d in D.objects:
        K = commas[d]
        colims[d] = colimit(restrict(K.projection, X))
    return commas, colims


def lan(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise left Kan extension of ``X`` along ``iota``."""
    D = iota.codomain
    commas, colims = _lan_data(iota, X)
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
    out = SetDiagram.build(D, values, action)
    errs = validate_diagram(out)
    if errs:
        raise AssertionError("left Kan extension not functorial: " + errs[0])
    return out


def lan_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    """The induced map between left Kan extensions."""
    D = iota.codomain
    commas, colims_src = _lan_data(iota, h.source)
    _, colims_tgt = _lan_data(iota, h.target)
    comps = {}
    for d in D.objects:
        mapping = {}
        for o, (c, phi) in commas[d].object_data.items():
            for e in h.source.values[c]:
                mapping[colims_src[d].injections[o][e]] = \
                    colims_tgt[d].injections[o][h.components[c][e]]
        comps[d] = mapping
    return DiagramMap(lan(iota, h.source), lan(iota, h.target), comps)


def lan_unit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The unit ``X -> restrict(iota, lan(iota, X))`` of the Kan adjunction."""
    C, D = iota.domain, iota.codomain
    _, colims = _lan_data(iota, X)
    LX = lan(iota, X)
    comps = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(c, D.identity[d])
        comps[c] = {e: colims[d].injections[o][e] for e in X.values[c]}
    return DiagramMap(X, restrict(iota, LX), comps)


def _ran_data(iota: CatFunctor, X: SetDiagram):
    D = iota.codomain
    commas = {d: comma_under(d, iota) for d in D.objects}
    lims = {}
    for d in D.objects:
        K = commas[d]
        lims[d] = limit(restrict(K.projection, X))
    return commas, lims


def ran(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise right Kan extension of ``X`` along ``iota``."""
    D = iota.codomain
    commas, lims = _ran_data(iota, X)
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
    out = SetDiagram.build(D, values, action)
    errs = validate_diagram(out)
    if errs:
        raise AssertionError("right Kan extension not functorial: " + errs[0])
    return out


def ran_counit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The counit ``restrict(iota, ran(iota, X)) -> X`` of the Kan adjunction."""
    C, D = iota.domain, iota.codomain
    _, lims = _ran_data(iota, X)
    RX = ran(iota, X)
    comps = {}
    for c in C.objects:
        d = iota.ob_map[c]
        o = pair_name(D.identity[d], c)
        comps[c] = {fam: lims[d].projections[o][fam] for fam in RX.values[d]}
    return DiagramMap(restrict(iota, RX), X, comps)


def lan_transpose(iota: CatFunctor, X: SetDiagram, Y: SetDiagram,
                  f: DiagramMap) -> DiagramMap:
    """Send ``f: lan(iota, X) -> Y`` to its adjunct ``X -> restrict(iota, Y)``."""
    return compose_diagram_maps(restrict_map(iota, f), lan_unit(iota, X))


def ran_transpose(iota: CatFunctor, Y: SetDiagram, X: SetDiagram,
                  g: DiagramMap) -> DiagramMap:
    """Send ``g: restrict(iota, Y) -> X`` to its adjunct ``Y -> ran(iota, X)``."""
    D = iota.codomain
    commas, _ = _ran_data(iota, X)
    RX = ran(iota, X)
    comps = {}
    for d in D.objects:
        mapping = {}
        for y in Y.values[d]:
            fam = {}
            for o, (phi, c) in commas[d].object_data.items():
                fam[o] = g.components[c][Y.action[phi][y]]
            mapping[y] = _family_name(fam)
        comps[d] = mapping
    return DiagramMap(Y, RX, comps)


@record(frozen=True)
class LeftKan:
    """The left Kan extension of ``X`` along ``iota``: ``objects[d]`` decodes
    each object ``(c,phi)`` of the comma category over ``d`` to its pair
    ``(c, phi: iota c -> d)``, ``colims[d]`` is the colimit of ``X`` over
    that comma, and ``unit`` maps ``X`` to the restricted ``extension``."""

    objects: dict[str, dict[str, tuple[str, str]]]
    colims: dict[str, ColimitResult]
    extension: SetDiagram
    unit: DiagramMap


@record(frozen=True)
class RightKan:
    """The right Kan extension of ``X`` along ``iota``: ``objects[d]``
    decodes each object ``(phi,c)`` of the comma category under ``d`` to its
    pair ``(phi: d -> iota c, c)``, ``lims[d]`` is the limit of ``X`` over
    that comma, and ``counit`` maps the restricted ``extension`` to ``X``."""

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

    lans = {i: lan(iota, X) for i, X in enumerate(domain_diagrams)}
    rans = {i: ran(iota, X) for i, X in enumerate(domain_diagrams)}

    for xi, X in enumerate(domain_diagrams):
        LX = lans[xi]
        RX = rans[xi]
        for yi, Y in enumerate(codomain_diagrams):
            checked += 1
            rY = restrict(iota, Y)
            left_homs = enumerate_diagram_maps(LX, Y, node_budget)
            right_homs = enumerate_diagram_maps(X, rY, node_budget)
            image = {}
            for f in left_homs:
                t = lan_transpose(iota, X, Y, f)
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
                t = ran_transpose(iota, Y, X, g)
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
            for yi, Y in enumerate(codomain_diagrams):
                fs = enumerate_diagram_maps(lans[xi], Y, node_budget)[:nb]
                if not fs:
                    continue
                for yj, Y2 in enumerate(codomain_diagrams):
                    vs = enumerate_diagram_maps(Y, Y2, node_budget)[:nb]
                    for u in us:
                        lu = lan_map(iota, u)
                        for v in vs:
                            for f in fs:
                                checked += 1
                                lhs = lan_transpose(
                                    iota, X2, Y2,
                                    compose_diagram_maps(
                                        v, compose_diagram_maps(f, lu)))
                                rhs = compose_diagram_maps(
                                    restrict_map(iota, v),
                                    compose_diagram_maps(
                                        lan_transpose(iota, X, Y, f), u))
                                if lhs.key() != rhs.key():
                                    failures.append(
                                        "transpose unnatural "
                                        f"(X{xj}->X{xi},Y{yi}->Y{yj})")
    return AdjunctionReport(not failures, checked, failures)


def certify_on_records(iota: CatFunctor,
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

    lans = [kan.lan(iota, X) for X in domain_diagrams]
    rans = [kan.ran(iota, X) for X in domain_diagrams]
    left_homs_of: dict[tuple[int, int], list[DiagramMap]] = {}

    for xi, X in enumerate(domain_diagrams):
        LX = lans[xi]
        RX = rans[xi]
        for yi, Y in enumerate(codomain_diagrams):
            checked += 1
            rY = restrict(iota, Y)
            left_homs = left_homs_of[(xi, yi)] = \
                enumerate_diagram_maps(LX, Y, node_budget)
            right_homs = enumerate_diagram_maps(X, rY, node_budget)
            image = {}
            for f in left_homs:
                t = kan.lan_transpose(iota, X, Y, f)
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
                t = kan.ran_transpose(iota, Y, X, g)
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
            lus = [kan.lan_map(iota, u) for u in us]
            for yi, Y in enumerate(codomain_diagrams):
                fs = left_homs_of[(xi, yi)][:nb]
                if not fs:
                    continue
                for yj, Y2 in enumerate(codomain_diagrams):
                    vs = enumerate_diagram_maps(Y, Y2, node_budget)[:nb]
                    for u, lu in zip(us, lus):
                        for v in vs:
                            for f in fs:
                                checked += 1
                                lhs = kan.lan_transpose(
                                    iota, X2, Y2,
                                    compose_diagram_maps(
                                        v, compose_diagram_maps(f, lu)))
                                rhs = compose_diagram_maps(
                                    restrict_map(iota, v),
                                    compose_diagram_maps(
                                        kan.lan_transpose(iota, X, Y, f),
                                        u))
                                if lhs.key() != rhs.key():
                                    failures.append(
                                        "transpose unnatural "
                                        f"(X{xj}->X{xi},Y{yi}->Y{yj})")
    return AdjunctionReport(not failures, checked, failures)
