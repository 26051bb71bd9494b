"""Kan extensions of set-valued diagrams, comma categories and adjunction
certificates.

The Kan extensions are the pointwise (co)limits over comma categories,
computed without building those categories, by one coded core per side:
:func:`_lan_core` chases union-find classes over each codomain object,
and :func:`_ran_core` finds the compatible families over the
under-comma objects.  Each takes a diagram coded once
(:class:`~smallcat.coded.CodedDiagram`) and returns a :class:`CodedKan`:
the comma objects, the coded extension and the injection or projection
tables.  The cores name classes and families only to order them by name.
:func:`lan` and :func:`ran` render the extension of a core, reusing its
names; :func:`lan_unit` and :func:`ran_counit` also read its tables at the
identity comma objects, :func:`lan_transpose` calls :func:`lan_unit`,
:func:`ran_transpose` names families over the comma objects of a right
core, and :func:`lan_map` reads the injection tables of two left cores.
:func:`certify_kan_adjunctions` reads the cores directly and never
renders.  Nothing is cached across calls: codes are built inside a call
and dropped at its return.

A comma object is named by the pair string of its two parts, a comma
morphism by the triple of its morphism and ends, and an item of the left
chase by the pair string of its comma object and element.  Names with
commas in them can make two of these render alike; that raises
:class:`ValueError` instead of merging them.

Every public name here is also reachable as an attribute of
:mod:`smallcat.setval`, where it lived before; only the commands that
compute a Kan extension or a certificate load this module.
"""
from __future__ import annotations

from itertools import chain, islice, repeat
from operator import add, getitem, itemgetter

# Timed functions are called via their module: see the package docstring.
from . import fincat
from .fincat import (
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    NodeBudget,
    backtrack,
    distinct,
    field,
    least_members,
    pair_name,
    record,
)
from .coded import (
    CodedDiagram,
    _code,
    _coded_error,
    _maps,
    _offsets,
    _squares,
)
from .setval import DiagramMap, SetDiagram, _family_name, restrict


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
class CodedKan:
    """A Kan extension of a coded diagram ``X`` along ``iota``, on codes.

    ``objects[d]`` lists the comma objects over ``d`` (left) or under it
    (right) as :func:`_comma_objects` does.  ``extension`` is the coded
    extension; its elements at ``d`` are the colimit classes or limit
    families, sorted by name.  ``tables[d][pair]`` is, at the comma object
    ``pair``, the injection (code in ``X c`` to class) on the left, in the
    order of ``objects[d]``, and the projection (family to code in ``X
    c``) on the right, in the name order of the comma objects.  The unit
    and the counit are the tables at the pairs of identities.
    """

    objects: dict[str, dict[str, tuple[str, str]]]
    extension: CodedDiagram
    tables: dict[str, dict[tuple[str, str], tuple[int, ...]]]


def _lan_core(iota: CatFunctor, X: CodedDiagram) -> CodedKan:
    """The left Kan extension of ``X`` along ``iota``.

    A union-find chase per codomain object ``d`` (Meyers, Spivak and
    Wisnesky, *Fast Left Kan Extensions Using Union Find*): the items are
    ``((c,phi),x)`` for ``phi: iota c -> d`` and ``x`` in ``X c``, and each
    ``u: c -> c2`` joins ``(c, phi2 . iota u, x)`` with ``(c2, phi2, X
    u x)``; the :func:`~smallcat.fincat.generators` of ``C`` join what all
    its morphisms do.  :func:`~smallcat.fincat.least_members` runs the
    chase on item positions and names each class by its minimal item, as
    :func:`colimit` names it over the comma category.
    """
    C, D = iota.domain, iota.codomain
    homs = fincat.hom_index(D)
    objects = {d: _comma_objects(iota, homs, d, False) for d in D.objects}
    moves = [(C.source[u], C.target[u], iota.mor_map[u], X.action[u])
             for u in fincat.generators(C)]
    render = "({},{})".format   # pair_name, without a frame per item
    values, tables, classes = {}, {}, {}
    for d in D.objects:
        # items[start[c, phi] + i] names element i of X c at (c,phi)
        items: list[str] = []
        start = {}
        for o, (c, phi) in objects[d].items():
            start[c, phi] = len(items)
            items += map(render, repeat(o), X.values[c])
        distinct(items, "Kan extension item identifier {} names two Kan "
                        "extension items")
        # item joins[0][k] is joined with item joins[1][k]
        joins: tuple[list[int], list[int]] = ([], [])
        for c, c2, iu, Xu in moves:
            for phi2 in homs.get((iota.ob_map[c2], d), ()):
                s = start[c, D.compose[(phi2, iu)]]
                joins[0].extend(range(s, s + len(Xu)))
                joins[1].extend(map(start[c2, phi2].__add__, Xu))
        roots = least_members(items, zip(*joins))
        values[d] = ranked = tuple(sorted(set(roots)))
        code = dict(zip(ranked, range(len(ranked))))
        # the class of every item, in item order
        classes[d] = cls = list(map(code.__getitem__, roots))
        tables[d] = {pair: tuple(cls[s:s + len(X.values[pair[0]])])
                     for pair, s in start.items()}
    identities = set(D.identity.values())
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        if psi in identities:   # it sends each comma object to itself
            action[psi] = tuple(range(len(values[d])))
            continue
        images: list[int] = []
        for c, phi in objects[d].values():
            images += tables[d2][c, D.compose[(psi, phi)]]
        image = dict(zip(classes[d], images))
        if list(map(image.__getitem__, classes[d])) != images:
            raise AssertionError("left Kan extension action ill-defined")
        action[psi] = tuple(map(image.__getitem__, range(len(values[d]))))
    LX = CodedDiagram(D, values, action)
    err = _coded_error(LX)
    if err:
        raise AssertionError("left Kan extension not functorial: " + err)
    return CodedKan(objects, LX, tables)


def _ran_core(iota: CatFunctor, X: CodedDiagram) -> CodedKan:
    """The right Kan extension of ``X`` along ``iota``.

    ``RX d`` holds the compatible families over the objects ``(phi,c)`` of
    the comma category under ``d``, taken in name order: each ``u: c ->
    c2`` requires the component at ``(iota u . phi, c2)`` to be ``X u`` of
    the one at ``(phi, c)``.  The families at each ``d`` are one search
    under a budget of 2,000,000 nodes, as in :func:`setval._families`.
    """
    C, D = iota.domain, iota.codomain
    homs = fincat.hom_index(D)
    objects = {d: _comma_objects(iota, homs, d, True) for d in D.objects}
    # slot[d][pair]: the place of the comma object pair in name order, and
    # heads[d] the names in that order; checks[d][k] will hold the
    # constraints on a family at d whose last slot is k
    slot, heads, checks = {}, {}, {}
    for d, objs in objects.items():
        names = sorted(objs)
        slot[d] = {objs[o]: k for k, o in enumerate(names)}
        heads[d] = [o + "=" for o in names]
        checks[d] = [[] for _ in names]
    keys = [itemgetter(k) for k in range(max(map(len, heads.values()),
                                             default=0))]
    for u in C.morphisms:
        c, c2 = C.source[u], C.target[u]
        if u == C.identity[c]:
            continue    # an identity asks each component to be itself
        iu, Xu = iota.mor_map[u], X.action[u]
        for d in D.objects:
            at = slot[d]
            for phi in homs.get((d, iota.ob_map[c]), ()):
                k, k2 = at[phi, c], at[D.compose[(iu, phi)], c2]
                checks[d][k if k > k2 else k2].append((Xu, keys[k], k2))
    values, tables, lookup = {}, {}, {}
    for d in D.objects:
        pairs = list(slot[d])
        found = list(map(tuple, backtrack(
            [range(len(X.values[c])) for _, c in pairs], checks[d],
            NodeBudget(2_000_000, "limit product exceeds budget"))))
        elements = [X.values[c] for _, c in pairs]
        fams = [f"({','.join(map(add, heads[d], map(getitem, elements, a)))})"
                for a in found]
        if len(set(fams)) != len(fams):
            distinct(fams, "family identifier {} names two families")
        ranked = sorted(zip(fams, found))
        values[d] = tuple([name for name, _ in ranked])
        found = [a for _, a in ranked]
        lookup[d] = dict(zip(found, range(len(found))))
        tables[d] = dict(zip(pairs, zip(*found))) if found \
            else dict.fromkeys(pairs, ())
    identities = set(D.identity.values())
    action = {}
    for psi in D.morphisms:
        d, d2 = D.source[psi], D.target[psi]
        if psi in identities:   # it sends each comma object to itself
            action[psi] = tuple(range(len(values[d])))
            continue
        # the component at (phi2,c) of the image is the one at (phi2 psi,c)
        at = [slot[d][D.compose[(phi2, psi)], c] for phi2, c in slot[d2]]
        image = lookup[d2]
        action[psi] = table = tuple([image.get(tuple(map(fam.__getitem__, at)))
                                     for fam in lookup[d]])
        if None in table:
            raise AssertionError("right Kan extension not functorial: "
                                 f"morphism {psi}: values escape target set")
    RX = CodedDiagram(D, values, action)
    err = _coded_error(RX)
    if err:
        raise AssertionError("right Kan extension not functorial: " + err)
    return CodedKan(objects, RX, tables)


def _render(E: CodedDiagram, order: dict[str, list[int]] | None = None
            ) -> SetDiagram:
    """``E`` with names for codes; ``order[d]``, when given, lists the codes
    at ``d`` in the order each action from ``d`` lists them, and code
    order is the default."""
    D, names = E.shape, E.values
    action = {}
    for psi in D.morphisms:
        d = D.source[psi]
        src, tgt, table = names[d], names[D.target[psi]], E.action[psi]
        codes = range(len(src)) if order is None else order[d]
        action[psi] = {src[s]: tgt[table[s]] for s in codes}
    return SetDiagram(D, names, action)


def _render_lan(core: CodedKan) -> SetDiagram:
    """The extension of a left core with names; each action lists the
    classes in the order of their first items, comma object by comma
    object, as the named builder met them."""
    return _render(core.extension, {
        d: list(dict.fromkeys(chain.from_iterable(tables.values())))
        for d, tables in core.tables.items()})


def lan(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise left Kan extension of ``X`` along ``iota``."""
    return _render_lan(_lan_core(iota, _code(X)))


def lan_map(iota: CatFunctor, h: DiagramMap) -> DiagramMap:
    """The induced map between left Kan extensions: the class of each item
    ``((c,phi),e)`` goes to the class of ``((c,phi),h e)``, read through
    the injection tables of the two left cores."""
    X, Y = h.source, h.target
    src, tgt = _lan_core(iota, _code(X)), _lan_core(iota, _code(Y))
    LX, LY = _render_lan(src), _render_lan(tgt)
    comps = {}
    for d, objs in src.objects.items():
        names, names2 = LX.values[d], LY.values[d]
        mapping = comps[d] = {}
        for c, phi in objs.values():
            into = dict(zip(Y.values[c], tgt.tables[d][c, phi]))
            for e, s in zip(X.values[c], src.tables[d][c, phi]):
                mapping[names[s]] = names2[into[h.components[c][e]]]
    return DiagramMap(LX, LY, comps)


def lan_unit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The unit ``X -> restrict(iota, lan(iota, X))`` of the Kan adjunction:
    at ``c``, the injection of the left core at ``(c, id)``."""
    D = iota.codomain
    core = _lan_core(iota, _code(X))
    LX = _render_lan(core)
    unit = {}
    for c in iota.domain.objects:
        d = iota.ob_map[c]
        unit[c] = dict(zip(X.values[c], map(LX.values[d].__getitem__,
                                            core.tables[d][c, D.identity[d]])))
    return DiagramMap(X, restrict(iota, LX), unit)


def ran(iota: CatFunctor, X: SetDiagram) -> SetDiagram:
    """Pointwise right Kan extension of ``X`` along ``iota``."""
    return _render(_ran_core(iota, _code(X)).extension)


def ran_counit(iota: CatFunctor, X: SetDiagram) -> DiagramMap:
    """The counit ``restrict(iota, ran(iota, X)) -> X`` of the Kan adjunction:
    at ``c``, the projection of the right core at ``(id, c)``."""
    D = iota.codomain
    core = _ran_core(iota, _code(X))
    RX = _render(core.extension)
    counit = {}
    for c in iota.domain.objects:
        d = iota.ob_map[c]
        counit[c] = dict(zip(RX.values[d], map(X.values[c].__getitem__,
                                               core.tables[d][D.identity[d], c])))
    return DiagramMap(restrict(iota, RX), X, counit)


def lan_transpose(iota: CatFunctor, X: SetDiagram, Y: SetDiagram,
                  f: DiagramMap) -> DiagramMap:
    """Send ``f: lan(iota, X) -> Y`` to its adjunct ``X -> restrict(iota, Y)``:
    ``restrict(iota, f)`` after the unit, read off ``f`` without restricting
    its source."""
    unit = lan_unit(iota, X)
    return DiagramMap(unit.source, restrict(iota, f.target),
                      {c: {x: f.components[iota.ob_map[c]][u]
                           for x, u in unit.components[c].items()}
                       for c in iota.domain.objects})


def ran_transpose(iota: CatFunctor, Y: SetDiagram, X: SetDiagram,
                  g: DiagramMap) -> DiagramMap:
    """Send ``g: restrict(iota, Y) -> X`` to its adjunct ``Y -> ran(iota, X)``."""
    core = _ran_core(iota, _code(X))
    comps = {}
    for d, objs in core.objects.items():
        mapping = {}
        for y in Y.values[d]:
            fam = {}
            for o, (phi, c) in objs.items():
                fam[o] = g.components[c][Y.action[phi][y]]
            mapping[y] = _family_name(fam)
        comps[d] = mapping
    return DiagramMap(Y, _render(core.extension), comps)


def representable(C: FiniteCategory, x: str) -> SetDiagram:
    """The presheaf ``hom(-, x)`` as a diagram over ``opposite(C)``."""
    homs = fincat.hom_index(C)
    values = {o: homs.get((o, x), ()) for o in C.objects}
    action = {m: {u: C.compose[(u, m)] for u in values[C.target[m]]}
              for m in C.morphisms}
    return SetDiagram.build(fincat.opposite(C), values, action)


def corepresentable(C: FiniteCategory, x: str) -> SetDiagram:
    """The covariant functor ``hom(x, -)`` as a diagram over ``C``."""
    homs = fincat.hom_index(C)
    values = {o: homs.get((x, o), ()) for o in C.objects}
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

    It runs on codes end to end: each diagram is coded once, the Kan
    extensions come from :func:`_lan_core` and :func:`_ran_core`, a
    restriction is a gather, maps are searched for by
    :func:`~smallcat.coded._maps`, a left transpose gathers ``f`` at
    the slots of the unit's images, and a right transpose looks each family
    up by its components.  No element is named after the diagrams are
    coded; the witnesses name the diagrams by their places in the corpus.
    """
    C, D = iota.domain, iota.codomain
    nb = naturality_budget
    failures: list[str] = []
    checked = 0

    def bijection(side, where, homs, transpose, targets):
        # a transpose is natural iff it is among the maps found
        image = set()
        for f in homs:
            t = transpose(f)
            if t in targets:
                image.add(t)
            else:
                failures.append(f"{side} transpose not natural {where}")
        if len(image) != len(homs):
            failures.append(f"{side} transpose not injective {where}")
        if image != targets:
            failures.append(f"{side} transpose not surjective {where}")

    xs = [_code(X) for X in domain_diagrams]
    ys = [_code(Y) for Y in codomain_diagrams]
    lefts = [_lan_core(iota, X) for X in xs]
    rights = [_ran_core(iota, X) for X in xs]
    rys = [restrict(iota, Y) for Y in ys]
    xsq, ysq, rysq = ([_squares(S) for S in Ss] for Ss in (xs, ys, rys))
    lsq = [_squares(L.extension) for L in lefts]
    xat, yat, ryat = ([_offsets(S) for S in Ss] for Ss in (xs, ys, rys))
    lat = [_offsets(L.extension) for L in lefts]
    # lan_idx[xi][k]: the slot in LX of the unit's image of slot k of X
    lan_idx = []
    for L, at in zip(lefts, lat):
        idx: list[int] = []
        for c in C.objects:
            d = iota.ob_map[c]
            idx += [at[d] + s for s in L.tables[d][c, D.identity[d]]]
        lan_idx.append(idx)
    firsts: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for xi, X in enumerate(xs):
        R = rights[xi]
        families = {}   # the families at d by their components
        for d in D.objects:
            columns = list(R.tables[d].values())
            families[d] = dict(zip(zip(*columns), range(len(
                R.extension.values[d])))) if columns else {(): 0}
        for yi, Y in enumerate(ys):
            checked += 1
            where = f"(X{xi},Y{yi})"
            rY, at = rys[yi], ryat[yi]
            left_homs = list(_maps(lefts[xi].extension, Y, lsq[xi], node_budget))
            firsts[(xi, yi)] = left_homs[:nb]
            gather = lan_idx[xi]
            bijection("lan", where, left_homs,
                      lambda f: tuple(map(f.__getitem__, gather)),
                      set(_maps(X, rY, xsq[xi], node_budget)))
            # the family of y at d reads g at the slots of Y phi y in rY
            ran_idx = [(families[d], [at[c] + Y.action[phi][y]
                                      for phi, c in R.tables[d]])
                       for d in D.objects for y in range(len(Y.values[d]))]
            bijection("ran", where, list(_maps(rY, X, rysq[yi], node_budget)),
                      lambda g: tuple([fams.get(tuple(map(g.__getitem__, idx)))
                                       for fams, idx in ran_idx]),
                      set(_maps(Y, R.extension, ysq[yi], node_budget)))

    # naturality of the lan transposition in both variables: for u: X2 ->
    # X, f: LX -> Y and v: Y -> Y2, the transpose of v.f.lan(u) at slot k
    # of X2 is v at the slot in Y of f[A[k]], and restrict(v) after the
    # transpose of f after u is v at that of f[B[k]]
    ends: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for xi, X in enumerate(xs):
        for xj, X2 in enumerate(xs):
            us = list(islice(_maps(X2, X, xsq[xj], node_budget), nb))
            if not us:
                continue
            src, tgt = lefts[xj], lefts[xi]
            # lan(u) sends the class of item (pair, i) of LX2 to that of
            # (pair, u[i]) of LX, as in lan_map
            plan = []
            for d in D.objects:
                base, into = lat[xj][d], lat[xi][d]
                for pair in src.objects[d].values():
                    first, inj = xat[xj][pair[0]], tgt.tables[d][pair]
                    plan += [(base + s, into, inj, first + i)
                             for i, s in enumerate(src.tables[d][pair])]
            # the slot in X of element 0 of the object of each slot of X2
            x_first = [xat[xi][c] for c in C.objects for _ in X2.values[c]]
            sides = []
            for u in us:
                lu: list = [None] * len(lsq[xj])
                for p, into, inj, k in plan:
                    lu[p] = into + inj[u[k]]
                sides.append(([lu[s] for s in lan_idx[xj]],
                              [lan_idx[xi][b + v] for b, v in zip(x_first, u)]))
            for yi, Y in enumerate(ys):
                # the slot in Y of element 0 of the object of each slot of LX
                y_first = [yat[yi][d] for d in D.objects
                           for _ in tgt.extension.values[d]]
                # per (f, u): the pairs of slots of Y that v must identify
                needs = []
                for f in firsts[(xi, yi)]:
                    fy = [b + v for b, v in zip(y_first, f)]
                    needs += [[(fy[a], fy[b]) for a, b in zip(A, B)
                               if fy[a] != fy[b]] for A, B in sides]
                if not needs:
                    continue
                for yj, Y2 in enumerate(ys):
                    if (yi, yj) not in ends:
                        ends[(yi, yj)] = list(islice(
                            _maps(Y, Y2, ysq[yi], node_budget), nb))
                    vs = ends[(yi, yj)]
                    checked += len(needs) * len(vs)
                    bad = sum(any(v[a] != v[b] for a, b in need)
                              for need in needs for v in vs)
                    failures += ["transpose unnatural "
                                 f"(X{xj}->X{xi},Y{yi}->Y{yj})"] * bad
    return AdjunctionReport(not failures, checked, failures)
