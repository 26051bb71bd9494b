"""Kan extensions of set-valued diagrams and comma categories.

The Kan extensions are the pointwise (co)limits over comma categories,
computed without building those categories, by one coded core per side:
:func:`_lan_core` chases union-find classes over each codomain object
(:func:`~smallcat.fincat.least_members`, which names every quotient),
and :func:`_ran_core` finds the compatible families over the
under-comma objects by the family search behind ``limit``
(:func:`~smallcat.setval._search_families`).  Each takes a diagram
coded once (:class:`~smallcat.coded.CodedDiagram`) and returns a
:class:`CodedKan`: the comma objects, the coded extension and the
injection or projection tables.  The cores name classes and families
only to order them by name.
:func:`lan` and :func:`ran` render the extension of a core, reusing its
names; :func:`lan_unit` and :func:`ran_counit` also read its tables at the
identity comma objects, :func:`lan_transpose` calls :func:`lan_unit`,
:func:`ran_transpose` names families over the comma objects of a right
core, and :func:`lan_map` reads the injection tables of two left cores.
Nothing is cached across calls: codes are built inside a call and dropped
at its return.

A comma object is named by the pair string of its two parts, a comma
morphism by the triple of its morphism and ends, and an item of the left
chase by the pair string of its comma object and element.  Names with
commas in them can make two of these render alike; that raises
:class:`ValueError` instead of merging them.

Every public name here is also reachable as an attribute of
:mod:`smallcat.setval`, where it lived before; only the commands that
compute a Kan extension or a certificate load this module.  The adjunction
certificates, which read the cores directly and never render, live in
:mod:`smallcat.certify`; their old names here (``kan.AdjunctionReport``,
``kan.certify_kan_adjunctions``, ...) still work through the module
``__getattr__``.
"""
from __future__ import annotations

from itertools import chain, repeat

# Timed functions are called via their module: see the package docstring.
from . import fincat, moved
from .fincat import (
    CatFunctor,
    FiniteCategory,
    distinct,
    least_members,
    pair_name,
    record,
)
from .coded import CodedDiagram, _code, _coded_error
from .setval import (
    DiagramMap,
    SetDiagram,
    _family_name,
    _search_families,
    restrict,
)

# Read from smallcat.certify on first access.
__getattr__ = moved(globals(), certify="""
    AdjunctionReport certify_adjunction certify_kan_adjunctions""")


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
    the one at ``(phi, c)``.  The families at each ``d`` are one
    :func:`~smallcat.setval._search_families` under a budget of 2,000,000
    nodes, the search behind :func:`~smallcat.universal.limit`.
    """
    C, D = iota.domain, iota.codomain
    homs = fincat.hom_index(D)
    objects = {d: _comma_objects(iota, homs, d, True) for d in D.objects}
    # slot[d][pair]: the place of the comma object pair in name order, and
    # heads[d] the names in that order; links[d] will hold the constraints
    # on a family at d
    slot, heads, links = {}, {}, {}
    for d, objs in objects.items():
        names = sorted(objs)
        slot[d] = {objs[o]: k for k, o in enumerate(names)}
        heads[d] = [o + "=" for o in names]
        links[d] = []
    for u in C.morphisms:
        c, c2 = C.source[u], C.target[u]
        if u == C.identity[c]:
            continue    # an identity asks each component to be itself
        iu, Xu = iota.mor_map[u], X.action[u]
        for d in D.objects:
            at = slot[d]
            for phi in homs.get((d, iota.ob_map[c]), ()):
                links[d].append((Xu, (at[phi, c],),
                                 at[D.compose[(iu, phi)], c2]))
    values, tables, lookup = {}, {}, {}
    for d in D.objects:
        pairs = list(slot[d])
        ranked = _search_families(heads[d], [X.values[c] for _, c in pairs],
                                  links[d], 2_000_000)
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
