
import itertools
import random

import pytest

from smallcat import (
    certify,
    coded,
    equivalence,
    fincat,
    kan,
    searchcore,
    setval,
    simplicial,
    standard,
)
from smallcat.certify import certify_adjunction
from smallcat.fincat import (
    CatFunctor,
    NaturalTransformation,
    chain_category,
    discrete_category,
    identity_functor,
    group_category,
    cyclic_group,
    parallel_pair,
    walking_arrow,
    walking_iso,
)
from smallcat.kan import lan_map, lan_unit, ran_counit, representable
from smallcat.setval import (
    SetDiagram,
    DiagramMap,
    certify_kan_adjunctions,
    colimit,
    comma_over,
    comma_under,
    coproduct_diagrams,
    corepresentable,
    enumerate_diagram_maps,
    lan,
    limit,
    quotient_diagram,
    ran,
    restrict,
    validate_diagram,
)
from smallcat.standard import terminal_category
from smallcat.universal import (
    connected_components,
    diagram_pushout,
    identity_diagram_map,
    is_iso_diagram_map,
    terminal_objects,
    validate_diagram_map,
)

import kan_oracle as oracle
import setval_oracle
from test_acceptance import tractable_instance


def one_object_diagram(values=("x", "y", "z")):
    C = terminal_category()
    return SetDiagram.build(C, {"pt": values}, {"id_pt": {v: v for v in values}})


def parallel_diagram(f, g, src, tgt):
    C = parallel_pair()
    return SetDiagram.build(
        C,
        {"a": src, "b": tgt},
        {"id_a": {e: e for e in src}, "id_b": {e: e for e in tgt},
         "f": dict(f), "g": dict(g)},
    )


def test_validate_diagram_positive_and_negative():
    X = one_object_diagram()
    assert validate_diagram(X) == []
    bad = SetDiagram.build(X.shape, X.values, {"id_pt": {"x": "y", "y": "y", "z": "z"}})
    assert validate_diagram(bad) != []


def _corrupt_diagram(X: SetDiagram, kind: str, rng) -> SetDiagram | None:
    """``X`` with one seeded single-entry corruption of ``kind``, or None
    when ``X`` has no spot for it."""
    C = X.shape
    values = dict(X.values)
    action = {m: dict(f) for m, f in X.action.items()}
    identities = set(C.identity.values())
    if kind == "missing value set":
        del values[rng.choice(C.objects)]
    elif kind == "missing function":
        del action[rng.choice(C.morphisms)]
    elif kind == "domain mismatch":
        m = rng.choice(C.morphisms)
        if action[m] and rng.random() < 0.5:
            del action[m][rng.choice(sorted(action[m]))]
        else:
            action[m]["?"] = (X.values[C.target[m]] or ("?",))[0]
    else:
        if kind == "escaping value":
            spots = [(m, e, "?") for m in C.morphisms for e in action[m]]
        else:
            # another element of the target, at an identity or not
            spots = [(m, e, v) for m in C.morphisms
                     if (m in identities) == (kind == "identity")
                     for e in action[m] for v in X.values[C.target[m]]
                     if v != action[m][e]]
        if not spots:
            return None
        m, e, v = rng.choice(spots)
        action[m][e] = v
    return SetDiagram(C, values, action)


def test_validate_diagram_matches_the_old_scan_on_corruptions():
    # the same errors in the same order as the validator that built its
    # sets anew for every morphism, on seeded single-entry corruptions
    from smallcat import nabla
    rng = random.Random(20261019)
    diagrams = [nabla.representable_rsset(2, n).diagram for n in range(3)]
    for _ in range(40):
        iota, X, Y = tractable_instance(rng)
        diagrams += [X, Y, lan(iota, X), ran(iota, X)]
    kinds = ("missing value set", "missing function", "domain mismatch",
             "escaping value", "identity", "functoriality")
    flagged = set()
    for X in diagrams:
        assert validate_diagram(X) == setval_oracle.validate_diagram(X) == []
        for kind in kinds:
            bad = _corrupt_diagram(X, kind, rng) if X.shape.objects else None
            if bad is not None:
                errors = validate_diagram(bad)
                assert errors == setval_oracle.validate_diagram(bad), kind
                flagged |= {kind} if errors else set()
    assert flagged == set(kinds)


def test_limit_one_object_shape_is_value_set():
    X = one_object_diagram()
    res = limit(X)
    assert len(res.elements) == 3
    assert sorted(res.projections["pt"].values()) == ["x", "y", "z"]


def test_limit_discrete_shape_is_product():
    C = discrete_category(["p", "q"])
    X = SetDiagram.build(C, {"p": ("a", "b"), "q": ("c", "d", "e")},
                         {"id_p": {"a": "a", "b": "b"},
                          "id_q": {"c": "c", "d": "d", "e": "e"}})
    assert len(limit(X).elements) == 6


def test_limit_empty_shape_is_point():
    X = SetDiagram.build(standard.empty_category(), {}, {})
    assert limit(X).elements == ("()",)
    assert colimit(X).elements == ()


def equalizer_oracle(f, g, src):
    # independent oracle: filter the source set directly
    return sorted(e for e in src if f[e] == g[e])


def test_equalizer_matches_filter_oracle():
    src = ("a", "b", "c")
    f = {"a": "x", "b": "y", "c": "x"}
    g = {"a": "x", "b": "x", "c": "x"}
    X = parallel_diagram(f, g, src, ("x", "y"))
    res = limit(X)
    expected = equalizer_oracle(f, g, src)
    assert expected == ["a", "c"]
    assert len(res.elements) == len(expected)
    assert sorted(res.projections["a"][e] for e in res.elements) == expected


def test_colimit_one_object_shape_is_value_set():
    X = one_object_diagram()
    res = colimit(X)
    assert len(res.elements) == 3


def test_colimit_terminal_shape_object():
    # shape with terminal object: colimit is the value there
    C = walking_arrow()
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p", "q", "r")},
        {"id_a": {"u": "u", "v": "v"},
         "id_b": {e: e for e in ("p", "q", "r")},
         "f": {"u": "p", "v": "p"}})
    assert validate_diagram(X) == []
    res = colimit(X)
    assert len(res.elements) == 3
    assert len(set(res.injections["b"].values())) == 3


class UnionFind:
    # independent oracle implementation (path compression only)
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def test_coequalizer_matches_union_find_oracle():
    src = ("a", "b", "c")
    tgt = ("x", "y", "z", "w")
    f = {"a": "x", "b": "y", "c": "z"}
    g = {"a": "y", "b": "y", "c": "w"}
    X = parallel_diagram(f, g, src, tgt)
    res = colimit(X)

    uf = UnionFind()
    for e in src:
        uf.union(f[e], g[e])
    oracle_classes = {tuple(sorted(t for t in tgt if uf.find(t) == uf.find(s)))
                      for s in tgt}
    got_classes = {tuple(sorted(t for t in tgt
                                if res.injections["b"][t] == res.injections["b"][s]))
                   for s in tgt}
    assert got_classes == oracle_classes
    assert len(res.elements) == len(oracle_classes)


def test_colimit_class_names_are_min_tags():
    X = one_object_diagram(("m", "a", "z"))
    res = colimit(X)
    assert res.elements == ("(pt,a)", "(pt,m)", "(pt,z)")


def test_comma_identity_functor_is_slice():
    C = chain_category(2)
    K = comma_over(identity_functor(C), "2")
    assert fincat.validate_category(K.category) == []
    assert fincat.validate_functor(K.projection) == []
    # objects = arrows into 2
    assert len(K.category.objects) == sum(len(C.hom(x, "2")) for x in C.objects)


def test_comma_fully_faithful_has_terminal_identity():
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    assert fincat.validate_functor(iota) == []
    K = comma_over(iota, iota.ob_map["b"])
    terms = terminal_objects(K.category)
    assert terms == [fincat.pair_name("b", "id_1")]
    K2 = comma_under(iota.ob_map["a"], iota)
    # initial object of d | iota = terminal in the opposite
    inits = terminal_objects(fincat.opposite(K2.category))
    assert inits == [fincat.pair_name("id_0", "a")]


def test_restrict_identity_and_composition():
    C = walking_arrow()
    Y = SetDiagram.build(
        C, {"a": ("u",), "b": ("p", "q")},
        {"id_a": {"u": "u"}, "id_b": {"p": "p", "q": "q"}, "f": {"u": "q"}})
    assert restrict(identity_functor(C), Y) == Y
    pt = terminal_category()
    j = CatFunctor(pt, C, {"pt": "a"}, {"id_pt": "id_a"})
    jj = CatFunctor(pt, pt, {"pt": "pt"}, {"id_pt": "id_pt"})
    assert restrict(jj, restrict(j, Y)) == restrict(fincat.compose_functors(j, jj), Y)


def test_lan_along_identity_is_isomorphic():
    C = walking_arrow()
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    L = lan(identity_functor(C), X)
    assert validate_diagram(L) == []
    unit = lan_unit(identity_functor(C), X)
    assert validate_diagram_map(unit) == []
    assert is_iso_diagram_map(unit)


def test_lan_fully_faithful_restricts_to_identity():
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    unit = lan_unit(iota, X)
    assert validate_diagram_map(unit) == []
    assert is_iso_diagram_map(unit)
    counit = ran_counit(iota, X)
    assert validate_diagram_map(counit) == []
    assert is_iso_diagram_map(counit)


def test_lan_to_terminal_is_colimit():
    C = parallel_pair()
    X = parallel_diagram({"a": "x", "b": "y", "c": "z"},
                         {"a": "y", "b": "y", "c": "w"},
                         ("a", "b", "c"), ("x", "y", "z", "w"))
    bang = CatFunctor(C, terminal_category(),
                      {"a": "pt", "b": "pt"},
                      {m: "id_pt" for m in C.morphisms})
    assert fincat.validate_functor(bang) == []
    L = lan(bang, X)
    assert len(L.values["pt"]) == len(colimit(X).elements)


def test_lan_and_ran_outputs_validate():
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "2"},
                      {"id_a": "id_0", "id_b": "id_2", "f": "le_0_2"})
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p", "q")},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p", "q": "q"},
         "f": {"u": "p", "v": "q"}})
    for Z in (lan(iota, X), ran(iota, X)):
        assert validate_diagram(Z) == []


def test_representables_validate():
    for C in (walking_arrow(), chain_category(2), walking_iso()):
        for x in C.objects:
            assert validate_diagram(representable(C, x)) == []
            assert validate_diagram(corepresentable(C, x)) == []


def test_coproduct_quotient_pushout():
    X = one_object_diagram(("x", "y"))
    Y = one_object_diagram(("z",))
    total, (ix, iy) = coproduct_diagrams([X, Y])
    assert validate_diagram(total) == []
    assert total.total_elements() == 3
    Q, proj = quotient_diagram(
        total, [("pt", ix.components["pt"]["x"], iy.components["pt"]["z"])])
    assert validate_diagram(Q) == []
    assert Q.total_elements() == 2
    # pushout of one-point overlap glues exactly one pair
    A = one_object_diagram(("s",))
    f = DiagramMap(A, X, {"pt": {"s": "x"}})
    g = DiagramMap(A, Y, {"pt": {"s": "z"}})
    P, px, py = diagram_pushout(f, g)
    assert validate_diagram(P) == []
    assert P.total_elements() == 2
    assert validate_diagram_map(px) == []
    assert validate_diagram_map(py) == []


def test_enumerate_diagram_maps_counts():
    X = one_object_diagram(("x", "y"))
    Y = one_object_diagram(("p", "q", "r"))
    assert len(enumerate_diagram_maps(X, Y)) == 9
    C = walking_arrow()
    Z = SetDiagram.build(
        C, {"a": ("u",), "b": ("p", "q")},
        {"id_a": {"u": "u"}, "id_b": {"p": "p", "q": "q"}, "f": {"u": "q"}})
    maps = enumerate_diagram_maps(Z, Z)
    for h in maps:
        assert validate_diagram_map(h) == []
    # component at a forced to u; component at b must fix q
    assert len(maps) == 2


def test_certify_identity_adjunction():
    C = walking_iso()
    idc = identity_functor(C)
    unit = NaturalTransformation(idc, idc, {x: C.identity[x] for x in C.objects})
    counit = NaturalTransformation(idc, idc, {x: C.identity[x] for x in C.objects})
    rep = certify_adjunction(idc, idc, unit, counit)
    assert rep.ok


def test_certify_adjunction_corrupted_unit_names_component():
    G = group_category(cyclic_group(2))
    idg = identity_functor(G)
    ident = {x: G.identity[x] for x in G.objects}
    good = certify_adjunction(idg, idg,
                              NaturalTransformation(idg, idg, dict(ident)),
                              NaturalTransformation(idg, idg, dict(ident)))
    assert good.ok
    bad_unit = NaturalTransformation(idg, idg, {"*": "g1"})
    rep = certify_adjunction(idg, idg, bad_unit,
                             NaturalTransformation(idg, idg, dict(ident)))
    assert not rep.ok
    assert any("*" in msg for msg in rep.failures)


def test_certify_kan_adjunctions_on_small_instance():
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    X2 = SetDiagram.build(
        C, {"a": ("s",), "b": ("t",)},
        {"id_a": {"s": "s"}, "id_b": {"t": "t"}, "f": {"s": "t"}})
    Y = SetDiagram.build(
        D, {"0": ("e",), "1": ("h", "k"), "2": ("w",)},
        {"id_0": {"e": "e"}, "id_1": {"h": "h", "k": "k"}, "id_2": {"w": "w"},
         "le_0_1": {"e": "k"}, "le_1_2": {"h": "w", "k": "w"},
         "le_0_2": {"e": "w"}})
    assert validate_diagram(Y) == []
    rep = certify_kan_adjunctions(iota, [X, X2], [Y])
    assert rep.ok, rep.failures


def test_validate_diagram_names_an_element_listed_twice():
    X = SetDiagram.build(terminal_category(), {"pt": ("y", "x", "y", "x")},
                         {"id_pt": {"x": "x", "y": "y"}})
    assert X.values["pt"] == ("x", "x", "y", "y")
    assert validate_diagram(X) == ["object pt: element x listed twice"]


def test_lan_map_functorial():
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    h = DiagramMap(X, X, {"a": {"u": "v", "v": "u"}, "b": {"p": "p"}})
    assert validate_diagram_map(h) == []
    lh = lan_map(iota, h)
    assert validate_diagram_map(lh) == []
    lid = lan_map(iota, identity_diagram_map(X))
    assert lid.key() == identity_diagram_map(lan(iota, X)).key()


def test_connected_components():
    C = equivalence.coproduct(walking_arrow(), walking_iso())
    comps = connected_components(C)
    assert len(comps) == 2


def test_limit_universal_property_small_cones():
    # every cone from a test set of size <= 3 factors uniquely through the
    # computed limit
    import itertools
    src = ("a", "b", "c")
    f = {"a": "x", "b": "y", "c": "x"}
    g = {"a": "x", "b": "x", "c": "x"}
    X = parallel_diagram(f, g, src, ("x", "y"))
    res = limit(X)
    shape = X.shape
    for size in (1, 2, 3):
        T = [f"t{i}" for i in range(size)]
        legs_a = list(itertools.product(X.values["a"], repeat=size))
        legs_b = list(itertools.product(X.values["b"], repeat=size))
        for la in legs_a:
            for lb in legs_b:
                cone_a = dict(zip(T, la))
                cone_b = dict(zip(T, lb))
                commutes = all(
                    X.action[m][cone_a[t]] == cone_b[t]
                    for m in ("f", "g") for t in T)
                if not commutes:
                    continue
                # factorization: each t picks the compatible family with
                # the right projections; it must exist and be unique
                for t in T:
                    hits = [e for e in res.elements
                            if res.projections["a"][e] == cone_a[t]
                            and res.projections["b"][e] == cone_b[t]]
                    assert len(hits) == 1


def random_small_diagram(rng):
    from smallcat.fincat import chain_category
    shapes = [parallel_pair(), walking_arrow(), discrete_category("pq"),
              chain_category(2), terminal_category()]
    C = rng.choice(shapes)
    total, _ = coproduct_diagrams(
        [corepresentable(C, rng.choice(sorted(C.objects)))
         for _ in range(rng.randint(1, 2))])
    pairs = []
    for _ in range(rng.randint(0, 3)):
        o = rng.choice(sorted(C.objects))
        if len(total.values[o]) >= 2:
            a, b = rng.sample(sorted(total.values[o]), 2)
            pairs.append((o, a, b))
    Q, _ = quotient_diagram(total, pairs)
    return Q


def colimit_union_find_oracle(X):
    # independent union-find over tagged elements
    uf = UnionFind()
    tags = [(o, e) for o in X.shape.objects for e in X.values[o]]
    for o, e in tags:
        uf.find((o, e))
    for m in X.shape.morphisms:
        src, tgt = X.shape.source[m], X.shape.target[m]
        for e in X.values[src]:
            uf.union((src, e), (tgt, X.action[m][e]))
    return {frozenset(t for t in tags if uf.find(t) == uf.find(s))
            for s in tags}


def limit_filter_oracle(X):
    # independent filter over raw tuples, no early pruning
    import itertools
    obs = sorted(X.shape.objects)
    count = 0
    for combo in itertools.product(*(X.values[o] for o in obs)):
        fam = dict(zip(obs, combo))
        if all(X.action[m][fam[X.shape.source[m]]] == fam[X.shape.target[m]]
               for m in X.shape.morphisms):
            count += 1
    return count


def test_colimit_and_limit_agree_with_oracles_on_random_sweep():
    import random
    rng = random.Random(424242)
    for _ in range(40):
        X = random_small_diagram(rng)
        assert X.total_elements() <= 20
        res = colimit(X)
        oracle = colimit_union_find_oracle(X)
        got = {}
        for o in X.shape.objects:
            for e in X.values[o]:
                got.setdefault(res.injections[o][e], set()).add((o, e))
        assert {frozenset(v) for v in got.values()} == oracle
        assert len(limit(X).elements) == limit_filter_oracle(X)
        assert repr(limit(X)) == repr(product_filter_limit(X))



def _arrow_into_chain():
    """The inclusion of the walking arrow into the 3-chain, two diagrams on
    the arrow and one on the chain."""
    C, D = walking_arrow(), chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    X2 = SetDiagram.build(
        C, {"a": ("s",), "b": ("t",)},
        {"id_a": {"s": "s"}, "id_b": {"t": "t"}, "f": {"s": "t"}})
    Y = SetDiagram.build(
        D, {"0": ("e",), "1": ("h", "k"), "2": ("w",)},
        {"id_0": {"e": "e"}, "id_1": {"h": "h", "k": "k"}, "id_2": {"w": "w"},
         "le_0_1": {"e": "k"}, "le_1_2": {"h": "w", "k": "w"},
         "le_0_2": {"e": "w"}})
    return iota, X, X2, Y


def _same_map(new: DiagramMap, old: DiagramMap) -> None:
    assert new == old
    assert new.key() == old.key()


def product_filter_limit(X, budget=2_000_000):
    """:func:`limit` as it was before the comma-free right Kan extension:
    every tuple of the product, filtered."""
    C = X.shape
    obs = list(C.objects)
    if not obs:
        return setval.LimitResult(("()",), {})
    size = 1
    for o in obs:
        size *= max(len(X.values[o]), 1)
        if size > budget:
            raise fincat.BudgetError("limit product exceeds budget")
    families = []
    for combo in itertools.product(*(X.values[o] for o in obs)):
        fam = dict(zip(obs, combo))
        if all(X.action[m][fam[C.source[m]]] == fam[C.target[m]]
               for m in C.morphisms):
            families.append(fam)
    names = sorted(setval._family_name(f) for f in families)
    projections = {o: {} for o in obs}
    for fam in families:
        n = setval._family_name(fam)
        for o in obs:
            projections[o][n] = fam[o]
    return setval.LimitResult(tuple(names), projections)


def _check_records(iota, X):
    """The comma objects and the injection and projection tables of the
    Kan cores against comma categories built by
    :func:`comma_over`/:func:`comma_under` and their (co)limits, with each
    table read as the (co)limit it stands for; ``repr`` checks the order of
    every dict too."""
    left = kan._lan_core(iota, coded._code(X))
    right = kan._ran_core(iota, coded._code(X))
    for d in iota.codomain.objects:
        K, U = comma_over(iota, d), comma_under(d, iota)
        assert repr(left.objects[d]) == repr(K.object_data)
        assert repr(right.objects[d]) == repr(U.object_data)
        objs, tables = left.objects[d], left.tables[d]
        names = left.extension.values[d]
        colim = setval.ColimitResult(names, {
            o: dict(zip(X.values[objs[o][0]],
                        map(names.__getitem__, tables[objs[o]])))
            for o in sorted(objs)})
        assert repr(colim) == repr(colimit(restrict(K.projection, X)))
        objs, tables = right.objects[d], right.tables[d]
        names = right.extension.values[d]
        # the families in search order: by their tuples of component codes
        codes = list(zip(*tables.values())) if tables else [()]
        found = sorted(range(len(codes)), key=codes.__getitem__)
        lim = setval.LimitResult(names, {
            o: {names[f]: X.values[objs[o][1]][tables[objs[o]][f]]
                for f in found}
            for o in sorted(objs)})
        assert repr(lim) == \
            repr(product_filter_limit(restrict(U.projection, X)))


def _outcome(build, *args) -> str:
    """The ``repr`` of ``build(*args)``, or of the budget error it raises."""
    try:
        return repr(build(*args))
    except fincat.BudgetError as exc:
        return repr(exc)


def _check_rendered_records(iota, X):
    """The extensions, the unit and the counit rendered from the coded cores
    against the records of the name-level builders they replaced, by
    ``repr``: every name and every dict order."""
    for new, old in ((lan, lambda *a: oracle.left_kan(*a).extension),
                     (lan_unit, lambda *a: oracle.left_kan(*a).unit),
                     (ran, lambda *a: oracle.right_kan(*a).extension),
                     (ran_counit, lambda *a: oracle.right_kan(*a).counit)):
        assert _outcome(new, iota, X) == _outcome(old, iota, X)


def _check_against_oracle(iota, X, Y, certify_args):
    """Compare every Kan function with its recomputing copy in
    ``kan_oracle``; returns the certification report."""
    _check_records(iota, X)
    _check_rendered_records(iota, X)
    assert lan(iota, X) == oracle.lan(iota, X)
    assert ran(iota, X) == oracle.ran(iota, X)
    unit, counit = lan_unit(iota, X), ran_counit(iota, X)
    _same_map(unit, oracle.lan_unit(iota, X))
    _same_map(counit, oracle.ran_counit(iota, X))
    # the unit and the counit join two different diagrams, so lan_map
    # builds two different cores
    for h in (unit, counit, identity_diagram_map(X)):
        _same_map(lan_map(iota, h), oracle.lan_map(iota, h))
    for f in enumerate_diagram_maps(lan(iota, X), Y)[:3]:
        _same_map(setval.lan_transpose(iota, X, Y, f),
                  oracle.lan_transpose(iota, X, Y, f))
    for g in enumerate_diagram_maps(restrict(iota, Y), X)[:3]:
        _same_map(setval.ran_transpose(iota, Y, X, g),
                  oracle.ran_transpose(iota, Y, X, g))
    new = certify_kan_adjunctions(iota, *certify_args)
    for old in (oracle.certify_kan_adjunctions(iota, *certify_args),
                oracle.certify_on_records(iota, *certify_args)):
        assert (new.ok, new.checked, new.failures) == \
            (old.ok, old.checked, old.failures)
    return new


def test_kan_records_match_recomputing_oracle():
    rng = random.Random(20260809)
    for _ in range(300):
        iota, X, Y = tractable_instance(rng)
        _check_against_oracle(iota, X, Y, ([X], [Y], 2))


def _end_formula(iota, X):
    """The size of ``Ran_iota X`` at each object ``d`` by the end formula
    ``Ran_iota X(d) = Nat(D(d, iota -), X)`` (Mac Lane, *Categories for the
    Working Mathematician*, X.4): the number of diagram maps from the
    restricted corepresentable to ``X``.  No limit is computed."""
    D = iota.codomain
    return {d: len(enumerate_diagram_maps(
        restrict(iota, corepresentable(D, d)), X)) for d in D.objects}


def test_ran_sizes_match_the_end_formula():
    rng = random.Random(20260809)
    for _ in range(300):
        iota, X, _ = tractable_instance(rng)
        RX = ran(iota, X)
        assert {d: len(v) for d, v in RX.values.items()} == \
            _end_formula(iota, X)


def test_kan_records_match_oracle_on_two_domain_diagrams():
    iota, X, X2, Y = _arrow_into_chain()
    rep = _check_against_oracle(
        iota, X, Y, ([X, X2], [Y, corepresentable(iota.codomain, "0")]))
    assert rep.ok and rep.checked > 4  # the naturality checks ran


def test_kan_records_keep_the_comma_order_when_names_sort_apart():
    # "x#" sorts before "x" inside a pair name but after it on its own, so
    # comma objects, families and classes sort differently from the order
    # the objects and elements are listed in
    C = discrete_category(["x", "x#"])
    pt = terminal_category()
    iota = CatFunctor(C, pt, {"x": "pt", "x#": "pt"},
                      {"id_x": "id_pt", "id_x#": "id_pt"})
    X = SetDiagram.build(C, {"x": ("v", "v#"), "x#": ("w",)},
                         {"id_x": {"v": "v", "v#": "v#"}, "id_x#": {"w": "w"}})
    Y = SetDiagram.build(pt, {"pt": ("y", "y#")},
                         {"id_pt": {"y": "y", "y#": "y#"}})
    under = kan._ran_core(iota, coded._code(X)).objects["pt"]
    assert list(under) == ["(id_pt,x)", "(id_pt,x#)"]
    assert sorted(under) == ["(id_pt,x#)", "(id_pt,x)"]
    _check_against_oracle(iota, X, Y, ([X], [Y], 2))


def test_rendered_records_match_the_named_builders_on_the_cofibrations():
    # the six diagrams of generating_cofibrations(2): each boundary and
    # simplex presheaf, extended along the opposite of the inclusion of the
    # simplex category into the signed one
    from smallcat import nabla
    iota_op = fincat.opposite_functor(
        nabla.inclusion_iota(nabla.nabla_category(2)))
    # the right extensions of dimensions 1 and 2 have products of up to
    # 2.7e11 families under [2], yet each search fits its node budget
    sizes = []
    for n in range(3):
        inc = simplicial.boundary_inclusion_sset(2, n)
        for X in (inc.source, inc.target):
            _check_rendered_records(iota_op, X)
            RX, counit = ran(iota_op, X), ran_counit(iota_op, X)
            assert counit.target == X and validate_diagram_map(counit) == []
            sizes.append([len(RX.values[d]) for d in RX.shape.objects])
            assert sizes[-1] == list(_end_formula(iota_op, X).values())
        # the maps generating_cofibrations(2) takes from lan_map
        _same_map(lan_map(iota_op, inc), oracle.lan_map(iota_op, inc))
    # at [0], [1] and [2]: the boundary and the simplex of dimension 2
    assert sizes[4:] == [[9, 36, 81], [9, 36, 100]]


def test_certify_builds_each_kan_extension_once(monkeypatch):
    # one core per domain diagram and side, no rendered extension and no
    # comma category
    calls = dict.fromkeys(("_lan_core", "_ran_core", "_render", "comma_over",
                           "comma_under"), 0)
    for name in calls:
        original = getattr(kan, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        # the certifier reads the cores from its own module
        for module in (kan, certify):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted)
    iota, X, X2, Y = _arrow_into_chain()
    rep = certify_kan_adjunctions(iota, [X, X2], [Y])
    assert rep.ok and rep.checked > 2  # the naturality checks ran
    assert calls == {"_lan_core": 2, "_ran_core": 2, "_render": 0,
                     "comma_over": 0, "comma_under": 0}


def _rotated(table: tuple) -> tuple:
    """``table`` with its entries moved one place on."""
    return table[1:] + table[:1]


def _with_tables(core, d, pair, table):
    return kan.CodedKan(core.objects, core.extension,
                        {**core.tables, d: {**core.tables[d], pair: table}})


def _permute_unit(L, rng):
    # the unit is the injection at (c,id), so lan_map and the colimits
    # read the permuted component too
    D = L.extension.shape
    spots = [(d, pair) for d in D.objects for pair in L.tables[d]
             if pair[1] == D.identity[d] and len(set(L.tables[d][pair])) > 1]
    if not spots:
        return None
    d, pair = rng.choice(spots)
    return _with_tables(L, d, pair, _rotated(L.tables[d][pair]))


def _swap_injection(L, rng):
    spots = [(d, pair) for d in L.tables for pair, inj in L.tables[d].items()
             if len(set(inj)) > 1]
    if not spots:
        return None
    d, pair = rng.choice(spots)
    inj = list(L.tables[d][pair])
    a, b = rng.sample(range(len(inj)), 2)
    while inj[a] == inj[b]:
        a, b = rng.sample(range(len(inj)), 2)
    inj[a], inj[b] = inj[b], inj[a]
    return _with_tables(L, d, pair, tuple(inj))


def _drop_family(R, rng):
    # from the limit and from the extension alike, as if never found; maps
    # into it go to the first family kept
    E = R.extension
    ds = [d for d, fams in E.values.items() if len(fams) > 1]
    if not ds:
        return None
    d = rng.choice(ds)
    j = rng.randrange(len(E.values[d]))
    keep = [k for k in range(len(E.values[d])) if k != j]
    code = {k: i for i, k in enumerate(keep)}
    code[j] = 0
    action = {}
    for m, table in E.action.items():
        if E.shape.source[m] == d:
            table = tuple(table[k] for k in keep)
        if E.shape.target[m] == d:
            table = tuple(code[t] for t in table)
        action[m] = table
    values = {**E.values, d: tuple(E.values[d][k] for k in keep)}
    tables = {**R.tables, d: {pair: tuple(col[k] for k in keep)
                              for pair, col in R.tables[d].items()}}
    return kan.CodedKan(R.objects,
                        coded.CodedDiagram(E.shape, values, action), tables)


def _permute_extension_action(R, rng):
    E = R.extension
    ms = [m for m in E.shape.morphisms if len(set(E.action[m])) > 1]
    if not ms:
        return None
    m = rng.choice(ms)
    extension = coded.CodedDiagram(E.shape, E.values,
                                   {**E.action, m: _rotated(E.action[m])})
    return kan.CodedKan(R.objects, extension, R.tables)


def _permute_counit(R, rng):
    # the counit is the projection at (id,c), so the limits read the
    # permuted column too
    D = R.extension.shape
    spots = [(d, pair) for d in D.objects for pair in R.tables[d]
             if pair[0] == D.identity[d] and len(set(R.tables[d][pair])) > 1]
    if not spots:
        return None
    d, pair = rng.choice(spots)
    return _with_tables(R, d, pair, _rotated(R.tables[d][pair]))


def _ran_transpose_by_projections(iota, Y, X, g):
    """:func:`~smallcat.kan.ran_transpose` finding each family by its
    projections, as the coded certifier does, not by its name: a tuple of
    components that two families share goes to the later one, and one
    that no family has to ``None``, which no extension holds."""
    R = kan._ran_core(iota, coded._code(X))
    RX = kan._render(R.extension)
    comps = {}
    for d, objs in R.objects.items():
        tables = R.tables[d]
        family = {tuple(X.values[c][tables[phi, c][f]]
                        for phi, c in objs.values()): name
                  for f, name in enumerate(RX.values[d])}
        comps[d] = {y: family.get(tuple(g.components[c][Y.action[phi][y]]
                                        for phi, c in objs.values()))
                    for y in Y.values[d]}
    return DiagramMap(Y, RX, comps)


# corruption: (core it corrupts, corrupt, whether the record-based
# certifier must read the projections to see it).  A unit gather has one
# entry per element, so a unit defined on an extra element has no coded
# form; the record-based certifier finds a family by its name and never
# reads the projections, the counit among them.
CORRUPTIONS = {
    "permuted unit component": ("_lan_core", _permute_unit, False),
    "permuted counit component": ("_ran_core", _permute_counit, True),
    "swapped colimit injection": ("_lan_core", _swap_injection, False),
    "dropped limit family": ("_ran_core", _drop_family, False),
    "permuted right Kan action": ("_ran_core", _permute_extension_action,
                                  False),
}


def _certify_with_corrupted_core(monkeypatch, corruption, rng, iota,
                                 domain, codomain):
    """Both certifiers' ``(ok, checked, failures)`` when the Kan core of
    ``domain[0]`` carries one corruption, or None when it has no spot for
    it; the cores of the other domain diagrams stay sound.  The coded
    certifier reads the core, the record-based one the extensions and
    maps rendered from it."""
    which, corrupt, by_projections = CORRUPTIONS[corruption]
    build = getattr(kan, which)
    bad = corrupt(build(iota, coded._code(domain[0])), rng)
    if bad is None:
        return None
    # the certifier reads the cores from its own module, the oracle from kan
    for module in (kan, certify):
        monkeypatch.setattr(module, which, lambda iota, X: bad
                            if X.values is domain[0].values else build(iota, X))
    if by_projections:
        monkeypatch.setattr(kan, "ran_transpose", _ran_transpose_by_projections)
    try:
        reports = [run(iota, domain, codomain, 2) for run in
                   (certify_kan_adjunctions, oracle.certify_on_records)]
    finally:
        monkeypatch.undo()
    return [(rep.ok, rep.checked, rep.failures) for rep in reports]


def test_certify_matches_record_oracle_on_corrupted_records(monkeypatch):
    # every failure branch of the coded certifier against the record-based
    # one it replaced; a sound corpus never reaches them
    rng = random.Random(20261018)
    iota, X, X2, Y = _arrow_into_chain()
    cases = [(iota, [X, X2], [Y, corepresentable(iota.codomain, "0")])]
    for _ in range(150):
        iota, X, Y = tractable_instance(rng)
        cases.append((iota, [X], [Y]))
    reached = {corruption: set() for corruption in CORRUPTIONS}
    for case in cases:
        for corruption in CORRUPTIONS:
            out = _certify_with_corrupted_core(monkeypatch, corruption,
                                               rng, *case)
            if out is not None:
                new, old = out
                assert new == old, (corruption, case)
                reached[corruption] |= {msg.split(" (")[0] for msg in new[2]}
    assert set().union(*reached.values()) == {
        f"{side} transpose not {what}" for side in ("lan", "ran")
        for what in ("natural", "injective", "surjective")
    } | {"transpose unnatural"}
    # each corruption is caught somewhere
    assert all(reached.values()), reached


def test_certify_samples_only_a_prefix_of_each_end_set():
    # End(X) has 6^6 maps, far over the node budget, but its first two are
    # found in 13 nodes and every hom-set of the bijection checks has at
    # most six maps
    pt = terminal_category()
    iota = identity_functor(pt)
    X = one_object_diagram(tuple("abcdef"))
    Y = one_object_diagram(("y",))
    args = (iota, [X], [Y], 2, 1000)
    for old in (oracle.certify_kan_adjunctions, oracle.certify_on_records):
        with pytest.raises(fincat.BudgetError,
                           match="^diagram map search exceeded budget$"):
            old(*args)
    rep = certify_kan_adjunctions(*args)
    # one bijection pair, then u in the first two of End(X), f the only
    # map lan X -> Y and v the only map Y -> Y
    assert (rep.ok, rep.checked, rep.failures) == (True, 3, [])
    assert certify_kan_adjunctions(iota, [X], [Y], 2) == \
        oracle.certify_on_records(iota, [X], [Y], 2)


def test_wide_right_kan_exceeds_the_limit_budget_on_both_paths():
    # seven objects of nine elements over the point: a product of 9^7, no
    # constraint, so ran and the oracle search their 2,000,000 nodes before
    # they raise, and the old product-filter limit refuses at once
    C = discrete_category([f"c{k}" for k in range(7)])
    pt = terminal_category()
    iota = CatFunctor(C, pt, {c: "pt" for c in C.objects},
                      {m: "id_pt" for m in C.morphisms})
    nine = [str(k) for k in range(9)]
    X = SetDiagram.build(C, {c: nine for c in C.objects},
                         {C.identity[c]: {e: e for e in nine}
                          for c in C.objects})
    for build in (ran, oracle.ran, lambda iota, X: product_filter_limit(
            restrict(comma_under("pt", iota).projection, X))):
        with pytest.raises(fincat.BudgetError,
                           match="^limit product exceeds budget$"):
            build(iota, X)


def test_colimit_rejects_two_elements_with_one_tag():
    # (a,,b) renders both ("a,", "b") and ("a", ",b")
    C = discrete_category(["a,", "a"])
    X = SetDiagram.build(C, {"a,": ("b",), "a": (",b",)},
                         {"id_a,": {"b": "b"}, "id_a": {",b": ",b"}})
    with pytest.raises(ValueError, match=r"tag \(a,,b\) names two elements"):
        colimit(X)


@pytest.fixture
def oracle_limit(monkeypatch):
    """``kan_oracle.limit``, the name-level family search, returning the
    limit of a diagram and the number of nodes its search tried."""
    budgets = []

    def recording(limit, message):
        budgets.append(searchcore.NodeBudget(limit, message))
        return budgets[-1]
    monkeypatch.setattr(oracle, "NodeBudget", recording)

    def run(X):
        old = oracle.limit(X)
        return old, 2_000_000 - budgets[-1].left
    return run


def _check_limit(X, oracle_limit):
    """``limit(X)`` equals the oracle's up to ``repr`` under the oracle's
    node count, and one node fewer raises the oracle's message."""
    old, nodes = oracle_limit(X)
    new = limit(X, nodes)
    assert new == old and repr(new) == repr(old)
    if nodes:
        with pytest.raises(fincat.BudgetError,
                           match="^limit product exceeds budget$") as err:
            limit(X, nodes - 1)
        assert (err.value.kind, err.value.limit, err.value.reached) == \
            ("limit_families", nodes - 1, nodes)


def test_limit_matches_the_name_level_family_search(oracle_limit):
    rng = random.Random(20260809)
    for _ in range(300):
        iota, X, Y = tractable_instance(rng)
        _check_limit(X, oracle_limit)
        _check_limit(Y, oracle_limit)
        for d in iota.codomain.objects:
            _check_limit(restrict(comma_under(d, iota).projection, X),
                         oracle_limit)


def test_limit_projections_list_the_families_in_search_order(oracle_limit):
    # (o=a!,p=b) sorts before (o=a,p=b), but the search tries a before a!
    C = discrete_category(["o", "p"])
    X = SetDiagram.build(C, {"o": ("a", "a!"), "p": ("b",)},
                         {"id_o": {"a": "a", "a!": "a!"}, "id_p": {"b": "b"}})
    _check_limit(X, oracle_limit)
    assert limit(X).elements == ("(o=a!,p=b)", "(o=a,p=b)")
    assert list(limit(X).projections["o"]) == ["(o=a,p=b)", "(o=a!,p=b)"]


def test_limit_matches_the_name_level_family_search_on_the_cofibrations(
        oracle_limit):
    # the limits behind the right extensions of generating_cofibrations(2)
    from smallcat import nabla
    iota_op = fincat.opposite_functor(
        nabla.inclusion_iota(nabla.nabla_category(2)))
    for n in range(3):
        inc = simplicial.boundary_inclusion_sset(2, n)
        for X in (inc.source, inc.target):
            for d in iota_op.codomain.objects:
                _check_limit(restrict(comma_under(d, iota_op).projection, X),
                             oracle_limit)


def test_limit_budget_counts_search_nodes_not_the_product():
    # an arrow a -> b acting as a constant: with 1414 elements at each end
    # the product, 1,999,396, is under the old bound of 2,000,000, but every
    # component at b is tried under each one at a, 1414 + 1414^2 =
    # 2,000,810 nodes, so the limit is now refused
    C = walking_arrow()

    def arrow(na, nb):
        a, b = [f"a{k}" for k in range(na)], [f"b{k}" for k in range(nb)]
        return SetDiagram.build(C, {"a": a, "b": b},
                                {"id_a": {e: e for e in a},
                                 "id_b": {e: e for e in b},
                                 "f": dict.fromkeys(a, "b0")})

    assert 1414 ** 2 <= 2_000_000
    with pytest.raises(fincat.BudgetError,
                       match="^limit product exceeds budget$"):
        limit(arrow(1414, 1414))
    # a budget of exactly the nodes a search tries is enough: 10 + 10 * 20
    X = arrow(10, 20)
    assert len(limit(X, 210).elements) == 10
    with pytest.raises(fincat.BudgetError,
                       match="^limit product exceeds budget$"):
        limit(X, 209)


def test_limit_rejects_two_families_with_one_name():
    # a = "x,b=y" with b = "z", and a = "x" with b = "y,b=z", both render
    # as (a=x,b=y,b=z)
    C = discrete_category(["a", "b"])
    X = SetDiagram.build(C, {"a": ("x,b=y", "x"), "b": ("z", "y,b=z")},
                         {"id_a": {"x,b=y": "x,b=y", "x": "x"},
                          "id_b": {"z": "z", "y,b=z": "y,b=z"}})
    with pytest.raises(ValueError,
                       match=r"identifier \(a=x,b=y,b=z\) names two families"):
        limit(X)


TWICE = SetDiagram(discrete_category(["o"]), {"o": ("a", "a")},
                  {"id_o": {"a": "a"}})


@pytest.mark.parametrize("run", [
    limit,
    lambda X: kan.lan(identity_functor(X.shape), X),
    lambda X: kan.ran(identity_functor(X.shape), X),
    lambda X: enumerate_diagram_maps(X, X),
    lambda X: enumerate_diagram_maps(kan.representable(X.shape, "o"), X),
], ids=["limit", "lan", "ran", "maps", "maps into"])
def test_every_coded_path_rejects_an_element_listed_twice(run):
    # the coded diagram used to send a repeated element to its last
    # position, so these answered as if it were listed once
    with pytest.raises(ValueError, match="^object o: element a listed twice$"):
        run(TWICE)


def test_code_names_the_first_element_listed_twice():
    # the repeated element, not the first one listed
    X = SetDiagram(discrete_category(["o"]), {"o": ("b", "a", "a")},
                   {"id_o": {"b": "b", "a": "a"}})
    with pytest.raises(ValueError, match="^object o: element a listed twice$"):
        coded._code(X)


def test_the_map_search_refuses_diagrams_over_different_shapes():
    def one_point(o):
        return coded._code(SetDiagram.build(
            discrete_category([o]), {o: ("e",)}, {f"id_{o}": {"e": "e"}}))
    X = one_point("o")
    with pytest.raises(ValueError, match="^shapes differ$"):
        coded._maps(X, one_point("p"), coded._squares(X), 100)
    # an equal shape built apart is the same shape
    assert list(coded._maps(X, one_point("o"), coded._squares(X), 100)) == [(0,)]


def kan_collision_instance(cobjs, arrows, src, tgt, elements=("e",)):
    """A functor from the discrete category on ``cobjs`` onto ``p`` of a
    category with objects ``p``, ``q`` and the parallel ``arrows``
    ``src -> tgt``, and the diagram with ``elements`` at every object."""
    source = {"id_p": "p", "id_q": "q", **dict.fromkeys(arrows, src)}
    target = {"id_p": "p", "id_q": "q", **dict.fromkeys(arrows, tgt)}
    compose = {("id_p", "id_p"): "id_p", ("id_q", "id_q"): "id_q"}
    for m in arrows:
        compose[(m, f"id_{src}")] = compose[(f"id_{tgt}", m)] = m
    D = fincat.FiniteCategory.build(["p", "q"], ["id_p", "id_q", *arrows],
                                    source, target, {"p": "id_p", "q": "id_q"},
                                    compose)
    C = discrete_category(cobjs)
    iota = CatFunctor(C, D, dict.fromkeys(cobjs, "p"),
                      {f"id_{c}": "id_p" for c in cobjs})
    X = SetDiagram.build(C, dict.fromkeys(cobjs, elements),
                         {f"id_{c}": {e: e for e in elements} for c in cobjs})
    return iota, X


def test_left_kan_rejects_two_comma_objects_with_one_name():
    # (a,x,y) names both (a, "x,y") and ("a,x", y) over q; merging them
    # gave lan(q) three elements where there are four
    iota, X = kan_collision_instance(["a", "a,x"], ["x,y", "y"], "p", "q")
    for run in (lambda: lan(iota, X), lambda: comma_over(iota, "q")):
        with pytest.raises(ValueError, match=r"^comma object identifier "
                           r"\(a,x,y\) names two comma objects$"):
            run()
    iota, X = kan_collision_instance(["a", "b"], ["x,y", "y"], "p", "q")
    assert lan(iota, X).values["q"] == ("((a,x,y),e)", "((a,y),e)",
                                        "((b,x,y),e)", "((b,y),e)")


def test_right_kan_rejects_two_comma_objects_with_one_name():
    # (x,y,z) names both (x, "y,z") and ("x,y", z) under q
    iota, X = kan_collision_instance(["z", "y,z"], ["x", "x,y"], "q", "p")
    for run in (lambda: ran(iota, X), lambda: comma_under("q", iota)):
        with pytest.raises(ValueError, match=r"^comma object identifier "
                           r"\(x,y,z\) names two comma objects$"):
            run()


def test_left_kan_rejects_two_items_with_one_name():
    # the comma objects (a,f) and (a,f),(g) differ, but the items of "(g),e"
    # at the first and of "e" at the second both render ((a,f),(g),e)
    iota, X = kan_collision_instance(["a"], ["f", "f),(g"], "p", "q",
                                     ("e", "(g),e"))
    with pytest.raises(ValueError, match=r"^Kan extension item identifier "
                       r"\(\(a,f\),\(g\),e\) names two Kan extension items$"):
        lan(iota, X)


def test_comma_category_rejects_two_morphisms_with_one_name():
    # u: a -> "a,f),(b" and "u,(a,f)": a -> b both map (a,f) onward, to
    # ("a,f),(b", g) and to (b, g), and both render (u,(a,f),(a,f),(b,g))
    cobjs = ["a", "a,f),(b", "b"]
    arrows = {"u": ("a", "a,f),(b"), "u,(a,f)": ("a", "b")}
    ids = {f"id_{c}": (c, c) for c in cobjs}
    ends = {**ids, **arrows}
    compose = {(i, i): i for i in ids}
    for m, (s, t) in arrows.items():
        compose[(m, f"id_{s}")] = compose[(f"id_{t}", m)] = m
    C = fincat.FiniteCategory.build(
        cobjs, list(ends), {m: s for m, (s, _) in ends.items()},
        {m: t for m, (_, t) in ends.items()}, {c: f"id_{c}" for c in cobjs},
        compose)
    # one object d; g is its identity and f squares to it
    D = group_category(fincat.FiniteGroup(
        ("f", "g"), {("f", "f"): "g", ("f", "g"): "f", ("g", "f"): "f",
                     ("g", "g"): "g"}, "g", {"f": "f", "g": "g"}), "d")
    iota = CatFunctor(C, D, dict.fromkeys(cobjs, "d"),
                      {**dict.fromkeys(ids, "g"), **dict.fromkeys(arrows, "f")})
    assert fincat.validate_functor(iota) == []
    with pytest.raises(ValueError, match=r"^comma morphism identifier "
                       r"\(u,\(a,f\),\(a,f\),\(b,g\)\) names two comma "
                       r"morphisms$"):
        comma_over(iota, "d")
