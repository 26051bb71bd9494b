from hypothesis import given, settings, strategies as st

from smallcat import fincat, invcat
from smallcat.catmodel import is_isofibration
from smallcat.fincat import (
    CatFunctor,
    FiniteCategory,
    coproduct,
    cyclic_group,
    discrete_category,
    empty_category,
    group_category,
    opposite,
    parallel_pair,
    product,
    terminal_category,
    validate_category,
    validate_functor,
    walking_arrow,
    walking_iso,
)
from smallcat.invcat import (
    EquivariantFunctor,
    L_inv,
    R_inv,
    acyclic_fibration_tests,
    check_inv_adjunctions,
    dagger_R,
    dagger_R_map,
    enumerate_equivariant,
    enumerate_involutions,
    forget_inv,
    inv_has_llp,
    is_inv_cofibration,
    reproduce_dagger_counterexample,
    trivial_involution,
    validate_dagger,
    validate_equivariant,
    validate_involutive,
)


def test_L_inv_counts_and_validity():
    for X in (walking_arrow(), walking_iso(), discrete_category("pq")):
        LX = L_inv(X)
        assert validate_involutive(LX) == []
        assert len(LX.base.objects) == 2 * len(X.objects)
        RX = R_inv(X)
        assert validate_involutive(RX) == []
        assert len(RX.base.objects) == len(X.objects) ** 2


def test_L_inv_empty():
    LX = L_inv(empty_category())
    assert validate_involutive(LX) == []
    assert LX.base.objects == ()


def test_R_inv_swaps_pairs_whose_coordinates_hold_commas():
    RX = R_inv(discrete_category(["a,b", "c"]))
    assert validate_involutive(RX) == []
    assert RX.tau.ob_map["(a,b,c)"] == "(c,a,b)"


SHAPES = (walking_arrow(), walking_iso(), parallel_pair(), terminal_category(),
          discrete_category("pq"), group_category(cyclic_group(2)))


@st.composite
def renamed_shapes(draw):
    """A small category whose identifiers hold the characters that derived
    names are built from."""
    C = draw(st.sampled_from(SHAPES))
    # "a" and "a,a" make product identifiers collide: both (a,a,a)
    name = st.one_of(st.sampled_from(["a", "a,a"]),
                     st.text("ab(),#*@", min_size=1, max_size=4))
    names = draw(st.lists(name,
                          min_size=len(C.objects) + len(C.morphisms),
                          max_size=len(C.objects) + len(C.morphisms),
                          unique=True))
    ob = dict(zip(C.objects, names))
    mor = dict(zip(C.morphisms, names[len(C.objects):]))
    return FiniteCategory.build(
        list(ob.values()), list(mor.values()),
        {mor[m]: ob[C.source[m]] for m in C.morphisms},
        {mor[m]: ob[C.target[m]] for m in C.morphisms},
        {ob[x]: mor[C.identity[x]] for x in C.objects},
        {(mor[f], mor[g]): mor[h] for (f, g), h in C.compose.items()})


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(renamed_shapes(), renamed_shapes())
def test_constructions_on_names_with_reserved_characters(C, D):
    assert validate_category(C) == []
    assert validate_category(opposite(C)) == []
    assert validate_category(coproduct(C, D)) == []
    assert validate_involutive(L_inv(C)) == []
    try:
        P = product(C, D)
    except ValueError as exc:
        assert "names two pairs" in str(exc)
    else:
        assert validate_category(P) == []
    try:
        RC = R_inv(C)
    except ValueError as exc:
        assert "names two pairs" in str(exc)
    else:
        assert validate_involutive(RC) == []


def test_L_inv_tau_swaps_copies():
    LX = L_inv(walking_arrow())
    assert LX.tau.mor_map["f#0"] == "f#1"
    assert LX.tau.mor_map["f#1"] == "f#0"
    assert LX.tau.ob_map["a#0"] == "a#1"


def test_forget_L_is_coproduct_with_opposite():
    X = walking_arrow()
    assert forget_inv(L_inv(X)) == coproduct(X, opposite(X))


def test_forget_R_is_product_with_opposite():
    X = walking_arrow()
    assert forget_inv(R_inv(X)) == product(X, opposite(X))


def test_forget_preserves_validity():
    for X in (walking_arrow(), walking_iso()):
        assert validate_category(forget_inv(L_inv(X))) == []
        assert validate_category(forget_inv(R_inv(X))) == []


def test_check_inv_adjunctions_walking_arrow():
    rep = check_inv_adjunctions([walking_arrow()], L_inv(walking_arrow()))
    assert rep.ok, rep.failures
    assert rep.left_checked > 0 and rep.right_checked > 0


def test_check_inv_adjunctions_empty_source():
    rep = check_inv_adjunctions([empty_category()], L_inv(walking_arrow()))
    assert rep.ok
    # left side: both hom-sets are singletons (the empty functor);
    # right side: both hom-sets are empty, so the counts agree at zero
    assert rep.left_checked == 1 and rep.right_checked == 0


def test_check_inv_adjunctions_more_targets():
    corpus = [terminal_category(), walking_arrow()]
    for Ytau in (R_inv(walking_arrow()), trivial_involution(terminal_category()),
                 L_inv(terminal_category())):
        rep = check_inv_adjunctions(corpus, Ytau)
        assert rep.ok, rep.failures


def test_is_inv_cofibration_identity():
    X = L_inv(walking_arrow())
    ident = EquivariantFunctor(X, X, fincat.identity_functor(X.base))
    assert validate_equivariant(ident) == []
    assert is_inv_cofibration(ident)


def test_is_inv_cofibration_free_complement():
    empty = L_inv(empty_category())
    two = L_inv(terminal_category())
    f = EquivariantFunctor(empty, two, CatFunctor(empty.base, two.base, {}, {}))
    assert validate_equivariant(f) == []
    assert is_inv_cofibration(f)


def test_is_inv_cofibration_fixed_point_in_complement():
    empty = L_inv(empty_category())
    pt = trivial_involution(terminal_category())
    f = EquivariantFunctor(empty, pt, CatFunctor(empty.base, pt.base, {}, {}))
    assert validate_equivariant(f) == []
    assert not is_inv_cofibration(f)


def exercise_corpus():
    return [
        trivial_involution(terminal_category()),
        L_inv(terminal_category()),
        invcat._indiscrete_involutive(["x", "xp", "y"],
                                      {"x": "xp", "xp": "x", "y": "y"}),
        invcat._indiscrete_involutive(["z", "y"], {"z": "z", "y": "y"}),
    ]


def test_exercise_agrees_with_bounded_llp_oracle():
    corpus = exercise_corpus()
    tests = acyclic_fibration_tests(corpus)
    assert tests
    empty = L_inv(empty_category())
    candidates = []
    for A in [empty] + corpus:
        for B in corpus:
            candidates.extend(enumerate_equivariant(A, B)[:6])
    assert len(candidates) >= 10
    for f in candidates:
        assert is_inv_cofibration(f) == inv_has_llp(f, tests), \
            (f.functor.ob_map, f.functor.mor_map)


def test_L_preserves_cofibrations_and_equivalences():
    # on the corpus, L sends injective-on-objects functors to
    # involutive cofibrations and equivalences to equivalences
    from smallcat.catmodel import is_injective_on_objects
    from smallcat.invcat import induced_map
    pt = terminal_category()
    E = walking_iso()
    cases = [
        CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"}),
        fincat.identity_functor(walking_arrow()),
        CatFunctor(pt, walking_arrow(), {"pt": "b"}, {"id_pt": "id_b"}),
    ]
    for f in cases:
        lf = induced_map(f)
        assert validate_functor(lf) == []
        if is_injective_on_objects(f):
            assert is_injective_on_objects(lf)
        if fincat.is_equivalence(f):
            assert fincat.is_equivalence(lf)
        ef = EquivariantFunctor(L_inv(f.domain), L_inv(f.codomain), lf)
        assert validate_equivariant(ef) == []
        if is_injective_on_objects(f):
            assert is_inv_cofibration(ef)


def test_dagger_R_of_trivial_involution_is_identity():
    X = trivial_involution(discrete_category("uv"))
    RX, counit = dagger_R(X)
    assert validate_dagger(RX) == []
    assert RX.base == X.base
    assert validate_equivariant(counit) == []


def test_dagger_R_of_product_involution():
    X = R_inv(walking_arrow())
    RX, _ = dagger_R(X)
    assert validate_dagger(RX) == []
    # fixed objects of the swap on pairs are the diagonal-symmetric pairs
    for x in RX.base.objects:
        assert X.tau.ob_map[x] == x


def test_dagger_counterexample_object():
    X = invcat._indiscrete_involutive(["x", "xp", "y"],
                                      {"x": "xp", "xp": "x", "y": "y"})
    RX, _ = dagger_R(X)
    assert list(RX.base.objects) == ["y"]


def test_reproduce_dagger_counterexample():
    report = reproduce_dagger_counterexample()
    assert report["p_isofib"] is True
    assert report["Rp_isofib"] is False
    assert report["RX_objects"] == ["y"]
    assert sorted(report["RY_objects"]) == ["y", "z"]


def test_counterexample_with_trivial_involutions_preserves_isofibration():
    # same projection but with identity involutions: coreflection changes nothing
    X = invcat._indiscrete_involutive(["x", "xp", "y"],
                                      {"x": "x", "xp": "xp", "y": "y"})
    Y = invcat._indiscrete_involutive(["z", "y"], {"z": "z", "y": "y"})
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.base.target[m]]}_from_{ob[X.base.source[m]]}"
           for m in X.base.morphisms}
    p = EquivariantFunctor(X, Y, CatFunctor(X.base, Y.base, ob, mor))
    assert validate_equivariant(p) == []
    rp = dagger_R_map(p)
    assert rp.source.base == X.base
    assert is_isofibration(p.functor)
    assert is_isofibration(rp.functor)


def test_counterexample_with_extra_swapped_target_pair():
    # swap z with a fresh z' in the target and extend p equivariantly:
    # the coreflected map becomes {y} -> {y}, an isofibration again
    X = invcat._indiscrete_involutive(["x", "xp", "y"],
                                      {"x": "xp", "xp": "x", "y": "y"})
    Y2 = invcat._indiscrete_involutive(["z", "zp", "y"],
                                       {"z": "zp", "zp": "z", "y": "y"})
    ob = {"x": "z", "xp": "zp", "y": "y"}
    mor = {m: f"to_{ob[X.base.target[m]]}_from_{ob[X.base.source[m]]}"
           for m in X.base.morphisms}
    p = EquivariantFunctor(X, Y2, CatFunctor(X.base, Y2.base, ob, mor))
    assert validate_equivariant(p) == []
    assert is_isofibration(p.functor)
    rp = dagger_R_map(p)
    assert list(rp.source.base.objects) == ["y"]
    assert list(rp.target.base.objects) == ["y"]
    assert is_isofibration(rp.functor)


def test_enumerate_involutions_walking_iso():
    invs = enumerate_involutions(walking_iso())
    assert len(invs) >= 2  # identity-on-objects and the swap
    for X in invs:
        assert validate_involutive(X) == []
    assert any(X.tau.ob_map["a"] == "b" for X in invs)
