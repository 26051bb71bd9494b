import pytest

import catmodel_oracle as oracle

from smallcat import fincat
from smallcat.catmodel import (
    LiftingSquare,
    default_generating_cofibrations,
    bounded_soa,
    default_generating_acyclic_cofibrations,
    diagram_has_rlp,
    enumerate_squares,
    has_llp,
    has_rlp,
    is_injective_on_objects,
    is_isofibration,
    pushout_category,
    solve_lifting,
    validate_square,
)
from smallcat.fincat import (
    BudgetError,
    CatFunctor,
    chain_category,
    coproduct,
    discrete_category,
    empty_category,
    find_isomorphism,
    identity_functor,
    indiscrete_category,
    is_equivalence,
    parallel_pair,
    terminal_category,
    validate_category,
    validate_functor,
    walking_arrow,
    walking_iso,
)
from smallcat.setval import (
    DiagramMap,
    compose_diagram_maps,
    validate_diagram,
    validate_diagram_map,
)


def point_into_iso():
    pt = terminal_category()
    E = walking_iso()
    return CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"})


def test_is_isofibration_identity():
    assert is_isofibration(identity_functor(walking_iso()))


def test_is_isofibration_dagger_section_functor():
    # indiscrete X on {x, x', y} mapping onto indiscrete Y on {z, y}
    X = indiscrete_category(["x", "xp", "y"])
    Y = indiscrete_category(["z", "y"])
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.target[m]]}_from_{ob[X.source[m]]}" for m in X.morphisms}
    p = CatFunctor(X, Y, ob, mor)
    assert validate_functor(p) == []
    assert is_isofibration(p)


def test_one_object_inclusion_is_not_isofibration():
    assert not is_isofibration(point_into_iso())


def test_is_injective_on_objects():
    assert is_injective_on_objects(identity_functor(walking_arrow()))
    C = walking_arrow()
    collapse = CatFunctor(C, terminal_category(), {"a": "pt", "b": "pt"},
                          {"id_a": "id_pt", "id_b": "id_pt", "f": "id_pt"})
    assert not is_injective_on_objects(collapse)
    X = walking_arrow()
    L = coproduct(X, fincat.opposite(X))
    inc = CatFunctor(X, L, {"a": "a#0", "b": "b#0"},
                     {"id_a": "id_a#0", "id_b": "id_b#0", "f": "f#0"})
    assert validate_functor(inc) == []
    assert is_injective_on_objects(inc)


def test_solve_lifting_identity_verticals():
    C = walking_arrow()
    idc = identity_functor(C)
    sq = LiftingSquare(idc, idc, idc, idc)
    assert validate_square(sq) == []
    h = solve_lifting(sq)
    assert h is not None and h.mor_map == idc.mor_map


def test_lifting_against_isofibration_exists():
    i = point_into_iso()
    X = indiscrete_category(["x", "xp", "y"])
    Y = indiscrete_category(["z", "y"])
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.target[m]]}_from_{ob[X.source[m]]}" for m in X.morphisms}
    p = CatFunctor(X, Y, ob, mor)
    for sq in enumerate_squares(i, p):
        assert solve_lifting(sq) is not None


def test_lifting_against_non_isofibration_fails_somewhere():
    i = point_into_iso()
    p = point_into_iso()  # not an isofibration
    unsolved = [sq for sq in enumerate_squares(i, p) if solve_lifting(sq) is None]
    assert unsolved


def small_corpus():
    cats = [terminal_category(), walking_arrow(), walking_iso(),
            discrete_category("pq"), chain_category(2), parallel_pair(),
            indiscrete_category(["x", "xp", "y"])]
    return cats


def test_rlp_oracle_matches_isofibration_on_corpus():
    J = default_generating_acyclic_cofibrations()
    cats = small_corpus()
    checked = 0
    for C in cats:
        for D in cats:
            if len(C.objects) > 3 or len(D.objects) > 3:
                continue
            for F in fincat.enumerate_functors(C, D)[:12]:
                assert has_rlp(J, F) == is_isofibration(F)
                checked += 1
    assert checked >= 30


def isofibration_case_functors():
    """The section functor of the paper suite's ``isofibration`` case, every
    functor of its ``enumerate_functors`` pairs (it checks the first six of
    each), every functor between categories of ``small_corpus`` with at
    most three objects, and every functor from an isomorphism beside a
    point, where an isomorphism can lift from one object and not another."""
    X = indiscrete_category(["x", "xp", "y"])
    Y = indiscrete_category(["z", "y"])
    ob = {"x": "z", "xp": "z", "y": "y"}
    yield CatFunctor(X, Y, ob, {m: f"to_{ob[X.target[m]]}_from_{ob[X.source[m]]}"
                                for m in X.morphisms})
    for C in (terminal_category(), walking_arrow(), walking_iso()):
        for D in (terminal_category(), walking_iso()):
            yield from fincat.enumerate_functors(C, D)
    cats = [C for C in small_corpus() if len(C.objects) <= 3]
    for C in cats:
        for D in cats:
            yield from fincat.enumerate_functors(C, D)
    for D in cats:
        yield from fincat.enumerate_functors(
            coproduct(walking_iso(), terminal_category()), D)


def test_isofibration_matches_the_scanning_oracle():
    verdicts = [is_isofibration(F) for F in isofibration_case_functors()]
    assert verdicts == [oracle.is_isofibration(F)
                        for F in isofibration_case_functors()]
    assert verdicts[0] and verdicts.count(False) > 50 and verdicts.count(True) > 50


def test_every_functor_has_rlp_against_identities():
    C = walking_arrow()
    idc = identity_functor(C)
    for F in fincat.enumerate_functors(C, walking_iso()):
        assert has_rlp([idc], F)


def test_llp_empty_to_point_against_surjective_on_objects():
    g0 = CatFunctor(empty_category(), terminal_category(), {}, {})
    C = walking_iso()
    collapse = CatFunctor(C, terminal_category(), {"a": "pt", "b": "pt"},
                          {m: "id_pt" for m in C.morphisms})
    assert has_llp(g0, [collapse])
    # and fails against a map whose codomain object is missed
    D = discrete_category("uv")
    inj = CatFunctor(terminal_category(), D, {"pt": "u"}, {"id_pt": "id_u"})
    assert not has_llp(g0, [inj])


def test_pushout_along_identity_is_codomain():
    A = walking_arrow()
    f = CatFunctor(A, walking_iso(), {"a": "a", "b": "b"},
                   {"id_a": "id_a", "id_b": "id_b", "f": "u"})
    assert validate_functor(f) == []
    res = pushout_category(identity_functor(A), f)
    assert validate_category(res.category) == []
    assert find_isomorphism(res.category, walking_iso()) is not None


def test_pushout_of_two_points_into_arrow_along_identity():
    two = coproduct(terminal_category(), terminal_category())
    arrow = walking_arrow()
    i = CatFunctor(two, arrow, {"pt#0": "a", "pt#1": "b"},
                   {"id_pt#0": "id_a", "id_pt#1": "id_b"})
    res = pushout_category(i, identity_functor(two))
    assert find_isomorphism(res.category, arrow) is not None


def test_pushout_glues_two_arrows_into_chain():
    pt = terminal_category()
    arrow = walking_arrow()
    end = CatFunctor(pt, arrow, {"pt": "b"}, {"id_pt": "id_b"})
    start = CatFunctor(pt, arrow, {"pt": "a"}, {"id_pt": "id_a"})
    res = pushout_category(end, start)
    # hand-enumerated: three objects, six morphisms, one forced composite
    assert len(res.category.objects) == 3
    assert len(res.category.morphisms) == 6
    assert validate_category(res.category) == []
    assert find_isomorphism(res.category, chain_category(2)) is not None


def test_pushout_budget_error():
    # gluing both endpoints of an arrow to one point makes a free monoid
    two = coproduct(terminal_category(), terminal_category())
    arrow = walking_arrow()
    i = CatFunctor(two, arrow, {"pt#0": "a", "pt#1": "b"},
                   {"id_pt#0": "id_a", "id_pt#1": "id_b"})
    collapse = CatFunctor(two, terminal_category(),
                          {"pt#0": "pt", "pt#1": "pt"},
                          {"id_pt#0": "id_pt", "id_pt#1": "id_pt"})
    with pytest.raises(BudgetError):
        pushout_category(i, collapse, max_morphisms=30)


def test_left_properness_sample():
    # pushouts of an equivalence along an injective-on-objects functor
    pt = terminal_category()
    arrow = walking_arrow()
    i = CatFunctor(pt, arrow, {"pt": "a"}, {"id_pt": "id_a"})
    w = point_into_iso()
    assert is_equivalence(w)
    res = pushout_category(i, w)
    assert validate_category(res.category) == []
    assert is_equivalence(res.from_left)


# --- bounded small object argument ------------------------------------------

from soa_helpers import delta_leq1_op, soa_generators  # noqa: E402


def test_soa_zero_stages_when_rlp_holds():
    shape = delta_leq1_op()
    gens, point, interval = soa_generators(shape)
    idp = DiagramMap(point, point,
                     {"[0]": {"v": "v"}, "[1]": {"sv": "sv"}})
    res = bounded_soa(gens, idp, max_stages=3)
    assert res.stages == 0
    assert res.saturated
    assert res.left.key() == DiagramMap(point, point, {
        "[0]": {"v": "v"}, "[1]": {"sv": "sv"}}).key()


def test_soa_interval_to_point_saturates():
    shape = delta_leq1_op()
    gens, point, interval = soa_generators(shape)
    f = DiagramMap(interval, point,
                   {"[0]": {"0": "v", "1": "v"},
                    "[1]": {"e": "sv", "s_0": "sv", "s_1": "sv"}})
    assert validate_diagram_map(f) == []
    res = bounded_soa(gens, f, max_stages=2)
    assert res.saturated
    assert res.stages <= 2
    # factorization recomposes to f
    assert compose_diagram_maps(res.right, res.left).key() == f.key()
    assert diagram_has_rlp(gens, res.right)


def test_soa_max_stages_zero_flag_false():
    shape = delta_leq1_op()
    gens, point, interval = soa_generators(shape)
    # interval -> point does not have rlp against the generators
    f = DiagramMap(interval, point,
                   {"[0]": {"0": "v", "1": "v"},
                    "[1]": {"e": "sv", "s_0": "sv", "s_1": "sv"}})
    res = bounded_soa(gens, f, max_stages=0)
    assert not res.saturated
    assert res.stages == 0
    assert res.left.source == f.source


def test_left_properness_second_sample():
    # glue the walking iso onto the end of the arrow along a point; the
    # cobase change of the equivalence pt -> E along pt -> [1] at b
    pt = terminal_category()
    arrow = walking_arrow()
    i = CatFunctor(pt, arrow, {"pt": "b"}, {"id_pt": "id_b"})
    w = point_into_iso()
    assert is_equivalence(w)
    res = pushout_category(i, w)
    assert validate_category(res.category) == []
    assert is_equivalence(res.from_left)


def test_default_cofibration_generators_cross_validated():
    # rlp against the default generating cofibrations detects exactly the
    # surjective-on-objects fully faithful functors (acyclic isofibrations)
    I = default_generating_cofibrations()
    corpus = [terminal_category(), walking_arrow(), walking_iso(),
              discrete_category("pq"), parallel_pair()]
    checked = 0
    for C in corpus:
        for D in corpus:
            for F in fincat.enumerate_functors(C, D)[:8]:
                surj = set(F.ob_map.values()) == set(D.objects)
                expected = surj and fincat.is_full(F) and fincat.is_faithful(F)
                assert has_rlp(I, F) == expected, (C.objects, D.objects,
                                                   F.ob_map, F.mor_map)
                checked += 1
    assert checked >= 50
