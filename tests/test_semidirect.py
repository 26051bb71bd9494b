
import pytest

from smallcat import fincat
from smallcat.equivalence import is_full
from smallcat.fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    cyclic_group,
    discrete_category,
    parallel_pair,
    validate_category,
    validate_functor,
    walking_arrow,
)
from smallcat.sdcheck import (
    check_semidirect_hypotheses,
    permutation_action,
    semidirect_op,
    trivial_action,
    twisted_coproduct,
    validate_action,
    verify_lan_formula,
)
from smallcat.semidirect import GroupAction, inclusion_iota, semidirect
from smallcat.setval import DiagramMap, SetDiagram, validate_diagram
from smallcat.standard import symmetric_group
from smallcat.universal import is_epi_diagram_map, is_mono_diagram_map


def swap_action_on_two_points():
    C = discrete_category("ab")
    G = cyclic_group(2)
    return permutation_action(
        G, C, {"g0": {"a": "a", "b": "b"}, "g1": {"a": "b", "b": "a"}})


def s3_action_on_three_points():
    C = discrete_category(["p0", "p1", "p2"])
    G = symmetric_group(3)
    perms = {}
    for name in G.elements:
        perms[name] = {f"p{i}": f"p{int(name[i])}" for i in range(3)}
    return permutation_action(G, C, perms)


def swap_action_on_parallel_pair():
    # the nontrivial automorphism of the parallel-pair category swaps f and g
    C = parallel_pair()
    G = cyclic_group(2)
    flip = CatFunctor(C, C, {"a": "a", "b": "b"},
                      {"id_a": "id_a", "id_b": "id_b", "f": "g", "g": "f"})
    return GroupAction(G, C, {"g0": fincat.identity_functor(C), "g1": flip})


def test_validate_actions():
    for action in (swap_action_on_two_points(), s3_action_on_three_points(),
                   swap_action_on_parallel_pair(),
                   trivial_action(cyclic_group(3), walking_arrow())):
        assert validate_action(action) == []


def test_invalid_action_detected():
    C = parallel_pair()
    G = cyclic_group(2)
    bad = GroupAction(G, C, {"g0": fincat.identity_functor(C),
                             "g1": fincat.identity_functor(C)})
    ok = GroupAction(G, C, {"g0": fincat.identity_functor(C),
                            "g1": fincat.identity_functor(C)})
    assert validate_action(ok) == []  # trivial action is fine
    broken = GroupAction(cyclic_group(2), C,
                         {"g0": swap_action_on_parallel_pair().rho["g1"],
                          "g1": fincat.identity_functor(C)})
    assert validate_action(broken) != []


def test_trivial_action_morphism_count():
    C = walking_arrow()
    G = cyclic_group(3)
    sd = semidirect(trivial_action(G, C))
    assert validate_category(sd.category) == []
    assert len(sd.category.morphisms) == len(C.morphisms) * len(G.elements)
    # untwisted composition: hom-counts are |hom_C| * |G|
    for x in C.objects:
        for y in C.objects:
            assert len(sd.category.hom(x, y)) == len(C.hom(x, y)) * 3


def test_swap_action_has_two_crossing_morphisms():
    sd = semidirect(swap_action_on_two_points())
    assert validate_category(sd.category) == []
    assert len(sd.category.morphisms) == 4
    crossing = [m for m in sd.category.morphisms
                if sd.category.source[m] != sd.category.target[m]]
    assert len(crossing) == 2


def test_semidirect_always_validates():
    for action in (swap_action_on_two_points(), s3_action_on_three_points(),
                   swap_action_on_parallel_pair()):
        sd = semidirect(action)
        assert validate_category(sd.category) == []
        assert len(sd.category.morphisms) == \
            len(action.target.morphisms) * len(action.group.elements)


def test_semidirect_rejects_an_identifier_naming_two_pairs():
    # (a,b,c) names both the pair (a, "b,c") and the pair ("a,b", c)
    C = FiniteCategory.build(
        ["x"], ["a", "a,b"], {"a": "x", "a,b": "x"}, {"a": "x", "a,b": "x"},
        {"x": "a"}, {("a", "a"): "a", ("a", "a,b"): "a,b",
                     ("a,b", "a"): "a,b", ("a,b", "a,b"): "a,b"})
    G = FiniteGroup(("b,c", "c"),
                    {("c", "c"): "c", ("c", "b,c"): "b,c",
                     ("b,c", "c"): "b,c", ("b,c", "b,c"): "c"},
                    "c", {"c": "c", "b,c": "b,c"})
    action = trivial_action(G, C)
    assert validate_action(action) == []
    with pytest.raises(ValueError, match=r"^semidirect identifier "
                                         r"\(a,b,c\) names two pairs$"):
        semidirect(action)


def test_inclusion_iota_is_valid_and_injective():
    sd = semidirect(swap_action_on_parallel_pair())
    iota = inclusion_iota(sd)
    assert validate_functor(iota) == []
    assert len(set(iota.mor_map.values())) == len(iota.domain.morphisms)
    # image is exactly the identity-tagged pairs
    e = sd.action.group.identity
    assert set(iota.mor_map.values()) == \
        {m for m, (phi, g) in sd.pair_of.items() if g == e}


def test_inclusion_iota_not_full_for_nontrivial_group():
    sd = semidirect(swap_action_on_two_points())
    assert not is_full(inclusion_iota(sd))
    sd2 = semidirect(trivial_action(cyclic_group(1), walking_arrow()))
    assert is_full(inclusion_iota(sd2))


def two_point_diagram():
    C = discrete_category("ab")
    return SetDiagram.build(
        C, {"a": ("u",), "b": ("v", "w")},
        {"id_a": {"u": "u"}, "id_b": {"v": "v", "w": "w"}})


def test_verify_lan_formula_trivial_action():
    C = walking_arrow()
    F = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    action = trivial_action(cyclic_group(2), C)
    rep = verify_lan_formula(action, F)
    assert rep.ok, rep.failures
    assert rep.natural_iso
    # both sides are |G| disjoint copies of F
    total, _ = twisted_coproduct(action, F)
    assert total.total_elements() == 2 * F.total_elements()


def test_verify_lan_formula_swap_counts():
    action = swap_action_on_two_points()
    F = two_point_diagram()
    sd = semidirect(action)
    iota = inclusion_iota(sd)
    from smallcat.setval import lan, restrict
    left = restrict(iota, lan(iota, F))
    # at a: F(a) + F(b) = 1 + 2 = 3 elements
    assert len(left.values["a"]) == 3
    assert len(left.values["b"]) == 3
    rep = verify_lan_formula(action, F)
    assert rep.ok, rep.failures
    assert rep.natural_iso
    assert rep.comma_components_indexed_by_group


def test_verify_lan_formula_s3():
    action = s3_action_on_three_points()
    C = action.target
    F = SetDiagram.build(
        C, {"p0": ("x",), "p1": ("y",), "p2": ("z", "zz")},
        {"id_p0": {"x": "x"}, "id_p1": {"y": "y"},
         "id_p2": {"z": "z", "zz": "zz"}})
    rep = verify_lan_formula(action, F)
    assert rep.ok, rep.failures
    assert rep.natural_iso
    assert all(rep.component_bijections.values())


def test_verify_lan_formula_nondiscrete():
    action = swap_action_on_parallel_pair()
    C = action.target
    F = SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("s", "t")},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"s": "s", "t": "t"},
         "f": {"u": "s", "v": "t"}, "g": {"u": "t", "v": "s"}})
    assert validate_diagram(F) == []
    rep = verify_lan_formula(action, F)
    assert rep.ok, rep.failures
    assert rep.natural_iso


def test_check_semidirect_hypotheses_trivial():
    action = trivial_action(cyclic_group(2), discrete_category("ab"))
    F = two_point_diagram()
    G2 = SetDiagram.build(
        F.shape, {"a": ("u", "u2"), "b": ("v", "w")},
        {"id_a": {"u": "u", "u2": "u2"}, "id_b": {"v": "v", "w": "w"}})
    h = DiagramMap(F, G2, {"a": {"u": "u"}, "b": {"v": "v", "w": "w"}})
    rep = check_semidirect_hypotheses(
        action, [h], {"mono": is_mono_diagram_map, "epi": is_epi_diagram_map})
    assert rep.ok


def test_check_semidirect_hypotheses_swap_preserves_mono():
    action = swap_action_on_two_points()
    F = two_point_diagram()
    big = SetDiagram.build(
        F.shape, {"a": ("u", "u2"), "b": ("v", "w", "w2")},
        {"id_a": {"u": "u", "u2": "u2"},
         "id_b": {"v": "v", "w": "w", "w2": "w2"}})
    h = DiagramMap(F, big, {"a": {"u": "u"}, "b": {"v": "v", "w": "w"}})
    rep = check_semidirect_hypotheses(action, [h],
                                      {"mono": is_mono_diagram_map})
    assert rep.ok, rep.failures


def test_check_semidirect_hypotheses_negative():
    # membership of a fixed object's image is not equivariant under the swap
    action = swap_action_on_two_points()
    F = two_point_diagram()

    def touches_a(h):
        return len(h.source.values["a"]) == 1

    rep = check_semidirect_hypotheses(action, [fincat_identity_map(F)],
                                      {"touches_a": touches_a})
    assert not rep.ok
    assert any("touches_a" in f for f in rep.failures)


def fincat_identity_map(F):
    from smallcat.universal import identity_diagram_map
    return identity_diagram_map(F)


def test_semidirect_op_isomorphism():
    for action in (swap_action_on_two_points(), swap_action_on_parallel_pair()):
        sd_op, comparison = semidirect_op(action)
        assert validate_category(sd_op.category) == []
        assert validate_functor(comparison) == []
        assert len(set(comparison.mor_map.values())) == \
            len(comparison.domain.morphisms)
