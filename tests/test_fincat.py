import ast
import itertools
import pathlib

import pytest

from smallcat import fincat
from smallcat.fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    category_from_generators,
    chain_category,
    compose_functors,
    coproduct,
    core,
    cyclic_group,
    discrete_category,
    empty_category,
    enumerate_functors,
    enumerate_naturals,
    find_isomorphism,
    group_category,
    group_product,
    identity_functor,
    indiscrete_category,
    is_equivalence,
    is_full,
    is_groupoid,
    is_natural_iso,
    opposite,
    parallel_pair,
    poset_category,
    product,
    symmetric_group,
    terminal_category,
    validate_category,
    validate_functor,
    validate_group,
    walking_arrow,
    walking_iso,
)


def test_walking_arrow_valid():
    assert validate_category(walking_arrow()) == []


def test_standard_categories_valid():
    for C in (empty_category(), terminal_category(), walking_iso(),
              parallel_pair(), chain_category(2), discrete_category("xy"),
              group_category(cyclic_group(3))):
        assert validate_category(C) == []


def test_injected_associativity_violation_is_named():
    C = chain_category(2)
    # break le_1_2 . le_0_1 so some associativity triple fails
    bad = dict(C.compose)
    bad[("le_1_2", "le_0_1")] = "le_1_2"
    broken = FiniteCategory.build(C.objects, C.morphisms, C.source, C.target,
                                  C.identity, bad)
    report = validate_category(broken)
    assert report != []
    assert any("le_1_2" in line for line in report)


def test_validate_group():
    assert validate_group(cyclic_group(4)) == []
    assert validate_group(symmetric_group(3)) == []
    G = cyclic_group(3)
    bad = dict(G.mult)
    bad[("g1", "g2")] = "g1"
    broken = fincat.FiniteGroup(G.elements, bad, G.identity, G.inverse)
    assert validate_group(broken) != []


def test_opposite_is_involution():
    for C in (walking_arrow(), walking_iso(), chain_category(2)):
        assert opposite(opposite(C)) == C
        assert validate_category(opposite(C)) == []


def test_opposite_reverses_arrow():
    C = opposite(walking_arrow())
    assert C.source["f"] == "b" and C.target["f"] == "a"


def test_opposite_hom_counts():
    C = chain_category(2)
    Cop = opposite(C)
    for x in C.objects:
        for y in C.objects:
            assert len(Cop.hom(x, y)) == len(C.hom(y, x))


def test_coproduct_doubles_morphisms():
    C = walking_arrow()
    D = coproduct(C, opposite(C))
    assert validate_category(D) == []
    assert len(D.morphisms) == 2 * len(C.morphisms)
    # collision forces the suffix convention
    assert "f#0" in D.morphisms and "f#1" in D.morphisms


def test_product_object_count():
    C = walking_arrow()
    P = product(C, opposite(C))
    assert validate_category(P) == []
    assert len(P.objects) == len(C.objects) ** 2


def test_product_rejects_colliding_pair_names():
    # (a,b,c) names both (a, "b,c") and ("a,b", c); the product used to
    # drop one of them and return an invalid category
    C = discrete_category(["a", "a,b"])
    D = discrete_category(["b", "c", "b,c"])
    with pytest.raises(ValueError, match=r"\(a,b,c\)"):
        product(C, D)


def two_element_group(identity: str, other: str) -> fincat.FiniteGroup:
    e, g = identity, other
    return fincat.FiniteGroup(tuple(sorted((e, g))),
                              {(e, e): e, (e, g): g, (g, e): g, (g, g): e},
                              e, {e: e, g: g})


def test_group_product_rejects_colliding_pair_names():
    # (a,b,c) names both (a, "b,c") and ("a,b", c); the product used to
    # keep three elements for four and a 9-entry table
    G = two_element_group("a", "a,b")
    H = two_element_group("c", "b,c")
    with pytest.raises(ValueError, match=r"^group product identifier "
                       r"\(a,b,c\) names two pairs$"):
        group_product(G, H)


@pytest.mark.parametrize("build,name", [
    # a <= b_c and a_b <= c both render le_a_b_c
    (lambda: poset_category(["a", "a_b", "b_c", "c"], lambda x, y: x == y
                            or (x, y) in {("a", "b_c"), ("a_b", "c")}),
     "le_a_b_c"),
    # b -> c_from_a and a_from_b -> c both render to_c_from_a_from_b
    (lambda: indiscrete_category(["b", "a_from_b", "c_from_a", "c"]),
     "to_c_from_a_from_b"),
], ids=["poset", "indiscrete"])
def test_thin_categories_reject_colliding_morphism_names(build, name):
    # the category used to lose one of the two arrows and still validate
    with pytest.raises(ValueError, match=f"^morphism identifier {name} "
                       "names two morphisms$"):
        build()


def test_distinct_names_the_first_repeat():
    fincat.distinct(["a", "b"], "{} twice")
    with pytest.raises(ValueError, match="^a twice$"):
        fincat.distinct(["b", "a", "a", "b"], "{} twice")


def test_only_fincat_raises_a_name_collision():
    # every constructor that renders names from parts checks them with
    # fincat.distinct instead of raising its own collision error
    package = pathlib.Path(fincat.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "fincat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = "".join(c.value for c in ast.walk(node.exc)
                               if isinstance(c, ast.Constant)
                               and isinstance(c.value, str))
                assert "names two" not in text, f"{path.name}:{node.lineno}"


def test_product_with_terminal_is_isomorphic():
    C = walking_iso()
    P = product(C, terminal_category())
    iso = find_isomorphism(P, C)
    assert iso is not None
    assert validate_functor(iso) == []


def test_identity_functor_is_equivalence():
    for C in (walking_arrow(), walking_iso(), chain_category(2)):
        assert is_equivalence(identity_functor(C))


def test_one_object_inclusion_into_walking_iso_is_equivalence():
    E = walking_iso()
    pt = terminal_category()
    F = CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"})
    assert validate_functor(F) == []
    assert is_equivalence(F)


def test_collapse_walking_arrow_is_not_full():
    C = walking_arrow()
    pt = terminal_category()
    F = CatFunctor(C, pt, {"a": "pt", "b": "pt"},
                   {"id_a": "id_pt", "id_b": "id_pt", "f": "id_pt"})
    assert validate_functor(F) == []
    # hom(b, a) is empty in C but hom(pt, pt) is not
    assert not is_full(F)
    assert not is_equivalence(F)


def test_core_of_walking_iso_is_itself():
    E = walking_iso()
    assert core(E) == E


def test_core_of_walking_arrow_is_discrete():
    C = core(walking_arrow())
    assert validate_category(C) == []
    assert set(C.morphisms) == {"id_a", "id_b"}
    assert is_groupoid(C)


def test_core_of_group_category_is_itself():
    C = group_category(cyclic_group(3))
    assert core(C) == C


def test_core_always_groupoid():
    for C in (walking_arrow(), chain_category(2), parallel_pair(),
              product(walking_iso(), walking_arrow())):
        assert is_groupoid(core(C))
        assert validate_category(core(C)) == []


def test_enumerate_functors_from_point():
    D = chain_category(2)
    fs = enumerate_functors(terminal_category(), D)
    assert len(fs) == len(D.objects)


def brute_force_functor_count(C, D):
    # oracle: try every raw (object map, morphism map) pair and validate
    count = 0
    obs, mors = list(C.objects), list(C.morphisms)
    for ob_imgs in itertools.product(D.objects, repeat=len(obs)):
        for mor_imgs in itertools.product(D.morphisms, repeat=len(mors)):
            F = CatFunctor(C, D, dict(zip(obs, ob_imgs)),
                           dict(zip(mors, mor_imgs)))
            if validate_functor(F) == []:
                count += 1
    return count


def test_enumerate_functors_walking_arrow_self():
    C = walking_arrow()
    fs = enumerate_functors(C, C)
    assert brute_force_functor_count(C, C) == 3
    assert len(fs) == 3
    keys = [F.key() for F in fs]
    assert len(set(keys)) == 3
    assert keys == sorted(keys)
    for F in fs:
        assert validate_functor(F) == []


def test_enumerate_functors_matches_oracle_on_corpus():
    corpus = [walking_arrow(), walking_iso(), parallel_pair(),
              discrete_category("pq")]
    for C in corpus:
        for D in corpus:
            assert len(enumerate_functors(C, D)) == brute_force_functor_count(C, D)


def test_enumerate_naturals_identity_walking_arrow():
    C = walking_arrow()
    nts = enumerate_naturals(identity_functor(C), identity_functor(C))
    assert len(nts) == 1
    assert nts[0].components == {"a": "id_a", "b": "id_b"}


def test_enumerate_functors_budget_error():
    C = discrete_category([f"x{i}" for i in range(6)])
    D = discrete_category([f"y{i}" for i in range(6)])
    with pytest.raises(BudgetError):
        enumerate_functors(C, D, max_results=10)


def equivalence_by_quasi_inverse(F):
    # oracle: search an explicit quasi-inverse with natural isomorphisms
    C, D = F.domain, F.codomain
    for G in enumerate_functors(D, C):
        for nt in enumerate_naturals(compose_functors(G, F), identity_functor(C)):
            if not is_natural_iso(nt):
                continue
            for nt2 in enumerate_naturals(compose_functors(F, G), identity_functor(D)):
                if is_natural_iso(nt2):
                    return True
    return False


def test_equivalence_two_oracle_agreement():
    E = walking_iso()
    pt = terminal_category()
    cases = [
        identity_functor(walking_arrow()),
        identity_functor(E),
        CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"}),
        CatFunctor(walking_arrow(), pt,
                   {"a": "pt", "b": "pt"},
                   {"id_a": "id_pt", "id_b": "id_pt", "f": "id_pt"}),
        CatFunctor(pt, walking_arrow(), {"pt": "a"}, {"id_pt": "id_a"}),
    ]
    for F in cases:
        assert validate_functor(F) == []
        assert is_equivalence(F) == equivalence_by_quasi_inverse(F)


def test_group_constructions():
    s3 = symmetric_group(3)
    assert len(s3.elements) == 6
    v4 = group_product(cyclic_group(2), cyclic_group(2))
    assert validate_group(v4) == []
    assert len(v4.elements) == 4


def test_category_from_generators_chain():
    cat, letters = category_from_generators(
        ["0", "1", "2"], {"f": ("0", "1"), "g": ("1", "2")})
    assert validate_category(cat) == []
    # ids, f, g, and the forced composite
    assert len(cat.morphisms) == 6
    assert cat.compose[(letters["g"], letters["f"])] == "g*f"


def test_category_from_generators_with_relation():
    # one object, one generator squaring to the identity
    cat, letters = category_from_generators(
        ["x"], {"t": ("x", "x")}, relations={("t", "t"): ""})
    assert validate_category(cat) == []
    assert len(cat.morphisms) == 2
    t = letters["t"]
    assert cat.compose[(t, t)] == cat.identity["x"]


def test_category_from_generators_budget():
    # the free monoid on one generator never closes
    with pytest.raises(BudgetError):
        category_from_generators(["x"], {"t": ("x", "x")}, max_morphisms=20)


def test_equivalence_two_oracle_agreement_more_pairs():
    pp = parallel_pair()
    C2 = group_category(cyclic_group(2))
    pt = terminal_category()
    cases = [
        CatFunctor(pp, walking_arrow(), {"a": "a", "b": "b"},
                   {"id_a": "id_a", "id_b": "id_b", "f": "f", "g": "f"}),
        CatFunctor(pt, C2, {"pt": "*"}, {"id_pt": "g0"}),
        CatFunctor(walking_iso(), pt, {"a": "pt", "b": "pt"},
                   {m: "id_pt" for m in walking_iso().morphisms}),
    ]
    for F in cases:
        assert validate_functor(F) == []
        assert is_equivalence(F) == equivalence_by_quasi_inverse(F)


def test_equivalence_two_oracle_corpus_sweep():
    # sample functors between every pair of small corpus categories and
    # compare the componentwise verdict with the quasi-inverse search
    corpus = [terminal_category(), walking_arrow(), walking_iso(),
              discrete_category("pq"), parallel_pair(),
              group_category(cyclic_group(2))]
    checked = 0
    for C in corpus:
        for D in corpus:
            assert len(C.objects) <= 4 and len(C.morphisms) <= 12
            for F in enumerate_functors(C, D)[:4]:
                assert is_equivalence(F) == equivalence_by_quasi_inverse(F)
                checked += 1
    assert checked >= 60


def test_functor_without_an_object_image_is_reported_not_raised():
    # the morphism image exists but the object image does not: reading
    # ob_map[source] raised KeyError instead of returning the error
    pt = fincat.terminal_category()
    F = CatFunctor(pt, pt, {}, {"id_pt": "id_pt"})
    errors = validate_functor(F)
    assert errors[0] == "object pt: image missing"
    assert "morphism id_pt: source not preserved" in errors
