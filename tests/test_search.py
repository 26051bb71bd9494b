"""The shared backtracking core against the four searches it replaced.

``search_oracle`` keeps the old searches verbatim.  On seeded instances the
new searches must give the same results in the same order; the functor,
diagram-map and diagram-lifting searches must also need the same minimal
node budget and fail past it with the same message.  The natural
transformations, the fullness, faithfulness and essential surjectivity
tests and the commuting squares are compared with their old code the same
way, by results and order.
"""
import random
import sys
import tracemalloc

import pytest

import search_oracle as oracle
from soa_helpers import delta_leq1_op, soa_generators
from test_acceptance import random_category, tractable_instance
from test_catmodel import small_corpus
from test_cycops import positive_terminal_cyclic, sign_operad

from smallcat import catmodel, cycops, fincat, setval
from smallcat.catmodel import (
    diagram_squares,
    enumerate_squares,
    iter_liftings,
    solve_diagram_lifting,
    solve_lifting,
)
from smallcat.fincat import (
    BudgetError,
    CatFunctor,
    NodeBudget,
    _iter_functors,
    backtrack,
    chain_category,
    constraint_lists,
    cyclic_group,
    discrete_category,
    enumerate_functors,
    enumerate_naturals,
    group_category,
    is_essentially_surjective,
    is_faithful,
    is_full,
    parallel_pair,
    walking_arrow,
    walking_iso,
)
from smallcat.nabla import delta_leq
from smallcat.setval import (
    DiagramMap,
    SetDiagram,
    coproduct_diagrams,
    corepresentable,
    enumerate_diagram_maps,
)


def minimal_budget(run) -> int:
    """The least node budget under which ``run(budget)`` finishes."""
    def passes(budget):
        try:
            run(budget)
        except BudgetError:
            return False
        return True

    if passes(0):
        return 0
    low, high = 0, 1
    while not passes(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if passes(mid):
            high = mid
        else:
            low = mid
    return high


def assert_same_budget(old, new):
    """``new`` passes at the oracle's minimal budget and, one node below
    it, raises the oracle's message."""
    budget = minimal_budget(old)
    new(budget)
    if budget == 0:
        return
    with pytest.raises(BudgetError) as old_err:
        old(budget - 1)
    with pytest.raises(BudgetError) as new_err:
        new(budget - 1)
    assert str(new_err.value) == str(old_err.value)


def functor_keys(functors):
    """Raw maps in insertion order, which the CLI's JSON output follows."""
    return [(list(F.ob_map.items()), list(F.mor_map.items())) for F in functors]


def map_keys(maps):
    return [[(o, list(c.items())) for o, c in h.components.items()]
            for h in maps]


def criterion_01_categories():
    rng = random.Random(20260809)
    return [random_category(rng) for _ in range(12)] + [delta_leq(1)]


# ---------------------------------------------------------------------------
# the core


def test_backtrack_yields_in_lexicographic_order_with_constants():
    # a[0] + a[1] == 3 over small integers, with 3 the constant at slot -1
    plus = {(x, y): x + y for x in range(4) for y in range(4)}
    constraints = constraint_lists(2, [(plus, (0, 1), -1)])
    budget = NodeBudget(None, "unused")
    got = [tuple(a[:2]) for a in backtrack([range(4), range(4)],
                                           constraints, budget, [3])]
    assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_backtrack_counts_one_node_per_candidate_and_raises_its_message():
    constraints = constraint_lists(2, [])
    budget = NodeBudget(6, "out of nodes")
    assert len(list(backtrack([range(2), range(2)], constraints, budget))) == 4
    assert budget.left == 0   # 2 + 2 * 2 candidates tried
    with pytest.raises(BudgetError, match="^out of nodes$"):
        list(backtrack([range(2), range(2)], constraints, NodeBudget(5, "out of nodes")))


def test_a_node_budget_error_names_its_kind_limit_and_reach():
    budget = NodeBudget(5, "out of nodes", "pairs")
    with pytest.raises(BudgetError, match="^out of nodes$") as err:
        list(backtrack([range(2), range(2)], constraint_lists(2, []), budget))
    assert (err.value.kind, err.value.limit, err.value.reached) == \
        ("pairs", 5, 6)


def test_too_many_functors_names_its_kind_limit_and_reach():
    # three functors from the point to three points, one allowed
    point, three = discrete_category(["o"]), discrete_category("xyz")
    assert len(enumerate_functors(point, three, max_results=3)) == 3
    with pytest.raises(BudgetError, match="^too many functors$") as err:
        enumerate_functors(point, three, max_results=1)
    assert (err.value.kind, err.value.limit, err.value.reached) == \
        ("functor_count", 1, 2)


def test_search_deeper_than_the_recursion_limit():
    # the recursive searches this core replaced raised RecursionError here
    C = discrete_category(["o"])
    elements = [f"x{k:05d}" for k in range(sys.getrecursionlimit() + 500)]
    X = SetDiagram.build(C, {"o": elements}, {"id_o": {e: e for e in elements}})
    Y = SetDiagram.build(C, {"o": ["y"]}, {"id_o": {"y": "y"}})
    assert len(enumerate_diagram_maps(X, Y)) == 1


def test_constraint_on_constants_alone_is_dropped():
    lists = constraint_lists(1, [({}, (-1,), -2), ({"x": "y"}, (0,), -1)])
    assert [len(c) for c in lists] == [1]


# ---------------------------------------------------------------------------
# functors


def test_functor_search_matches_oracle():
    cats = criterion_01_categories() + small_corpus()
    for C in cats:
        for D in cats:
            assert functor_keys(_iter_functors(C, D)) == \
                functor_keys(oracle._iter_functors(C, D))


def larger_functor_pairs():
    """Pairs whose search visits hundreds of nodes."""
    return [(delta_leq(1), delta_leq(2)), (chain_category(3), delta_leq(1)),
            (parallel_pair(), delta_leq(2))]


def test_functor_search_needs_the_oracle_budget():
    cats = criterion_01_categories()[:8] + [walking_arrow()]
    pairs = [(C, D) for C in cats for D in cats] + larger_functor_pairs()
    for C, D in pairs:
        assert_same_budget(
            lambda b: list(oracle._iter_functors(C, D, node_budget=b)),
            lambda b: list(_iter_functors(C, D, node_budget=b)))
    for C, D in larger_functor_pairs():
        assert functor_keys(_iter_functors(C, D)) == \
            functor_keys(oracle._iter_functors(C, D))


def oracle_lifting_budget(sq) -> int:
    """The nodes of the oracle's per-choice searches, summed: the minimal
    budget of one search that spends a single budget on every choice."""
    B, X = sq.left.codomain, sq.right.domain
    return sum(minimal_budget(
        lambda b: list(oracle._iter_functors(B, X, fixed_ob=pinned,
                                             mor_filter=mor_filter,
                                             node_budget=b)))
        for pinned, mor_filter in oracle.lifting_choices(sq))


def test_lifting_search_matches_oracle():
    # iter_liftings pins objects and filters morphisms through _iter_functors
    gens = (catmodel.default_generating_cofibrations()
            + catmodel.default_generating_acyclic_cofibrations())
    cats = small_corpus()[:4]
    squares = [sq for g in gens for C in cats for D in cats
               for F in fincat.enumerate_functors(C, D)[:4]
               for sq in enumerate_squares(g, F)]
    assert any(solve_lifting(sq) is None for sq in squares)
    for sq in squares:
        assert functor_keys(iter_liftings(sq)) == \
            functor_keys(oracle.iter_liftings(sq))
        budget = oracle_lifting_budget(sq)
        assert minimal_budget(lambda b: list(iter_liftings(sq, b))) == budget
        if budget:
            with pytest.raises(BudgetError,
                               match="^functor search exceeded node budget$"):
                list(iter_liftings(sq, budget - 1))


def test_lifting_budget_is_the_total_over_object_choices():
    # the empty category into the walking arrow, lifted against the walking
    # arrow over the point: each of the four object maps to {a, b} is a
    # choice, f has 1, 1, 0 and 1 candidates in them, so the search needs
    # 3 nodes, where a fresh budget per choice needed 1
    arrow, pt = walking_arrow(), fincat.terminal_category()
    empty_in = fincat.CatFunctor(fincat.empty_category(), arrow, {}, {})
    p = fincat.CatFunctor(arrow, pt, {"a": "pt", "b": "pt"},
                          {m: "id_pt" for m in arrow.morphisms})
    sq = catmodel.LiftingSquare(empty_in, p, empty_in, p)
    assert len(list(iter_liftings(sq))) == 3
    assert oracle_lifting_budget(sq) == 3
    assert minimal_budget(lambda b: list(iter_liftings(sq, b))) == 3
    assert max(minimal_budget(lambda b: list(oracle._iter_functors(
        arrow, arrow, fixed_ob=pinned, mor_filter=f, node_budget=b)))
        for pinned, f in oracle.lifting_choices(sq)) == 1


def random_functor_pairs(count):
    """Seeded pairs of parallel functors between the categories of the Kan
    generator (posets, discrete categories, ``walking_iso``, the parallel
    pair, Z/2) and Z/3."""
    rng = random.Random(20261019)
    z3 = group_category(cyclic_group(3))
    for _ in range(count):
        C, D = (rng.choice([random_category(rng), walking_iso(), z3])
                for _ in range(2))
        functors = enumerate_functors(C, D)
        yield rng.choice(functors), rng.choice(functors)


def test_natural_search_matches_the_product_loop():
    shapes = set()
    counts = []
    for F, G in random_functor_pairs(250):
        new, old = enumerate_naturals(F, G), oracle.enumerate_naturals(F, G)
        assert [list(nt.components.items()) for nt in new] == \
            [list(nt.components.items()) for nt in old]
        assert repr(new) == repr(old)
        for check, old_check in (
                (is_full, oracle.is_full), (is_faithful, oracle.is_faithful),
                (is_essentially_surjective, oracle.is_essentially_surjective)):
            assert check(F) == old_check(F)
        shapes.add((F.domain.objects, F.codomain.objects))
        counts.append(len(new))
    # the pairs reach several shapes, and hom-sets with none, one and
    # several transformations
    assert len(shapes) > 20 and {0, 1} < set(counts) and max(counts) > 2


def test_natural_search_budget_counts_nodes_not_the_product():
    # constant functors from the 3-chain onto Z/101: a component per object,
    # 101^3 tuples, past the old product bound of 1,000,000; each square
    # asks two components to agree, so the search tries 101 + 2 * 101^2
    # = 20,503 nodes and finds the 101 constant transformations
    C, D = chain_category(2), group_category(cyclic_group(101))
    F = CatFunctor(C, D, dict.fromkeys(C.objects, "*"),
                   dict.fromkeys(C.morphisms, D.identity["*"]))
    with pytest.raises(BudgetError,
                       match="^too many candidate transformations$"):
        oracle.enumerate_naturals(F, F)
    nts = enumerate_naturals(F, F, budget=20_503)
    assert [set(nt.components.values()) for nt in nts] == \
        [{g} for g in D.hom("*", "*")]
    with pytest.raises(BudgetError,
                       match="^too many candidate transformations$"):
        enumerate_naturals(F, F, budget=20_502)


def parallel_arrows(k):
    """Two objects and ``k`` parallel arrows ``a -> b``."""
    arrows = [f"f{j}" for j in range(k)]
    source = {"id_a": "a", "id_b": "b", **dict.fromkeys(arrows, "a")}
    target = {"id_a": "a", "id_b": "b", **dict.fromkeys(arrows, "b")}
    compose = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"}
    for m in arrows:
        compose[m, "id_a"] = compose["id_b", m] = m
    return fincat.FiniteCategory.build(["a", "b"], ["id_a", "id_b", *arrows],
                                       source, target,
                                       {"a": "id_a", "b": "id_b"}, compose)


def test_natural_search_memory_does_not_grow_with_the_product():
    # from the constant functor at a to the one at b, both components range
    # over the 300 arrows and the square asks them to agree: a table of the
    # square held 90,000 entries (12.7 MB peak), computed on read it holds
    # none, and the search keeps only its 300 transformations
    C, D = walking_arrow(), parallel_arrows(300)

    def constant(o):
        return CatFunctor(C, D, dict.fromkeys(C.objects, o),
                          dict.fromkeys(C.morphisms, D.identity[o]))
    F, G = constant("a"), constant("b")
    tracemalloc.start()
    try:
        nts = enumerate_naturals(F, G, budget=300 + 300 ** 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert repr(nts) == repr(oracle.enumerate_naturals(F, G))
    assert [nt.components for nt in nts] == [dict.fromkeys(C.objects, f)
                                             for f in D.hom("a", "b")]
    with pytest.raises(BudgetError):
        enumerate_naturals(F, G, budget=300 + 300 ** 2 - 1)


# ---------------------------------------------------------------------------
# diagram maps and diagram liftings


def criterion_01_diagram_pairs(count):
    rng = random.Random(20260809)
    for _ in range(count):
        iota, X, Y = tractable_instance(rng)
        LX, RX = setval.lan(iota, X), setval.ran(iota, X)
        rY = setval.restrict(iota, Y)
        yield from ((LX, Y), (X, rY), (rY, X), (Y, RX))


def test_diagram_map_search_matches_oracle():
    for X, Y in criterion_01_diagram_pairs(100):
        assert map_keys(enumerate_diagram_maps(X, Y)) == \
            map_keys(oracle.enumerate_diagram_maps(X, Y))


def corepresentable_pairs():
    """Sums of corepresentables: searches of up to a few thousand nodes."""
    for C in (chain_category(2), delta_leq(1), parallel_pair(), walking_iso()):
        reps = [corepresentable(C, o) for o in C.objects]
        Y, _ = coproduct_diagrams(reps + reps[:1])
        for X in reps + [Y]:
            yield X, Y


def test_diagram_map_search_needs_the_oracle_budget():
    pairs = list(criterion_01_diagram_pairs(10)) + list(corepresentable_pairs())
    for X, Y in pairs:
        assert_same_budget(
            lambda b: oracle.enumerate_diagram_maps(X, Y, b),
            lambda b: enumerate_diagram_maps(X, Y, b))
    for X, Y in corepresentable_pairs():
        assert map_keys(enumerate_diagram_maps(X, Y)) == \
            map_keys(oracle.enumerate_diagram_maps(X, Y))


def soa_square_cases():
    """The generators of the small-object-argument tests against two maps,
    and maps into two disjoint intervals against maps out of them."""
    shape = delta_leq1_op()
    gens, point, interval = soa_generators(shape)
    maps = [
        DiagramMap(point, point, {"[0]": {"v": "v"}, "[1]": {"sv": "sv"}}),
        DiagramMap(interval, point,
                   {"[0]": {"0": "v", "1": "v"},
                    "[1]": {"e": "sv", "s_0": "sv", "s_1": "sv"}}),
    ]
    cases = [(gen, p) for p in maps for gen in gens]
    two, _ = coproduct_diagrams([interval, interval])
    lefts = (enumerate_diagram_maps(interval, two)[:3]
             + enumerate_diagram_maps(point, two)[:2])
    cases += [(i, p) for i in lefts
              for p in enumerate_diagram_maps(two, interval)[:3]]
    return cases


def soa_lifting_problems():
    """The commuting squares on :func:`soa_square_cases`."""
    for i, p in soa_square_cases():
        for top, bottom in diagram_squares(i, p):
            yield i, p, top, bottom


def kan_diagram_maps(count):
    """Seeded maps between small diagrams over the shapes of the Kan
    generator: per instance, the unit and the counit of the Kan extensions
    and the first two maps each way between ``X`` and its restricted ``Y``."""
    rng = random.Random(20260809)
    for _ in range(count):
        iota, X, Y = tractable_instance(rng)
        rY = setval.restrict(iota, Y)
        yield ([setval.lan_unit(iota, X), setval.ran_counit(iota, X)]
               + enumerate_diagram_maps(rY, X)[:2]
               + enumerate_diagram_maps(X, rY)[:2])


def test_commuting_squares_match_the_named_search():
    cases = soa_square_cases()
    for maps in kan_diagram_maps(30):
        cases += [(i, p) for i in maps for p in maps]
    sizes = []
    for i, p in cases:
        new = diagram_squares(i, p)
        assert repr(new) == repr(oracle.diagram_squares(i, p))
        sizes.append(len(new))
    assert 0 in sizes and max(sizes) > 1


def test_diagram_lifting_search_matches_oracle():
    problems = list(soa_lifting_problems())
    assert any(solve_diagram_lifting(*sq) is None for sq in problems)
    assert any(solve_diagram_lifting(*sq) is not None for sq in problems)
    for sq in problems:
        new, old = solve_diagram_lifting(*sq), oracle.solve_diagram_lifting(*sq)
        assert map_keys([new] if new else []) == map_keys([old] if old else [])
        assert_same_budget(lambda b: oracle.solve_diagram_lifting(*sq, b),
                           lambda b: solve_diagram_lifting(*sq, b))


# ---------------------------------------------------------------------------
# operad and cyclic operad maps


def test_operad_map_search_matches_oracle():
    operads = [sign_operad(2), sign_operad(3), cycops.terminal_operad(3),
               cycops.associative_operad(2)]
    for P in operads:
        for Q in operads:
            if P.arity_bound == Q.arity_bound:
                assert cycops._enumerate_maps(P, Q) == oracle._enumerate_maps(P, Q)
    cyclic = [cycops.terminal_cyclic_operad(3), positive_terminal_cyclic(3),
              cycops.right_adjoint_R(sign_operad(3))]
    for Q1 in cyclic:
        for Q2 in cyclic:
            args = (Q1.operad, Q2.operad, Q1.extended, Q2.extended)
            assert cycops._enumerate_maps(*args) == oracle._enumerate_maps(*args)


def test_operad_map_search_is_budgeted():
    P = sign_operad(3)
    assert cycops._enumerate_maps(P, P)
    with pytest.raises(BudgetError, match="^operad map search exceeded budget$"):
        cycops._enumerate_maps(P, P, node_budget=3)
