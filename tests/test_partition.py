"""The quotients on ``fincat.least_members`` against the relabelling code
they replaced.

``partition_oracle`` keeps the old colimit, quotient, component and
category-pushout code verbatim.  On seeded inputs the union-find versions
must give the same class names, in the same order.  A property test checks
``least_members`` itself against a brute-force reachability closure.
"""
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import partition_oracle as oracle
from test_acceptance import random_category, random_functor, tractable_instance
from test_catmodel import point_into_iso

from smallcat.catmodel import pushout_category
from smallcat.fincat import (
    BudgetError,
    CatFunctor,
    chain_category,
    cyclic_group,
    coproduct,
    discrete_category,
    generators,
    group_category,
    identity_functor,
    least_members,
    parallel_pair,
    terminal_category,
    walking_arrow,
    walking_iso,
)
from smallcat.setval import (
    SetDiagram,
    colimit,
    comma_over,
    comma_under,
    connected_components,
    coproduct_diagrams,
    corepresentable,
    quotient_diagram,
    restrict,
)


def same(new, old):
    """Equal, and every dict in the same insertion order."""
    assert new == old
    assert repr(new) == repr(old)


def random_pairs(rng, X, k):
    """Up to ``k`` random ``(object, e, e')`` pairs of elements of ``X``."""
    pairs = []
    for _ in range(rng.randint(0, k) if X.shape.objects else 0):
        o = rng.choice(sorted(X.shape.objects))
        if len(X.values[o]) >= 2:
            pairs.append((o, *rng.sample(sorted(X.values[o]), 2)))
    return pairs


def check_diagram(rng, X):
    same(colimit(X), oracle.colimit(X))
    pairs = random_pairs(rng, X, 3)
    same(quotient_diagram(X, pairs), oracle.quotient_diagram(X, pairs))


def check_category(C):
    same(connected_components(C), oracle.connected_components(C))


def check_pushout(i, f, **budget):
    try:
        old = oracle.pushout_category(i, f, **budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=f"^{re.escape(str(exc))}$"):
            pushout_category(i, f, **budget)
        return
    same(pushout_category(i, f, **budget), old)


# ---------------------------------------------------------------------------
# the five former relabellings


def test_criterion_01_colimits_quotients_and_components():
    rng = random.Random(20260809)
    for _ in range(100):
        iota, X, Y = tractable_instance(rng)
        C, D = iota.domain, iota.codomain
        check_diagram(rng, X)
        check_diagram(rng, Y)
        check_category(C)
        check_category(D)
        for d in D.objects:
            for K in (comma_over(iota, d), comma_under(d, iota)):
                check_category(K.category)
                check_diagram(rng, restrict(K.projection, X))


def test_quotients_of_sums_of_corepresentables():
    # the shapes and sizes of test_setval's random_small_diagram
    rng = random.Random(424242)
    shapes = [parallel_pair(), walking_arrow(), discrete_category("pq"),
              chain_category(2), terminal_category(), walking_iso()]
    for _ in range(150):
        C = rng.choice(shapes)
        total, _ = coproduct_diagrams(
            [corepresentable(C, rng.choice(sorted(C.objects)))
             for _ in range(rng.randint(1, 3))])
        pairs = random_pairs(rng, total, 4)
        Q, proj = quotient_diagram(total, pairs)
        same((Q, proj), oracle.quotient_diagram(total, pairs))
        same(colimit(Q), oracle.colimit(Q))


def constant(C, points):
    """The constant diagram on ``points``: every morphism acts as the
    identity."""
    return SetDiagram.build(C, dict.fromkeys(C.objects, points),
                            {m: {x: x for x in points} for m in C.morphisms})


def test_one_pass_quotients_of_sums_of_corepresentables_and_constants():
    rng = random.Random(20261020)
    shapes = [parallel_pair(), walking_arrow(), chain_category(3),
              walking_iso(), group_category(cyclic_group(3)),
              discrete_category("pq")]
    for _ in range(200):
        C = rng.choice(shapes)
        total, _ = coproduct_diagrams([
            corepresentable(C, rng.choice(C.objects)) if rng.random() < 0.7
            else constant(C, [f"c{k}" for k in range(rng.randint(1, 3))])
            for _ in range(rng.randint(1, 3))])
        pairs = random_pairs(rng, total, 3)
        same(quotient_diagram(total, pairs),
             oracle.quotient_diagram(total, pairs))


def test_a_quotient_joins_the_images_of_a_pair_under_a_composite():
    # le_0_2 is no generator of the chain, yet the pair at 0 must join its
    # two images under it at 2
    C = chain_category(2)
    assert "le_0_2" not in generators(C)
    total, _ = coproduct_diagrams([corepresentable(C, "0")] * 2)
    pairs = [("0", "(0,id_0)", "(1,id_0)")]
    Q, proj = quotient_diagram(total, pairs)
    same((Q, proj), oracle.quotient_diagram(total, pairs))
    assert Q.values == {"0": ("(0,id_0)",), "1": ("(0,le_0_1)",),
                        "2": ("(0,le_0_2)",)}


def test_a_quotient_by_pairs_in_two_objects():
    C = chain_category(2)
    total, _ = coproduct_diagrams([corepresentable(C, "1"),
                                   corepresentable(C, "0"),
                                   constant(C, ["c"])])
    pairs = [("1", "(0,id_1)", "(2,c)"), ("0", "(1,id_0)", "(2,c)")]
    Q, proj = quotient_diagram(total, pairs)
    same((Q, proj), oracle.quotient_diagram(total, pairs))
    assert Q.values == {"0": ("(1,id_0)",), "1": ("(0,id_1)",),
                        "2": ("(0,le_1_2)",)}


def cyclic_action(rng, n, k):
    """``Z/n`` acting on ``k`` points by a random permutation whose cycles
    have length 1 or ``n``."""
    points = [str(j) for j in range(k)]
    rng.shuffle(points)
    step, start = {}, 0
    while start < k:
        cycle = points[start:start + rng.choice((1, n))]
        cycle = cycle if len(cycle) in (1, n) else cycle[:1]
        for j, x in enumerate(cycle):
            step[x] = cycle[(j + 1) % len(cycle)]
        start += len(cycle)
    action, power = {}, {x: x for x in points}
    for j in range(n):
        action[f"g{j}"] = power
        power = {x: step[power[x]] for x in points}
    return SetDiagram.build(group_category(cyclic_group(n)),
                            {"*": points}, action)


def test_quotients_under_cyclic_group_actions():
    # with endomorphisms only, every image of a pair lands at its own
    # object, and the group's elements are closed under composition
    rng = random.Random(5)
    for _ in range(200):
        X = cyclic_action(rng, rng.choice((2, 3)), rng.randint(3, 7))
        check_diagram(rng, X)


def test_components_of_random_categories():
    rng = random.Random(7)
    for _ in range(60):
        C, D = random_category(rng), random_category(rng)
        check_category(C)
        check_category(coproduct(C, D))


def test_pushouts_of_the_catmodel_cases():
    A, pt = walking_arrow(), terminal_category()
    two = coproduct(pt, pt)
    to_iso = CatFunctor(A, walking_iso(), {"a": "a", "b": "b"},
                        {"id_a": "id_a", "id_b": "id_b", "f": "u"})
    ends = CatFunctor(two, A, {"pt#0": "a", "pt#1": "b"},
                      {"id_pt#0": "id_a", "id_pt#1": "id_b"})
    at = {x: CatFunctor(pt, A, {"pt": x}, {"id_pt": f"id_{x}"})
          for x in A.objects}
    collapse = CatFunctor(two, pt, {"pt#0": "pt", "pt#1": "pt"},
                          {"id_pt#0": "id_pt", "id_pt#1": "id_pt"})
    check_pushout(identity_functor(A), to_iso)
    check_pushout(ends, identity_functor(two))
    check_pushout(at["b"], at["a"])
    check_pushout(ends, collapse, max_morphisms=30)
    check_pushout(at["a"], point_into_iso())
    check_pushout(at["b"], point_into_iso())


def test_pushouts_of_random_spans():
    rng = random.Random(11)
    for _ in range(25):
        A = discrete_category([f"a{k}" for k in range(rng.randint(1, 2))])
        i = random_functor(rng, A, random_category(rng))
        f = random_functor(rng, A, random_category(rng))
        check_pushout(i, f, max_morphisms=60, max_word_len=6)


# ---------------------------------------------------------------------------
# the partition itself


def closure(edges, x):
    """Everything joined to ``x`` by a zig-zag of ``edges``."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for a, b in edges:
            for u, v in ((a, b), (b, a)):
                if u == y and v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


names = st.text(alphabet="ab:(),#", max_size=4)


@settings(derandomize=True, database=None)
@given(st.data())
def test_partition_matches_reachability_closure(data):
    items = data.draw(st.lists(names, min_size=1, max_size=10, unique=True))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(items),
                                         st.sampled_from(items)), max_size=15))
    at = {x: k for k, x in enumerate(items)}
    least = dict(zip(items, least_members(
        items, [(at[a], at[b]) for a, b in pairs])))
    for x in items:
        cls = closure(pairs, x)
        assert least[x] == min(cls)
        assert {y for y in items if least[y] == least[x]} == cls
