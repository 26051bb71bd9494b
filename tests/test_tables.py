"""``fincat.tabulate`` against the hand-written table loops it replaced.

``tables_oracle`` keeps the six old builders, the old comma categories and
the old ``invcat.induced_map`` verbatim.  On the inputs below the new
versions must give equal results with equal ``repr``, so every ``compose``
table is filled in the same order.  A property test checks that categories
built through ``tabulate`` always validate.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import tables_oracle as oracle
from test_acceptance import random_category, random_functor, tractable_instance

from smallcat import invcat
from smallcat.fincat import (
    CatFunctor,
    FiniteCategory,
    chain_category,
    cyclic_group,
    discrete_category,
    enumerate_functors,
    opposite,
    poset_category,
    tabulate,
    validate_category,
)
from smallcat.nabla import delta_leq, monotone_pair_category, nabla_action
from smallcat.sdcheck import (
    permutation_action,
    trivial_action,
    validate_action,
)
from smallcat.semidirect import GroupAction, semidirect
from smallcat.setval import comma_over, comma_under
from smallcat.standard import (
    empty_category,
    indiscrete_category,
    symmetric_group,
)


def same(new, old):
    """Equal, and every dict in the same insertion order."""
    assert new == old
    assert repr(new) == repr(old)


def poset_relation(rng: random.Random, n: int) -> tuple[list[str], set]:
    """``n`` shuffled names and a random partial order on them."""
    names = [f"n{i}" for i in range(n)]
    leq = {(a, a) for a in names}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            leq.add((names[i], names[j]))
    for b, a, c in itertools.product(names, repeat=3):
        if (a, b) in leq and (b, c) in leq:
            leq.add((a, c))
    rng.shuffle(names)
    return names, leq


def cyclic_permutation_action(perm: list[int], indiscrete: bool) -> GroupAction:
    """The cyclic group generated by ``perm`` acting on the points
    ``p0, p1, ...`` of a discrete or indiscrete category."""
    points = [f"p{i}" for i in range(len(perm))]
    powers = [list(range(len(perm)))]
    while len(powers) == 1 or powers[-1] != powers[0]:
        powers.append([perm[i] for i in powers[-1]])
    G = cyclic_group(len(powers) - 1)
    C = indiscrete_category(points) if indiscrete else discrete_category(points)
    return permutation_action(G, C, {
        f"g{k}": {points[i]: points[q[i]] for i in range(len(perm))}
        for k, q in enumerate(powers[:-1])})


def s3_on_indiscrete_three() -> GroupAction:
    points = ["p0", "p1", "p2"]
    G = symmetric_group(3)
    return permutation_action(G, indiscrete_category(points), {
        g: {f"p{i}": f"p{g[i]}" for i in range(3)} for g in G.elements})


# ---------------------------------------------------------------------------
# the six builders and the comma categories against the old loops


@pytest.mark.parametrize("N", range(5))
def test_signed_simplex_tables_match_the_old_loops(N):
    same(semidirect(nabla_action(N)), oracle.semidirect(nabla_action(N)))
    same(monotone_pair_category(N), oracle.monotone_pair_category(N))


def test_chains_and_indiscrete_categories_match_the_old_loops():
    for n in range(13):
        same(chain_category(n), oracle.chain_category(n))
    for names in ([], ["x"], ["b", "a"], ["p0", "p1", "p2"], list("dcba")):
        same(indiscrete_category(names), oracle.indiscrete_category(names))


def test_posets_match_the_old_loop():
    rng = random.Random(1210)
    for _ in range(200):
        names, leq = poset_relation(rng, rng.randint(0, 5))
        same(poset_category(names, lambda x, y: (x, y) in leq),
             oracle.poset_category(names, lambda x, y: (x, y) in leq))


def test_permutation_actions_match_the_old_loop():
    rng = random.Random(3)
    actions = [s3_on_indiscrete_three(),
               trivial_action(cyclic_group(3), chain_category(2))]
    for _ in range(20):
        perm = list(range(rng.randint(1, 4)))
        rng.shuffle(perm)
        actions.append(cyclic_permutation_action(perm, rng.random() < 0.5))
    for action in actions:
        assert validate_action(action) == []
        same(semidirect(action), oracle.semidirect(action))


def test_criterion_01_commas_match_the_old_loop():
    rng = random.Random(20260809)
    for _ in range(100):
        iota, _, _ = tractable_instance(rng)
        for d in iota.codomain.objects:
            same(comma_over(iota, d), oracle.comma_over(iota, d))
            same(comma_under(d, iota), oracle.comma_under(d, iota))


def test_induced_map_matches_the_old_envelope_map():
    rng = random.Random(511)
    cases = [CatFunctor(empty_category(), D, {}, {})
             for D in (empty_category(), chain_category(1))]
    for _ in range(60):
        C, D = random_category(rng), random_category(rng)
        cases.append(random_functor(rng, C, D))
    for f in cases:
        same(invcat.induced_map(f), oracle.induced_map(f))


def test_tabulate_fills_only_composable_pairs_in_order():
    source = {"i": "x", "j": "y", "f": "x"}
    target = {"i": "x", "j": "y", "f": "y"}
    C = tabulate(["y", "x"], ["j", "f", "i"], source, target,
                 {"x": "i", "y": "j"},
                 lambda f, g: g if f in ("i", "j") else f)
    assert C.objects == ("x", "y") and C.morphisms == ("f", "i", "j")
    assert list(C.compose) == [("j", "j"), ("j", "f"), ("f", "i"), ("i", "i")]
    assert validate_category(C) == []


def test_build_copies_and_fresh_tables_are_taken(monkeypatch):
    # build copies every table it is given, so its caller keeps its own
    compose = {("i", "i"): "i"}
    C = FiniteCategory.build(["x"], ["i"], {"i": "x"}, {"i": "x"}, {"x": "i"},
                             compose)
    compose[("i", "i")] = "j"
    assert C.compose == {("i", "i"): "i"}
    # tabulate, opposite and delta_leq build a fresh table and hand it over
    # without the pair-by-pair copy
    P = poset_category(["a", "b", "c"], lambda x, y: x <= y)
    want = [delta_leq(2), P, opposite(P), opposite(opposite(P))]

    def copying(cls, *args):
        raise AssertionError("a fresh table went through build")
    monkeypatch.setattr(FiniteCategory, "build", classmethod(copying))
    got = [delta_leq.__wrapped__(2),
           poset_category(["a", "b", "c"], lambda x, y: x <= y),
           opposite(P), opposite(opposite(P))]
    for new, old in zip(got, want):
        same(new, old)
    assert validate_category(got[0]) == []


# ---------------------------------------------------------------------------
# built through tabulate, always a category


@st.composite
def posets(draw) -> FiniteCategory:
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    names, leq = poset_relation(rng, draw(st.integers(0, 4)))
    return poset_category(names, lambda x, y: (x, y) in leq)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_tabulated_categories_validate(data):
    C = data.draw(posets())
    assert validate_category(C) == []
    n = data.draw(st.integers(1, 4))
    perm = data.draw(st.permutations(range(n)))
    action = cyclic_permutation_action(perm, data.draw(st.booleans()))
    assert validate_category(semidirect(action).category) == []
    D = data.draw(posets())
    functors = enumerate_functors(C, D, max_results=200)
    if functors:
        iota = functors[data.draw(st.integers(0, len(functors) - 1))]
        for d in D.objects:
            assert validate_category(comma_over(iota, d).category) == []
            assert validate_category(comma_under(d, iota).category) == []
