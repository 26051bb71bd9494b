"""Published counts as independent oracles for the searches.

Each count comes from the literature, not from this package: monotone maps
between chains (a binomial coefficient), labelled and unlabelled partial
orders (OEIS A001035 and A000112) and monoids up to isomorphism (OEIS
A058129).  The objects are generated here, by brute force that shares no
code with the library, and the library's functor enumeration and
isomorphism search must reproduce the counts.  The constructors are called
through their old paths in :mod:`smallcat.fincat`.
"""
import itertools
import math
import random

import pytest

from smallcat import fincat

# n -> labelled partial orders on n points (A001035), and their classes
# up to isomorphism (A000112)
LABELLED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219}
POSETS = {1: 1, 2: 2, 3: 5, 4: 16}
# n -> monoids of order n up to isomorphism (A058129)
MONOIDS = {1: 1, 2: 2, 3: 7, 4: 35}


@pytest.mark.parametrize("m", range(5))
def test_functors_between_chains_are_counted_by_binomials(m):
    # a functor [m] -> [n] is a monotone map of m + 1 points into n + 1
    for n in range(5):
        functors = fincat.enumerate_functors(fincat.chain_category(m),
                                             fincat.chain_category(n))
        assert len(functors) == math.comb(m + n + 1, m + 1), (m, n)


def partial_orders(n: int) -> list[set[tuple[int, int]]]:
    """Every partial order on ``0..n-1``, as its set of strict pairs."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    orders = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        less = {p for p, b in zip(pairs, bits) if b}
        if any((y, x) in less for x, y in less):
            continue
        if all((x, z) in less for x, y in less for y2, z in less if y == y2):
            orders.append(less)
    return orders


def classes(categories: list) -> int:
    """The number of isomorphism classes among ``categories``, as
    :func:`find_isomorphism` decides them.  Only categories with the same
    hom-set sizes, in some order of the objects, are compared."""
    reps: dict[tuple, list] = {}
    for C in categories:
        homs = sorted(sorted(len(C.hom(x, y)) for y in C.objects)
                      for x in C.objects)
        bucket = reps.setdefault((len(C.morphisms), str(homs)), [])
        if not any(fincat.find_isomorphism(R, C) for R in bucket):
            bucket.append(C)
    return sum(map(len, reps.values()))


@pytest.mark.parametrize("n", sorted(POSETS))
def test_posets_match_the_published_counts(n):
    names = [str(k) for k in range(n)]
    cats = [fincat.poset_category(
                names, lambda x, y, less=less: x == y
                or (int(x), int(y)) in less)
            for less in partial_orders(n)]
    assert len(cats) == LABELLED_POSETS[n]
    assert classes(cats) == POSETS[n]


def monoid_tables(n: int) -> list[dict[tuple[int, int], int]]:
    """Every associative table on ``0..n-1`` with identity 0: the products
    of nonidentity elements are chosen in order, and a choice is dropped
    as soon as a bracketing it completes disagrees."""
    table = {}
    for a in range(n):
        table[0, a] = table[a, 0] = a
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    found = []

    def associative() -> bool:
        for (a, b), ab in list(table.items()):
            for c in range(n):
                bc = table.get((b, c))
                left, right = table.get((ab, c)), table.get((a, bc))
                if None not in (bc, left, right) and left != right:
                    return False
        return True

    def extend(k: int) -> None:
        if k == len(cells):
            found.append(dict(table))
            return
        for value in range(n):
            table[cells[k]] = value
            if associative():
                extend(k + 1)
        del table[cells[k]]

    extend(0)
    return found


def one_object_category(table: dict[tuple[int, int], int]):
    """The monoid of ``table`` as a category with one object."""
    els = sorted({a for a, _ in table})
    name = {a: f"m{a}" for a in els}
    return fincat.FiniteCategory.build(
        ["*"], name.values(), {name[a]: "*" for a in els},
        {name[a]: "*" for a in els}, {"*": name[0]},
        {(name[a], name[b]): name[c] for (a, b), c in table.items()})


@pytest.mark.parametrize("n", sorted(MONOIDS))
def test_monoids_match_the_published_counts(n):
    cats = [one_object_category(t) for t in monoid_tables(n)]
    for C in cats:
        assert fincat.validate_category(C) == []
    assert classes(cats) == MONOIDS[n]


def brute_force_faults(table: dict[tuple[int, int], int], n: int) -> set[str]:
    """Which monoid axioms ``table`` breaks, with 0 as its identity."""
    faults = set()
    if any(table[0, a] != a or table[a, 0] != a for a in range(n)):
        faults.add("unit")
    if any(table[table[a, b], c] != table[a, table[b, c]]
           for a, b, c in itertools.product(range(n), repeat=3)):
        faults.add("associativity")
    return faults


def flagged(errors: list[str]) -> set[str]:
    """The axioms :func:`validate_category` reports broken; any other
    message stands for itself and fails the comparison."""
    return {"unit" if " unit fails at " in e
            else "associativity" if e.startswith("associativity fails at ")
            else e for e in errors}


@pytest.mark.parametrize("n", [n for n in sorted(MONOIDS) if n > 1])
def test_validate_category_flags_exactly_the_corrupted_monoids(n):
    # four seeded single-entry corruptions of every monoid table: each
    # moves one product, identity row and column included, to another
    # element
    rng = random.Random(f"monoid-corruptions-{n}")
    seen = set()
    for table in monoid_tables(n):
        assert brute_force_faults(table, n) == set()
        for _ in range(4):
            cell = rng.choice(sorted(table))
            bad = {**table, cell: rng.choice(
                [v for v in range(n) if v != table[cell]])}
            faults = brute_force_faults(bad, n)
            assert flagged(fincat.validate_category(
                one_object_category(bad))) == faults, (table, cell, bad[cell])
            seen.add(frozenset(faults))
    # some corruptions give another monoid, and some break an axiom
    assert frozenset() in seen and len(seen) > 1
