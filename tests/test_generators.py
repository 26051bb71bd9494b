"""The fast passes of the Kan cores against the scans they replace.

``searchcore.generators`` against a brute-force closure, the coded
functoriality check (``coded._coded_error``), which tries the pairs whose
left factor is a generator first, against its exhaustive form in
``setval_oracle``, and the positional chase ``searchcore.least_members``
against a brute-force closure.
"""
import random

import pytest

import setval_oracle
from smallcat import fincat, kan, nabla, searchcore, standard
from smallcat.coded import CodedDiagram, _code, _coded_error
from smallcat.fincat import opposite
from smallcat.searchcore import least_members


SHAPES = {
    "joyal": lambda: opposite(nabla.nabla_category(2).category),
    "delta_leq(3)^op": lambda: opposite(nabla.delta_leq(3)),
    "C3": lambda: standard.group_category(fincat.cyclic_group(3)),
    "S3": lambda: standard.group_category(standard.symmetric_group(3)),
    "chain(3)": lambda: standard.chain_category(3),
    "walking iso": standard.walking_iso,
}


def non_identities(C):
    return set(C.morphisms) - set(C.identity.values())


def indecomposables(C):
    """The non-identity morphisms that are no composite of two."""
    rest = non_identities(C)
    return rest - {h for (f, g), h in C.compose.items()
                   if f in rest and g in rest}


def closure(C, gens):
    """Every composite of one or more of ``gens``, to a fixed point."""
    made = set(gens)
    while True:
        more = {C.compose[f, g] for f in made for g in made
                if C.composable(f, g)} - made
        if not more:
            return made
        made |= more


@pytest.mark.parametrize("name", SHAPES)
def test_generators_reach_every_morphism_and_hold_the_indecomposables(name):
    C = SHAPES[name]()
    gens = searchcore.generators(C)
    assert set(gens) <= non_identities(C)
    assert indecomposables(C) <= set(gens)
    assert closure(C, gens) >= non_identities(C)
    # kept on the category, outside its fields
    assert searchcore.generators(C) is gens
    assert C == SHAPES[name]() and repr(C) == repr(SHAPES[name]())


def test_the_groups_have_no_indecomposable_morphism():
    # so their generators all come from the greedy step
    for name in ("C3", "S3"):
        C = SHAPES[name]()
        assert indecomposables(C) == set()
        assert searchcore.generators(C)


def test_generators_of_the_joyal_shape():
    C = SHAPES["joyal"]()
    gens = searchcore.generators(C)
    ids = set(C.identity.values())
    assert (len(gens), len(C.morphisms)) == (8, 62)
    pairs = [(f, g) for f, g in C.compose if f not in ids and g not in ids]
    assert (sum(f in gens for f, _ in pairs), len(pairs)) == (166, 1451)


def corrupted(X: CodedDiagram, rng, k: int):
    """``k`` seeded copies of ``X``, each with one table entry moved to
    another element of its target."""
    C = X.shape
    spots = [(m, e) for m in C.morphisms for e in range(len(X.action[m]))
             if len(X.values[C.target[m]]) > 1]
    for m, e in rng.sample(spots, min(k, len(spots))):
        table = list(X.action[m])
        table[e] = rng.choice([v for v in range(len(X.values[C.target[m]]))
                               if v != table[e]])
        yield CodedDiagram(C, X.values, {**X.action, m: tuple(table)})


def test_coded_error_matches_the_exhaustive_scan_on_corruptions():
    # the same first error, or none, on single-entry corruptions of every
    # corepresentable over each shape
    rng = random.Random(20261020)
    cases, flagged = 0, set()
    for name, make in SHAPES.items():
        C = make()
        for x in C.objects:
            X = _code(kan.corepresentable(C, x))
            assert _coded_error(X) is setval_oracle.coded_error(X) is None
            for bad in corrupted(X, rng, 400):
                error = _coded_error(bad)
                assert error == setval_oracle.coded_error(bad), name
                cases += 1
                if error:
                    flagged.add(error.split(" ")[0])
    assert cases > 2000
    assert flagged == {"identity", "functoriality"}


@pytest.mark.parametrize("seed", range(20))
def test_least_members_names_the_classes_partition_names(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 60)
    items = rng.sample([f"({rng.choice('abc')},{k})" for k in range(400)], n)
    links = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(2 * n))]
    # the class of each position: everything a zig-zag of links reaches
    classes = [{k} for k in range(n)]
    for i, j in links:
        if classes[i] is not classes[j]:
            joined = classes[i] | classes[j]
            for k in joined:
                classes[k] = joined
    assert least_members(items, links) == [min(items[k] for k in cls)
                                           for cls in classes]
