import random

import pytest

from smallcat import fincat, nabla
from smallcat.fincat import validate_category, validate_functor
from smallcat.nabla import (
    TruncatedRealSimplicialSet,
    TruncatedSimplicialSet,
    build_nabla,
    conjugation_squares_hold,
    delta_leq,
    delta_name,
    flip_delta_morphism,
    flip_functor,
    from_involutive,
    generating_cofibrations,
    involution_levels,
    is_normal_mono,
    monotone_pair_category,
    nabla_action,
    nabla_category,
    representable_rsset,
    to_involutive,
    validate_rsset,
    validate_sset,
)
from smallcat.semidirect import validate_action
from smallcat.setval import (
    DiagramMap,
    SetDiagram,
    coproduct_diagrams,
    diagram_pushout,
    quotient_diagram,
    validate_diagram,
    validate_diagram_map,
)


def binomial(n, k):
    import math
    return math.comb(n, k)


def test_delta_leq_valid_and_hom_counts():
    for N in (0, 1, 2):
        delta = delta_leq(N)
        assert validate_category(delta) == []
        for m in range(N + 1):
            for n in range(N + 1):
                # weakly increasing maps [m] -> [n]
                assert len(delta.hom(f"[{m}]", f"[{n}]")) == \
                    binomial(m + n + 1, m + 1)


def test_flip_is_an_involutive_functor():
    for N in (1, 2):
        F = flip_functor(N)
        assert validate_functor(F) == []
        for m in F.domain.morphisms:
            assert flip_delta_morphism(flip_delta_morphism(m)) == m


def test_flip_example():
    # the face [0] -> [1] hitting 0 flips to the face hitting 1
    assert flip_delta_morphism(delta_name((0,), 1)) == delta_name((1,), 1)
    assert flip_delta_morphism(delta_name((0, 0, 1), 1)) == \
        delta_name((0, 1, 1), 1)


def test_nabla_action_valid():
    for N in (1, 2):
        assert validate_action(nabla_action(N)) == []


def test_hom_count_at_zero_zero_is_two():
    pres = build_nabla(1)
    for C in (pres.semidirect.category, pres.pairs):
        assert len(C.hom("[0]", "[0]")) == 2


def test_hom_counts_double_delta():
    for N in (1, 2):
        pres = build_nabla(N)
        delta = delta_leq(N)
        for m in range(N + 1):
            for n in range(N + 1):
                expected = 2 * len(delta.hom(f"[{m}]", f"[{n}]"))
                assert len(pres.semidirect.category.hom(f"[{m}]", f"[{n}]")) \
                    == expected
                assert len(pres.pairs.hom(f"[{m}]", f"[{n}]")) == expected


def test_presentations_isomorphic_small():
    for N in (0, 1, 2):
        pres = build_nabla(N)
        assert pres.isomorphic
        assert validate_functor(pres.iso) == []
        assert len(set(pres.iso.mor_map.values())) == \
            len(pres.semidirect.category.morphisms)


def test_nabla_leq2_validates():
    C = nabla_category(2).category
    assert validate_category(C) == []
    assert validate_category(monotone_pair_category(2)) == []


def test_representable_rsset_valid_and_counts():
    X = representable_rsset(1, 1)
    assert validate_rsset(X) == []
    # six one-simplices: twice the three order-preserving maps [1] -> [1]
    assert len(X.simplices(1)) == 6
    assert len(X.simplices(0)) == 4


def test_to_involutive_roundtrip_on_representable():
    X = representable_rsset(1, 1)
    A, sigma = to_involutive(X)
    assert validate_sset(A) == []
    back = from_involutive(A, sigma)
    assert back.diagram == X.diagram


def test_involutions_square_to_identity():
    for n in (0, 1):
        X = representable_rsset(1, n)
        sigma = involution_levels(X)
        for lvl, s in sigma.items():
            for e in s:
                assert s[s[e]] == e


def test_conjugation_squares_hold_on_representables():
    for n in (0, 1):
        assert conjugation_squares_hold(representable_rsset(1, n))
    assert conjugation_squares_hold(representable_rsset(2, 2))


def test_from_involutive_rejects_non_involution():
    X = representable_rsset(1, 0)
    A, sigma = to_involutive(X)
    bad = {k: dict(v) for k, v in sigma.items()}
    # break the square-to-one axiom at level 1
    keys = sorted(bad[1])
    if len(keys) >= 2:
        bad[1][keys[0]] = keys[1]
        bad[1][keys[1]] = keys[1]
    with pytest.raises(ValueError):
        from_involutive(A, bad)


def test_from_involutive_trivial_involution_on_constant():
    # a constant simplicial set with identity involution is a valid input
    N = 1
    delta = delta_leq(N)
    shape = fincat.opposite(delta)
    values = {o: ("c",) for o in shape.objects}
    action = {m: {"c": "c"} for m in shape.morphisms}
    A = TruncatedSimplicialSet(N, SetDiagram.build(shape, values, action))
    assert validate_sset(A) == []
    sigma = {n: {"c": "c"} for n in range(N + 1)}
    X = from_involutive(A, sigma)
    assert validate_rsset(X) == []


def glued_rsset(N, seed, max_glue=2):
    """Deterministic pseudo-random real simplicial set: a coproduct of
    signed representables with action-closed gluings."""
    rng = random.Random(seed)
    dims = [rng.randint(0, min(1, N)) for _ in range(rng.randint(1, 3))]
    summands = [representable_rsset(N, d).diagram for d in dims]
    total, _ = coproduct_diagrams(summands)
    pairs = []
    for _ in range(rng.randint(0, max_glue)):
        obj = rng.choice(sorted(total.values))
        if len(total.values[obj]) >= 2:
            a, b = rng.sample(sorted(total.values[obj]), 2)
            pairs.append((obj, a, b))
    Q, _ = quotient_diagram(total, pairs)
    return TruncatedRealSimplicialSet(N, Q)


def test_roundtrip_on_glued_random_inputs():
    for seed in range(8):
        X = glued_rsset(2, seed)
        assert validate_rsset(X) == []
        A, sigma = to_involutive(X)
        back = from_involutive(A, sigma)
        assert back.diagram == X.diagram


def test_is_normal_mono_identity():
    X = representable_rsset(1, 1)
    ident = DiagramMap(X.diagram, X.diagram,
                       {o: {e: e for e in X.diagram.values[o]}
                        for o in X.diagram.shape.objects})
    assert is_normal_mono(ident)


def test_generating_cofibrations_dimension_zero():
    gens = generating_cofibrations(1)
    g0 = gens[0]
    # extension of (empty -> point): two zero-simplices swapped by the flip
    assert g0.source.total_elements() == 0
    tgt = TruncatedRealSimplicialSet(1, g0.target)
    assert len(tgt.simplices(0)) == 2
    sigma = involution_levels(tgt)
    a, b = tgt.simplices(0)
    assert sigma[0][a] == b and sigma[0][b] == a


def test_generating_cofibrations_all_normal():
    for N in (1, 2):
        gens = generating_cofibrations(N)
        assert len(gens) == N + 1
        for g in gens:
            assert validate_diagram_map(g) == []
            assert is_normal_mono(g)


def test_missing_fixed_simplex_breaks_normality():
    # target with a swap-fixed zero simplex outside the image
    N = 1
    sd = nabla_category(N)
    shape = fincat.opposite(sd.category)
    delta = delta_leq(N)
    values = {"[0]": ("p",), "[1]": ("sp",)}
    action = {}
    for name, (phi, g) in sd.pair_of.items():
        src = sd.category.source[name]
        action[name] = {"p": "p"} if src == "[0]" else {"sp": "sp"}
    # fix: action keyed on the presheaf domain (the nabla target object)
    action = {}
    for name in sd.category.morphisms:
        dom = sd.category.target[name]   # presheaf acts from the target level
        if dom == "[0]":
            action[name] = {"p": "p" if sd.category.source[name] == "[0]" else "sp"}
        else:
            action[name] = {"sp": "sp" if sd.category.source[name] == "[1]" else "p"}
    Y = SetDiagram.build(shape, values, action)
    assert validate_diagram(Y) == []
    rs = TruncatedRealSimplicialSet(N, Y)
    assert validate_rsset(rs) == []
    empty = SetDiagram.build(shape, {o: () for o in shape.objects},
                             {m: {} for m in shape.morphisms})
    inc = DiagramMap(empty, Y, {o: {} for o in shape.objects})
    assert not is_normal_mono(inc)


def test_pushouts_of_generators_stay_normal():
    N = 1
    gens = generating_cofibrations(N)
    g = gens[1]
    X = representable_rsset(N, 1).diagram
    from smallcat.setval import enumerate_diagram_maps
    maps = enumerate_diagram_maps(g.source, X)[:3]
    assert maps
    for u in maps:
        P, from_X, from_cell = diagram_pushout(u, g)
        assert validate_diagram(P) == []
        assert is_normal_mono(from_X)


def test_normal_monos_closed_under_composition():
    N = 1
    gens = generating_cofibrations(N)
    g0 = gens[0]   # empty -> signed point pair
    # compose with the coproduct injection into a larger target
    other = representable_rsset(N, 0).diagram
    total, (inj, _) = coproduct_diagrams([g0.target, other])
    composite = DiagramMap(g0.source, total, {
        o: {e: inj.components[o][g0.components[o][e]]
            for e in g0.source.values[o]}
        for o in g0.source.shape.objects})
    assert validate_diagram_map(inj) == []
    assert is_normal_mono(inj)
    assert validate_diagram_map(composite) == []
    assert is_normal_mono(composite)
