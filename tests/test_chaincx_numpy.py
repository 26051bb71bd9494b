"""Seeded property tests: :mod:`smallcat.chaincx` on packed integer rows
against the numpy implementation it replaced, kept in :mod:`chaincx_numpy`,
entry for entry.

The primes stay inside numpy's int64-safe range: the reference sums
products of two entries below ``p`` in int64.
"""
import numpy as np
import pytest

import chaincx_numpy as npcx
from chaincx_bridge import (
    algebra_map_to_np,
    assert_same_complex,
    assert_same_map,
    assert_same_matrix,
    assert_same_module,
    complex_to_np,
    from_np,
    map_to_np,
    module_to_np,
    to_np,
)
from smallcat import chaincx, chainmaps, rings
from test_chaincx import random_complex

PRIMES = (2, 3, 5, 65521)


def random_array(rng, p, max_dim=7):
    """A random matrix over GF(p) as a numpy array: dense, of low rank, or
    with a zero row or column, of any shape up to ``max_dim`` (zero too)."""
    rows, cols = (int(n) for n in rng.integers(0, max_dim + 1, size=2))
    kind = int(rng.integers(0, 3))
    if kind == 1 and rows and cols:
        inner = int(rng.integers(0, min(rows, cols) + 1))
        a = (rng.integers(0, p, size=(rows, inner))
             @ rng.integers(0, p, size=(inner, cols))) % p
    else:
        a = rng.integers(0, p, size=(rows, cols))
    if kind == 2 and rows and cols:
        a[int(rng.integers(0, rows))] = 0
        a[:, int(rng.integers(0, cols))] = 0
    return a.astype(np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_matches_numpy(p):
    rng = np.random.default_rng(5000 + p)
    for _ in range(150):
        a = random_array(rng, p)
        m = from_np(a, p)
        red, pivots = chaincx.rref_mod(m, p)
        want_red, want_pivots = npcx.rref_mod(a, p)
        assert pivots == want_pivots
        assert_same_matrix(red, want_red)
        assert chaincx.rank_mod(m, p) == npcx.rank_mod(a, p)
        assert_same_matrix(chainmaps.nullspace_mod(m, p),
                           npcx.nullspace_mod(a, p))
        # one right-hand side in the column space, one random
        x = rng.integers(0, p, size=(a.shape[1], int(rng.integers(0, 3))))
        for b in ((a @ x) % p, rng.integers(0, p, size=(a.shape[0], 2))):
            got = chainmaps.solve_mod(m, from_np(b, p), p)
            want = npcx.solve_mod(a, b, p)
            assert (got is None) == (want is None)
            if want is not None:
                assert_same_matrix(got, want)


@pytest.mark.parametrize("p", PRIMES)
def test_products_match_numpy(p):
    rng = np.random.default_rng(6000 + p)
    for _ in range(100):
        a = random_array(rng, p)
        b = rng.integers(0, p, size=(a.shape[1], int(rng.integers(0, 5))))
        assert_same_matrix(chainmaps.matmul(from_np(a, p), from_np(b, p), p),
                           (a @ b) % p)
        c = random_array(rng, p, max_dim=3)
        assert_same_matrix(rings.kron(from_np(a, p), from_np(c, p), p),
                           np.kron(a, c) % p)
        # unreduced (negative) representatives are reduced on the way in
        assert from_np(a - p, p) == from_np(a, p)


@pytest.mark.parametrize("p", PRIMES)
def test_dense_elimination_matches_numpy(p):
    # wider than the random cases: full and deficient rank at 40 x 40
    rng = np.random.default_rng(7000 + p)
    full = rng.integers(0, p, size=(40, 40))
    low = (rng.integers(0, p, size=(40, 25)) @ rng.integers(0, p, size=(25, 40))) % p
    for a in (full, low, low.T.copy()):
        red, pivots = chaincx.rref_mod(from_np(a, p), p)
        want_red, want_pivots = npcx.rref_mod(a, p)
        assert pivots == want_pivots
        assert_same_matrix(red, want_red)


def random_chain_maps(rng, C, D):
    """``c * id + d h + h d`` for ``c`` zero and random, and the zero maps
    between ``C``, ``D`` and the zero complex."""
    p = C.p
    maps = []
    for c in (0, int(rng.integers(1, p))):
        h = {k: rng.integers(0, p, size=(C.dim(k - 1), C.dim(k)))
             for k in range(C.lo, C.hi + 2)}
        mats = {k: from_np(c * np.eye(C.dim(k), dtype=np.int64)
                           + to_np(C.d(k - 1)) @ h[k] + h[k + 1] @ to_np(C.d(k)), p)
                for k in range(C.lo, C.hi + 1)}
        maps.append(chainmaps.ComplexMap(C, C, mats))
    Z = chaincx.zero_complex(p)
    maps += [chainmaps.zero_map(C, D), chainmaps.zero_map(D, C),
             chainmaps.zero_map(C, Z), chainmaps.zero_map(Z, C)]
    for g in maps:
        assert chainmaps.validate_complex_map(g) == []
    return maps


@pytest.mark.parametrize("p", PRIMES)
def test_homology_and_truncations_match_numpy(p):
    rng = np.random.default_rng(8000 + p)
    verdicts = set()
    for _ in range(25):
        C, D = random_complex(rng, p), random_complex(rng, p)
        npC = complex_to_np(C)
        assert chaincx.homology_dims(C) == npcx.homology_dims(npC)
        assert_same_complex(chaincx.naive_truncate(C), npcx.naive_truncate(npC))
        assert_same_complex(chainmaps.homotopy_truncate(C),
                            npcx.homotopy_truncate(npC))
        for g in random_chain_maps(rng, C, D):
            npg = map_to_np(g)
            verdict = chainmaps.is_quasi_iso(g)
            assert verdict == npcx.is_quasi_iso(npg)
            verdicts.add(verdict)
            assert (chainmaps.is_degreewise_epi(g)
                    == npcx.is_degreewise_epi(npg))
            assert (chainmaps.is_degreewise_mono(g)
                    == npcx.is_degreewise_mono(npg))
            assert_same_map(chainmaps.naive_truncate_map(g),
                            npcx.naive_truncate_map(npg))
            assert_same_map(chainmaps.homotopy_truncate_map(g),
                            npcx.homotopy_truncate_map(npg))
    assert verdicts == {True, False}


def module_cases(p):
    """Algebra maps into and out of the dual numbers, each with modules
    over its source."""
    D = rings.dual_numbers(p)
    k = rings.field_algebra(p)
    over_d = [rings.regular_module(D), rings.free_module(D, 2),
              rings.trivial_module(D, rings.augmentation_dual_numbers(p))]
    return [(rings.AlgebraMap(D, D, chaincx.identity(2)), over_d),
            (rings.augmentation_dual_numbers(p), over_d),
            (rings.unit_inclusion(D), [rings.free_module(k, r)
                                       for r in range(4)])]


@pytest.mark.parametrize("p", PRIMES)
def test_induce_and_coinduce_records_and_transports_match_numpy(p):
    rng = np.random.default_rng(9000 + p)
    for f, modules in module_cases(p):
        npf = algebra_map_to_np(f)
        records = []
        for M in modules:
            npM = module_to_np(M)
            ind, want_ind = rings.induce(f, M), npcx.induce(npf, npM)
            assert_same_module(ind.module, want_ind.module)
            assert_same_matrix(ind.projection, want_ind.projection)
            assert_same_matrix(ind.section, want_ind.section)
            co, want_co = rings.coinduce(f, M), npcx.coinduce(npf, npM)
            assert_same_module(co.module, want_co.module)
            assert_same_matrix(co.basis, want_co.basis)
            records.append((M, ind, want_ind, co, want_co))
        for M, ind_m, np_ind_m, co_m, np_co_m in records:
            for N, ind_n, np_ind_n, co_n, np_co_n in records:
                basis = to_np(rings.module_hom_space(M, N))
                coeffs = rng.integers(0, p, size=basis.shape[1])
                g = ((basis @ coeffs) % p).reshape(M.dim, N.dim).T
                gm = from_np(g, p)
                assert_same_matrix(
                    rings._induce_transport(f, gm, ind_m, ind_n),
                    npcx._induce_transport(npf, g, np_ind_m, np_ind_n))
                assert_same_matrix(
                    rings._coinduce_transport(f, gm, co_m, co_n),
                    npcx._coinduce_transport(npf, g, np_co_m, np_co_n))
