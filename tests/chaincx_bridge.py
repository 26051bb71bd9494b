"""Conversions from :mod:`smallcat.chaincx` objects to those of the numpy
reference :mod:`chaincx_numpy`, and entry-for-entry comparisons of a
result of the first with one of the second."""
import numpy as np

import chaincx_numpy as npcx
from smallcat import chaincx, chainmaps, rings


def to_np(m: chaincx.Matrix) -> np.ndarray:
    return np.array(m.rows, dtype=np.int64).reshape(m.shape)


def from_np(a: np.ndarray, p: int) -> chaincx.Matrix:
    return chaincx.matrix(a, p, a.shape[1])


def complex_to_np(C: chaincx.FiniteComplex) -> npcx.FiniteComplex:
    return npcx.FiniteComplex(C.p, C.lo, C.hi, dict(C.dims),
                              {k: to_np(m) for k, m in C.diff.items()})


def map_to_np(g: chainmaps.ComplexMap) -> npcx.ComplexMap:
    return npcx.ComplexMap(complex_to_np(g.source), complex_to_np(g.target),
                           {k: to_np(m) for k, m in g.mats.items()})


def algebra_to_np(A: rings.FiniteAlgebra) -> npcx.FiniteAlgebra:
    structure = np.array([s.rows for s in A.structure],
                         dtype=np.int64).reshape(A.dim, A.dim, A.dim)
    return npcx.FiniteAlgebra(A.p, A.dim, structure,
                              np.array(A.unit, dtype=np.int64))


def algebra_map_to_np(f: rings.AlgebraMap) -> npcx.AlgebraMap:
    return npcx.AlgebraMap(algebra_to_np(f.source), algebra_to_np(f.target),
                           to_np(f.matrix))


def module_to_np(M: rings.AlgebraModule) -> npcx.AlgebraModule:
    action = np.array([a.rows for a in M.action], dtype=np.int64)
    return npcx.AlgebraModule(algebra_to_np(M.algebra), M.dim,
                              action.reshape(M.algebra.dim, M.dim, M.dim))


def modules_to_np(mods: dict) -> dict:
    return {k: module_to_np(M) for k, M in mods.items()}


def assert_same_matrix(got: chaincx.Matrix, want: np.ndarray) -> None:
    assert isinstance(got, chaincx.Matrix)
    assert got.shape == want.shape
    assert [list(row) for row in got.rows] == want.tolist()


def assert_same_complex(got: chaincx.FiniteComplex, want) -> None:
    assert (got.p, got.lo, got.hi, got.dims) == \
        (want.p, want.lo, want.hi, want.dims)
    for k in range(got.lo - 1, got.hi + 1):
        assert_same_matrix(got.d(k), want.d(k))


def assert_same_map(got: chainmaps.ComplexMap, want) -> None:
    assert_same_complex(got.source, want.source)
    assert_same_complex(got.target, want.target)
    lo = min(got.source.lo, got.target.lo)
    hi = max(got.source.hi, got.target.hi)
    for k in range(lo, hi + 1):
        assert_same_matrix(got.mat(k), want.mat(k))


def assert_same_module(got: rings.AlgebraModule, want) -> None:
    assert got.dim == want.dim
    assert len(got.action) == want.action.shape[0]
    for a, b in zip(got.action, want.action):
        assert_same_matrix(a, b)


def assert_same_modules(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for k in got:
        assert_same_module(got[k], want[k])
