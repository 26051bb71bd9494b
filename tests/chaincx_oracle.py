"""The change-of-rings and homotopy-truncation code as it was before the
induced and coinduced module records carried their sections.

Every complex-level function here rebuilds each degree's module record for
every caller and re-solves the section of each projection it uses.  It is
kept, unchanged apart from building on the numpy reference
:mod:`chaincx_numpy`, as the reference that ``test_chaincx`` compares
:mod:`smallcat.chaincx` against.
"""
from dataclasses import dataclass

import numpy as np

from chaincx_numpy import (
    AlgebraMap,
    AlgebraModule,
    CoinducedModule,
    ComplexMap,
    FiniteComplex,
    _eye,
    _zeros,
    build_complex,
    nullspace_mod,
    rank_mod,
    solve_mod,
    validate_module,
    zero_complex,
)


def _coker_projection(m: np.ndarray, p: int) -> np.ndarray:
    """Projection matrix of ``target(m) -> coker(m)`` in chosen coordinates.

    Coordinates of the cokernel are the unit vectors that greedily complete
    the column space of ``m`` to the whole space.
    """
    rows = m.shape[0]
    if rows == 0:
        return _zeros(0, 0)
    chosen: list[int] = []
    cur = m.copy()
    for r in range(rows):
        e = _zeros(rows, 1)
        e[r, 0] = 1
        if rank_mod(np.concatenate([cur, e], axis=1), p) > rank_mod(cur, p):
            chosen.append(r)
            cur = np.concatenate([cur, e], axis=1)
    # projection: express x as (column space part) + sum of chosen units
    basis = np.concatenate(
        [m, _eye(rows)[:, chosen]], axis=1) if m.size else _eye(rows)[:, chosen]
    proj = _zeros(len(chosen), rows)
    for r in range(rows):
        e = _zeros(rows, 1)
        e[r, 0] = 1
        sol = solve_mod(basis, e, p)
        if sol is None:
            raise AssertionError("cokernel basis is not spanning")
        proj[:, r] = sol[m.shape[1]:, 0]
    return proj % p


def homotopy_truncate(C: FiniteComplex) -> FiniteComplex:
    """Replace degree zero by the cokernel of the incoming differential,
    keep positive degrees, discard the rest."""
    p = C.p
    if C.hi < 0:
        return zero_complex(p)
    proj = _coker_projection(C.d(-1), p)
    dims = {0: proj.shape[0]}
    dims.update({k: C.dim(k) for k in range(1, C.hi + 1)})
    diff: dict[int, np.ndarray] = {}
    # induced differential out of the cokernel: pick any section
    if C.dim(1):
        sect = solve_mod(proj, _eye(proj.shape[0]), p)
        if proj.shape[0] == 0:
            diff[0] = _zeros(C.dim(1), 0)
        else:
            if sect is None:
                raise AssertionError("cokernel projection is not surjective")
            diff[0] = (C.d(0) @ sect) % p
    for k in range(1, C.hi + 1):
        diff[k] = C.d(k)
    return FiniteComplex(p, 0, max(C.hi, 0), dims, diff)


def homotopy_truncate_map(f: ComplexMap) -> ComplexMap:
    X, Y = homotopy_truncate(f.source), homotopy_truncate(f.target)
    p = f.source.p
    mats: dict[int, np.ndarray] = {}
    projX = _coker_projection(f.source.d(-1), p)
    projY = _coker_projection(f.target.d(-1), p)
    if projX.shape[0]:
        sect = solve_mod(projX, _eye(projX.shape[0]), p)
        mats[0] = (projY @ f.mat(0) @ sect) % p
    else:
        mats[0] = _zeros(projY.shape[0], 0)
    for k in range(1, max(X.hi, Y.hi) + 1):
        mats[k] = f.mat(k)
    return ComplexMap(X, Y, mats)



@dataclass(frozen=True)
class InducedModule:
    module: AlgebraModule
    # projection from the tensor square space (target algebra (x) M)
    projection: np.ndarray


def induce(f: AlgebraMap, M: AlgebraModule) -> InducedModule:
    """Tensor up along ``f``: the target algebra tensored over the source.

    Computed as the quotient of ``B (x) M`` by the relations
    ``b f(a) (x) v - b (x) a v``; the module structure is left
    multiplication on the first factor.
    """
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    A, B = f.source, f.target
    p = A.p
    big = B.dim * M.dim

    def tensor_index(bi: int, mi: int) -> int:
        return bi * M.dim + mi

    rels = []
    basisA = _eye(A.dim)
    basisB = _eye(B.dim)
    for ai in range(A.dim):
        fa = (f.matrix @ basisA[ai]) % p
        for bi in range(B.dim):
            bfa = B.multiply(basisB[bi], fa)
            for mi in range(M.dim):
                vec = np.zeros(big, dtype=np.int64)
                for k in range(B.dim):
                    vec[tensor_index(k, mi)] = (vec[tensor_index(k, mi)]
                                                + bfa[k]) % p
                av = M.action[ai][:, mi] % p
                for k in range(M.dim):
                    vec[tensor_index(bi, k)] = (vec[tensor_index(bi, k)]
                                                - av[k]) % p
                rels.append(vec % p)
    relmat = np.array(rels, dtype=np.int64).T if rels else _zeros(big, 0)
    proj = _coker_projection(relmat, p)
    qdim = proj.shape[0]
    sect = solve_mod(proj, _eye(qdim), p) if qdim else _zeros(big, 0)
    action = np.zeros((B.dim, qdim, qdim), dtype=np.int64)
    for bi in range(B.dim):
        lift_mat = _zeros(big, big)
        for bj in range(B.dim):
            prod = B.multiply(basisB[bi], basisB[bj])
            for mi in range(M.dim):
                col = tensor_index(bj, mi)
                for k in range(B.dim):
                    lift_mat[tensor_index(k, mi), col] = prod[k]
        action[bi] = (proj @ lift_mat @ sect) % p
    return InducedModule(AlgebraModule(B, qdim, action % p), proj)



def coinduce(f: AlgebraMap, M: AlgebraModule) -> CoinducedModule:
    """The hom construction along ``f``: source-linear maps from the target
    algebra to ``M``, with the action ``(b.h)(b') = h(b' b)``."""
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    A, B = f.source, f.target
    p = A.p
    basisA = _eye(A.dim)
    basisB = _eye(B.dim)
    # unknowns: h as an (M.dim x B.dim) matrix, columns = values on basis
    rows = []
    for ai in range(A.dim):
        fa = (f.matrix @ basisA[ai]) % p
        left = B.left_mult_matrix(fa)      # b -> f(a) b
        block = (np.kron(left.T, _eye(M.dim)) -
                 np.kron(_eye(B.dim), M.action[ai])) % p
        rows.append(block)
    system = np.concatenate(rows, axis=0) if rows else _zeros(0, B.dim * M.dim)
    basis = nullspace_mod(system, p)
    qdim = basis.shape[1]
    action = np.zeros((B.dim, qdim, qdim), dtype=np.int64)
    for bi in range(B.dim):
        # (b.h)(b') = h(b' b): precompose with right multiplication by b
        rm = np.zeros((B.dim, B.dim), dtype=np.int64)
        for bj in range(B.dim):
            rm[:, bj] = B.multiply(basisB[bj], basisB[bi])
        transform = np.kron(rm.T, _eye(M.dim)) % p
        moved = (transform @ basis) % p
        sol = solve_mod(basis, moved, p)
        if sol is None:
            raise AssertionError("coinduced action leaves the hom space")
        action[bi] = sol % p
    return CoinducedModule(AlgebraModule(B, qdim, action), basis)


def induce_module_map(f: AlgebraMap, gmat: np.ndarray,
                      M: AlgebraModule, N: AlgebraModule) -> np.ndarray:
    """The matrix of the induced map between the tensored-up modules."""
    p = f.source.p
    iM, iN = induce(f, M), induce(f, N)
    if iM.module.dim == 0:
        return _zeros(iN.module.dim, 0)
    sect = solve_mod(iM.projection, _eye(iM.module.dim), p)
    if sect is None:
        raise AssertionError("induced projection is not surjective")
    return (iN.projection @ np.kron(_eye(f.target.dim), gmat) @ sect) % p


def coinduce_module_map(f: AlgebraMap, gmat: np.ndarray,
                        M: AlgebraModule, N: AlgebraModule) -> np.ndarray:
    """The matrix of the coinduced map between the hom modules."""
    p = f.source.p
    cM, cN = coinduce(f, M), coinduce(f, N)
    if cM.module.dim == 0:
        return _zeros(cN.module.dim, 0)
    moved = (np.kron(_eye(f.target.dim), gmat) @ cM.basis) % p
    sol = solve_mod(cN.basis, moved, p)
    if sol is None:
        raise AssertionError("coinduced map leaves the hom space")
    return sol % p



def coinduce_complex(f: AlgebraMap, C: FiniteComplex,
                     modules: dict[int, AlgebraModule]
                     ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise hom construction applied to a complex of modules.

    ``modules[k]`` is the module structure in degree ``k``; differentials
    must be module maps.  Returns the coinduced complex (underlying
    plain-vector-space complex plus per-degree modules).
    """
    p = C.p
    coinds = {k: coinduce(f, modules[k]) for k in modules}
    dims = {k: coinds[k].module.dim for k in coinds}
    diff = {}
    for k in range(C.lo, C.hi + 1):
        if k + 1 not in coinds or coinds[k].module.dim == 0:
            continue
        src = coinds[k]
        tgt = coinds[k + 1]
        # postcompose each basis homomorphism with the differential
        moved = (np.kron(_eye(f.target.dim), C.d(k)) @ src.basis) % p
        sol = solve_mod(tgt.basis, moved, p)
        if sol is None:
            raise AssertionError("coinduced differential leaves the hom space")
        diff[k] = sol % p
    out = build_complex(p, dims, diff)
    return out, {k: coinds[k].module for k in coinds}


def induce_complex(f: AlgebraMap, C: FiniteComplex,
                   modules: dict[int, AlgebraModule]
                   ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise tensoring up applied to a complex of modules."""
    p = C.p
    inds = {k: induce(f, modules[k]) for k in modules}
    dims = {k: inds[k].module.dim for k in inds}
    diff = {}
    bdim = f.target.dim
    for k in range(C.lo, C.hi + 1):
        if k + 1 not in inds or k not in inds:
            continue
        src, tgt = inds[k], inds[k + 1]
        if src.module.dim == 0 or tgt.module.dim == 0:
            continue
        sect = solve_mod(src.projection, _eye(src.module.dim), p)
        if sect is None:
            raise AssertionError("induced projection is not surjective")
        diff[k] = (tgt.projection @ np.kron(_eye(bdim), C.d(k)) @ sect) % p
    out = build_complex(p, dims, diff)
    return out, {k: inds[k].module for k in inds}


def induce_complex_map(f: AlgebraMap, g: ComplexMap,
                       src_modules: dict[int, AlgebraModule],
                       tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise tensoring up applied to a map of module complexes."""
    p = g.source.p
    X, _ = induce_complex(f, g.source, src_modules)
    Y, _ = induce_complex(f, g.target, tgt_modules)
    s_inds = {k: induce(f, src_modules[k]) for k in src_modules}
    t_inds = {k: induce(f, tgt_modules[k]) for k in tgt_modules}
    bdim = f.target.dim
    mats = {}
    for k in src_modules:
        if k not in t_inds or t_inds[k].module.dim == 0:
            continue
        if s_inds[k].module.dim == 0:
            mats[k] = _zeros(t_inds[k].module.dim, 0)
            continue
        sect = solve_mod(s_inds[k].projection, _eye(s_inds[k].module.dim), p)
        if sect is None:
            raise AssertionError("induced projection is not surjective")
        mats[k] = (t_inds[k].projection @ np.kron(_eye(bdim), g.mat(k))
                   @ sect) % p
    return ComplexMap(X, Y, mats)


def coinduce_complex_map(f: AlgebraMap, g: ComplexMap,
                         src_modules: dict[int, AlgebraModule],
                         tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise hom construction applied to a map of module complexes."""
    p = g.source.p
    X, _ = coinduce_complex(f, g.source, src_modules)
    Y, _ = coinduce_complex(f, g.target, tgt_modules)
    s_coinds = {k: coinduce(f, src_modules[k]) for k in src_modules}
    t_coinds = {k: coinduce(f, tgt_modules[k]) for k in tgt_modules}
    mats = {}
    for k in src_modules:
        if k not in t_coinds or t_coinds[k].module.dim == 0:
            continue
        moved = (np.kron(_eye(f.target.dim), g.mat(k)) @ s_coinds[k].basis) % p
        sol = solve_mod(t_coinds[k].basis, moved, p)
        if sol is None:
            raise AssertionError("coinduced map leaves the hom space")
        mats[k] = sol % p
    return ComplexMap(X, Y, mats)

