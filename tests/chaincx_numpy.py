"""The numpy implementation of :mod:`smallcat.chaincx`, kept unchanged as
the reference that the tests compare the pure-Python matrices against.

Bounded cochain complexes and finite algebras over a prime field.

Differentials raise degree by one; a complex stores one matrix per degree
over the field with ``p`` elements, and all rank computations are exact
Gaussian elimination mod ``p``.  Chain-style (degree-lowering) examples are
encoded by negating degrees.

Finite-dimensional algebras are given by structure constants; modules over
them by one action matrix per basis element.  Change of rings along an
algebra map ``f: A -> B`` comes in all three forms: restriction, tensoring
up and the hom construction.  Tensoring up builds an :class:`InducedModule`
record, the quotient of ``B (x) M`` by the bilinearity relations with its
projection and one section; the hom construction builds a
:class:`CoinducedModule` record, the solution space of the linearity
constraints with its basis.  One transport per direction carries a linear
map ``g`` between two records (lift through the section, apply
``B (x) g``, project; or postcompose each basis homomorphism with ``g`` and
solve in the target basis).  The module-map, complex and complex-map
functions are thin wrappers over it, and a complex builds each degree's
record once.  Truncation functors onto nonnegative degrees come in the
naive (discard) and the homotopy (cokernel in degree zero) flavors,
together with the standard two-term complex separating them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from smallcat.fincat import is_prime


# ---------------------------------------------------------------------------
# exact linear algebra over the prime field


def _mat(data, p: int) -> np.ndarray:
    a = np.array(data, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("matrix data must be two dimensional")
    return a


def _zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a), p - 2, p)


def rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, mod ``p``."""
    a = mat.copy() % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if a[rr, c] % p:
                pivot = rr
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        for rr in range(rows):
            if rr != r and a[rr, c] % p:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a % p, pivots


def rank_mod(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref_mod(mat, p)[1])


def nullspace_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the kernel."""
    rows, cols = mat.shape
    if cols == 0:
        return _zeros(0, 0)
    red, pivots = rref_mod(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = _zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = (-red[r, fc]) % p
    return basis % p


def solve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of ``a x = b`` (columns of ``b`` solved jointly), or None."""
    rows, cols = a.shape
    aug = np.concatenate([a % p, b % p], axis=1)
    red, pivots = rref_mod(aug, p)
    if any(c >= cols for c in pivots):
        return None
    x = _zeros(cols, b.shape[1])
    for r, pc in enumerate(pivots):
        x[pc] = red[r, cols:]
    return x % p


def column_space_contains(space: np.ndarray, vecs: np.ndarray, p: int) -> bool:
    if vecs.size == 0:
        return True
    return rank_mod(np.concatenate([space, vecs], axis=1), p) == rank_mod(space, p)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class FiniteComplex:
    """A bounded cochain complex over the field with ``p`` elements.

    ``dims[k]`` is the dimension in degree ``k`` for ``lo <= k <= hi``;
    ``diff[k]`` is the matrix of ``d: C^k -> C^{k+1}`` (absent or zero-sized
    outside the window).
    """

    p: int
    lo: int
    hi: int
    dims: dict[int, int]
    diff: dict[int, np.ndarray]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d(self, k: int) -> np.ndarray:
        m = self.diff.get(k)
        if m is None:
            return _zeros(self.dim(k + 1), self.dim(k))
        return m


def build_complex(p: int, dims: dict[int, int],
                  diff: dict[int, list] | dict[int, np.ndarray]) -> FiniteComplex:
    if not dims:
        return FiniteComplex(p, 0, -1, {}, {})
    lo, hi = min(dims), max(dims)
    full = {k: int(dims.get(k, 0)) for k in range(lo, hi + 1)}
    mats = {}
    for k in range(lo, hi + 1):
        m = diff.get(k)
        if m is None:
            mats[k] = _zeros(full.get(k + 1, 0), full[k])
        else:
            mats[k] = _mat(m, p).reshape(full.get(k + 1, 0), full[k])
    return FiniteComplex(p, lo, hi, full, mats)


def validate_complex(C: FiniteComplex) -> list[str]:
    errors = []
    for k in range(C.lo, C.hi + 1):
        dk = C.d(k)
        if dk.shape != (C.dim(k + 1), C.dim(k)):
            errors.append(f"differential at {k} has wrong shape")
    if errors:
        return errors
    for k in range(C.lo, C.hi + 1):
        if C.dim(k + 2) and C.dim(k):
            if np.any((C.d(k + 1) @ C.d(k)) % C.p):
                errors.append(f"d.d nonzero at degree {k}")
    return errors


@dataclass(frozen=True)
class ComplexMap:
    source: FiniteComplex
    target: FiniteComplex
    mats: dict[int, np.ndarray]

    def mat(self, k: int) -> np.ndarray:
        m = self.mats.get(k)
        if m is None:
            return _zeros(self.target.dim(k), self.source.dim(k))
        return m


def validate_complex_map(f: ComplexMap) -> list[str]:
    X, Y = f.source, f.target
    if X.p != Y.p:
        return ["different characteristics"]
    errors = []
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    for k in range(lo, hi + 1):
        if f.mat(k).shape != (Y.dim(k), X.dim(k)):
            errors.append(f"component at {k} has wrong shape")
    if errors:
        return errors
    for k in range(lo, hi + 1):
        lhs = (f.mat(k + 1) @ X.d(k)) % X.p
        rhs = (Y.d(k) @ f.mat(k)) % X.p
        if lhs.shape != rhs.shape or np.any((lhs - rhs) % X.p):
            errors.append(f"does not commute with d at degree {k}")
    return errors


def zero_complex(p: int) -> FiniteComplex:
    return FiniteComplex(p, 0, -1, {}, {})


def zero_map(X: FiniteComplex, Y: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, Y, {})


def identity_map(X: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, X, {k: _eye(X.dim(k)) for k in range(X.lo, X.hi + 1)})


# ---------------------------------------------------------------------------
# homology and the model-structure predicates


def homology_dims(C: FiniteComplex) -> dict[int, int]:
    """Per-degree cohomology dimensions via exact rank computations."""
    out = {}
    for k in range(C.lo, C.hi + 1):
        out[k] = C.dim(k) - rank_mod(C.d(k), C.p) - rank_mod(C.d(k - 1), C.p)
    return out


def is_quasi_iso(f: ComplexMap) -> bool:
    """The induced maps on cohomology are bijections in every degree."""
    X, Y, p = f.source, f.target, f.source.p
    hx, hy = homology_dims(X), homology_dims(Y)
    lo = min(X.lo, Y.lo)
    hi = max(X.hi, Y.hi)
    for k in range(lo, hi + 1):
        if hx.get(k, 0) != hy.get(k, 0):
            return False
        if hy.get(k, 0) == 0:
            continue
        # surjectivity of the induced map: cycles of Y are spanned by
        # boundaries together with images of cycles of X
        zx = nullspace_mod(X.d(k), p)
        zy = nullspace_mod(Y.d(k), p)
        by = Y.d(k - 1)
        span = np.concatenate([(f.mat(k) @ zx) % p, by], axis=1) \
            if zx.size or by.size else _zeros(Y.dim(k), 0)
        if not column_space_contains(span, zy, p):
            return False
    return True


def is_degreewise_epi(f: ComplexMap) -> bool:
    for k in range(f.target.lo, f.target.hi + 1):
        if rank_mod(f.mat(k), f.source.p) != f.target.dim(k):
            return False
    return True


def is_degreewise_mono(f: ComplexMap) -> bool:
    for k in range(f.source.lo, f.source.hi + 1):
        if rank_mod(f.mat(k), f.source.p) != f.source.dim(k):
            return False
    return True


# ---------------------------------------------------------------------------
# truncations


def naive_truncate(C: FiniteComplex) -> FiniteComplex:
    """Discard every negative degree, keep the rest unchanged."""
    if C.hi < 0:
        return zero_complex(C.p)
    dims = {k: C.dim(k) for k in range(0, C.hi + 1)}
    diff = {k: C.d(k) for k in range(0, C.hi + 1)}
    return FiniteComplex(C.p, 0, max(C.hi, 0), dims, diff)


def naive_truncate_map(f: ComplexMap) -> ComplexMap:
    X, Y = naive_truncate(f.source), naive_truncate(f.target)
    return ComplexMap(X, Y, {k: f.mat(k) for k in range(0, max(X.hi, Y.hi) + 1)})


def _coker_projection(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Projection matrix of ``target(m) -> coker(m)`` in chosen coordinates,
    and one section of it.

    Coordinates of the cokernel are the unit vectors that greedily complete
    the column space of ``m`` to the whole space.
    """
    rows = m.shape[0]
    chosen: list[int] = []
    cur = m.copy()
    for r in range(rows):
        e = _zeros(rows, 1)
        e[r, 0] = 1
        if rank_mod(np.concatenate([cur, e], axis=1), p) > rank_mod(cur, p):
            chosen.append(r)
            cur = np.concatenate([cur, e], axis=1)
    # projection: express x as (column space part) + sum of chosen units
    basis = np.concatenate([m, _eye(rows)[:, chosen]], axis=1)
    proj = _zeros(len(chosen), rows)
    for r in range(rows):
        e = _zeros(rows, 1)
        e[r, 0] = 1
        sol = solve_mod(basis, e, p)
        if sol is None:
            raise AssertionError("cokernel basis is not spanning")
        proj[:, r] = sol[m.shape[1]:, 0]
    sect = solve_mod(proj, _eye(len(chosen)), p)
    if sect is None:
        raise AssertionError("cokernel projection is not surjective")
    return proj % p, sect


def _homotopy_truncation(C: FiniteComplex
                         ) -> tuple[FiniteComplex, np.ndarray, np.ndarray]:
    """The homotopy truncation with its degree-zero projection and section."""
    p = C.p
    proj, sect = _coker_projection(C.d(-1), p)
    if C.hi < 0:
        return zero_complex(p), proj, sect
    dims = {0: proj.shape[0]}
    dims.update({k: C.dim(k) for k in range(1, C.hi + 1)})
    # induced differential out of the cokernel: through the section
    diff = {0: (C.d(0) @ sect) % p} if C.dim(1) else {}
    diff.update({k: C.d(k) for k in range(1, C.hi + 1)})
    return FiniteComplex(p, 0, C.hi, dims, diff), proj, sect


def homotopy_truncate(C: FiniteComplex) -> FiniteComplex:
    """Replace degree zero by the cokernel of the incoming differential,
    keep positive degrees, discard the rest."""
    return _homotopy_truncation(C)[0]


def homotopy_truncate_map(f: ComplexMap) -> ComplexMap:
    X, _, sectX = _homotopy_truncation(f.source)
    Y, projY, _ = _homotopy_truncation(f.target)
    mats = {0: (projY @ f.mat(0) @ sectX) % f.source.p}
    for k in range(1, max(X.hi, Y.hi) + 1):
        mats[k] = f.mat(k)
    return ComplexMap(X, Y, mats)


def two_term_identity_complex(p: int) -> FiniteComplex:
    """The ground field in degrees -1 and 0 with the identity differential."""
    return build_complex(p, {-1: 1, 0: 1}, {-1: [[1]]})


def reproduce_truncation_counterexample(p: int = 2) -> dict:
    """The collapse of the two-term complex is an acyclic degreewise epi,
    but its naive truncation is not a quasi-isomorphism (the homotopy
    truncation is)."""
    C = two_term_identity_complex(p)
    zero = zero_complex(p)
    collapse = zero_map(C, zero)
    report = {
        "p": p,
        "acyclic_fib": bool(is_degreewise_epi(collapse) and is_quasi_iso(collapse)),
        "FR_acyclic_fib": bool(is_quasi_iso(naive_truncate_map(collapse))),
        "homotopy_image_qiso": bool(is_quasi_iso(homotopy_truncate_map(collapse))),
        "naive_h0": homology_dims(naive_truncate(C)).get(0, 0),
        "homotopy_dims": sum(homotopy_truncate(C).dims.values()),
    }
    if not (report["acyclic_fib"] and not report["FR_acyclic_fib"]):
        raise AssertionError(f"truncation counterexample regressed: {report}")
    return report


# ---------------------------------------------------------------------------
# finite algebras and modules


@dataclass(frozen=True)
class FiniteAlgebra:
    """An associative unital algebra by structure constants.

    ``structure[i][j]`` is the coefficient vector of ``e_i e_j``.
    """

    p: int
    dim: int
    structure: np.ndarray    # shape (dim, dim, dim)
    unit: np.ndarray         # shape (dim,)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x % self.p, y % self.p,
                         self.structure) % self.p

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("i,ijk->kj", x % self.p, self.structure) % self.p


def validate_algebra(A: FiniteAlgebra) -> list[str]:
    errors = []
    if A.structure.shape != (A.dim, A.dim, A.dim):
        return ["structure tensor has wrong shape"]
    basis = _eye(A.dim)
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.multiply(A.multiply(basis[i], basis[j]), basis[k])
                rhs = A.multiply(basis[i], A.multiply(basis[j], basis[k]))
                if np.any((lhs - rhs) % A.p):
                    errors.append(f"associativity fails at ({i},{j},{k})")
    for i in range(A.dim):
        if np.any((A.multiply(A.unit, basis[i]) - basis[i]) % A.p) or \
                np.any((A.multiply(basis[i], A.unit) - basis[i]) % A.p):
            errors.append(f"unit law fails at {i}")
    return errors


def field_algebra(p: int) -> FiniteAlgebra:
    return FiniteAlgebra(p, 1, np.ones((1, 1, 1), dtype=np.int64),
                         np.ones(1, dtype=np.int64))


def dual_numbers(p: int) -> FiniteAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    s = np.zeros((2, 2, 2), dtype=np.int64)
    s[0, 0, 0] = 1
    s[0, 1, 1] = 1
    s[1, 0, 1] = 1
    # x*x = 0
    return FiniteAlgebra(p, 2, s, np.array([1, 0], dtype=np.int64))


@dataclass(frozen=True)
class AlgebraMap:
    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: np.ndarray    # target coords of images of source basis, (tdim, sdim)


def validate_algebra_map(f: AlgebraMap) -> list[str]:
    A, B = f.source, f.target
    errors = []
    if f.matrix.shape != (B.dim, A.dim):
        return ["matrix has wrong shape"]
    if np.any((f.matrix @ A.unit - B.unit) % A.p):
        errors.append("unit not preserved")
    basis = _eye(A.dim)
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = (f.matrix @ A.multiply(basis[i], basis[j])) % A.p
            rhs = B.multiply(f.matrix @ basis[i], f.matrix @ basis[j])
            if np.any((lhs - rhs) % A.p):
                errors.append(f"multiplicativity fails at ({i},{j})")
    return errors


def unit_inclusion(B: FiniteAlgebra) -> AlgebraMap:
    """The structure map from the ground field."""
    return AlgebraMap(field_algebra(B.p), B,
                      B.unit.reshape(B.dim, 1))


def augmentation_dual_numbers(p: int) -> AlgebraMap:
    """k[x]/(x^2) -> k killing x."""
    return AlgebraMap(dual_numbers(p), field_algebra(p),
                      np.array([[1, 0]], dtype=np.int64))


@dataclass(frozen=True)
class AlgebraModule:
    """A left module: one action matrix per algebra basis element."""

    algebra: FiniteAlgebra
    dim: int
    action: np.ndarray    # shape (algebra.dim, dim, dim)

    def act(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("i,ijk,k->j", a % self.algebra.p,
                         self.action, v) % self.algebra.p


def validate_module(M: AlgebraModule) -> list[str]:
    A = M.algebra
    errors = []
    if M.action.shape != (A.dim, M.dim, M.dim):
        return ["action tensor has wrong shape"]
    unit_mat = np.einsum("i,ijk->jk", A.unit, M.action) % A.p
    if np.any((unit_mat - _eye(M.dim)) % A.p):
        errors.append("unit does not act as identity")
    basis = _eye(A.dim)
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.multiply(basis[i], basis[j])
            lhs = np.einsum("i,ijk->jk", prod, M.action) % A.p
            rhs = (M.action[i] @ M.action[j]) % A.p
            if np.any((lhs - rhs) % A.p):
                errors.append(f"action not multiplicative at ({i},{j})")
    return errors


def regular_module(A: FiniteAlgebra) -> AlgebraModule:
    action = np.stack([A.left_mult_matrix(_eye(A.dim)[i])
                       for i in range(A.dim)]) % A.p
    return AlgebraModule(A, A.dim, action)


def free_module(A: FiniteAlgebra, rank: int) -> AlgebraModule:
    reg = regular_module(A)
    action = np.zeros((A.dim, A.dim * rank, A.dim * rank), dtype=np.int64)
    for i in range(A.dim):
        for r in range(rank):
            s = r * A.dim
            action[i, s:s + A.dim, s:s + A.dim] = reg.action[i]
    return AlgebraModule(A, A.dim * rank, action)


def trivial_module(A: FiniteAlgebra, f_to_field: AlgebraMap) -> AlgebraModule:
    """The one-dimensional module pulled back along an augmentation."""
    action = f_to_field.matrix.reshape(A.dim, 1, 1) % A.p
    return AlgebraModule(A, 1, action)


def restrict_scalars(f: AlgebraMap, M: AlgebraModule) -> AlgebraModule:
    """View a module over the target as a module over the source."""
    if M.algebra is not f.target and validate_module(M):
        raise ValueError("module is not over the target algebra")
    A = f.source
    action = np.stack([
        np.einsum("i,ijk->jk", (f.matrix @ _eye(A.dim)[t]) % A.p, M.action) % A.p
        for t in range(A.dim)])
    return AlgebraModule(A, M.dim, action)


def pulled_back_target(f: AlgebraMap) -> AlgebraModule:
    """The target algebra as a module over the source."""
    return restrict_scalars(f, regular_module(f.target))


def module_hom_space(M: AlgebraModule, N: AlgebraModule) -> np.ndarray:
    """Basis (columns, flattened matrices) of the module homomorphisms."""
    A = M.algebra
    p = A.p
    rows = []
    for i in range(A.dim):
        # h . act_M(e_i) - act_N(e_i) . h = 0, linear in the entries of h
        am = M.action[i]
        an = N.action[i]
        block = (np.kron(am.T, _eye(N.dim)) -
                 np.kron(_eye(M.dim), an)) % p
        rows.append(block)
    if not rows:
        return _eye(N.dim * M.dim)
    system = np.concatenate(rows, axis=0) % p
    return nullspace_mod(system, p)


def hom_dim(M: AlgebraModule, N: AlgebraModule) -> int:
    return module_hom_space(M, N).shape[1]


def module_is_free(M: AlgebraModule) -> bool:
    """Whether ``M`` is isomorphic to a finite power of the algebra."""
    A = M.algebra
    if A.dim == 0 or M.dim % A.dim:
        return False
    rank = M.dim // A.dim
    F = free_module(A, rank)
    basis = module_hom_space(F, M)
    p = A.p
    if basis.shape[1] == 0:
        return M.dim == 0
    if basis.shape[1] > 14:
        raise ValueError("hom space too large for exhaustive freeness search")
    for coeffs in itertools.product(range(p), repeat=basis.shape[1]):
        h = np.zeros(M.dim * F.dim, dtype=np.int64)
        for c, col in zip(coeffs, basis.T):
            h = (h + c * col) % p
        mat = h.reshape(M.dim, F.dim) % p
        if M.dim == F.dim and rank_mod(mat, p) == M.dim:
            return True
    return False


# ---------------------------------------------------------------------------
# induced and coinduced modules


@dataclass(frozen=True)
class InducedModule:
    module: AlgebraModule
    # projection from the tensor square space (target algebra (x) M)
    projection: np.ndarray
    # one section of the projection, back into the tensor square space
    section: np.ndarray


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
    proj, sect = _coker_projection(relmat, p)
    qdim = proj.shape[0]
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
    return InducedModule(AlgebraModule(B, qdim, action % p), proj, sect)


@dataclass(frozen=True)
class CoinducedModule:
    module: AlgebraModule
    # columns are the basis homomorphisms, flattened as (M.dim x B.dim)
    basis: np.ndarray


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


def _induce_transport(f: AlgebraMap, g: np.ndarray,
                      src: InducedModule, tgt: InducedModule) -> np.ndarray:
    """Carry ``g`` between tensored-up modules: lift, apply ``B (x) g``,
    project."""
    return (tgt.projection @ np.kron(_eye(f.target.dim), g)
            @ src.section) % f.source.p


def _coinduce_transport(f: AlgebraMap, g: np.ndarray,
                        src: CoinducedModule, tgt: CoinducedModule
                        ) -> np.ndarray:
    """Carry ``g`` between hom modules: postcompose each basis homomorphism
    with ``g`` and solve in the target basis."""
    p = f.source.p
    moved = (np.kron(_eye(f.target.dim), g) @ src.basis) % p
    sol = solve_mod(tgt.basis, moved, p)
    if sol is None:
        raise AssertionError("coinduced map leaves the hom space")
    return sol % p


def induce_module_map(f: AlgebraMap, gmat: np.ndarray,
                      M: AlgebraModule, N: AlgebraModule) -> np.ndarray:
    """The matrix of the induced map between the tensored-up modules."""
    return _induce_transport(f, gmat, induce(f, M), induce(f, N))


def coinduce_module_map(f: AlgebraMap, gmat: np.ndarray,
                        M: AlgebraModule, N: AlgebraModule) -> np.ndarray:
    """The matrix of the coinduced map between the hom modules."""
    return _coinduce_transport(f, gmat, coinduce(f, M), coinduce(f, N))


def restrict_complex(f: AlgebraMap, C: FiniteComplex,
                     modules: dict[int, AlgebraModule]
                     ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise restriction of scalars (complex matrices are unchanged)."""
    return C, {k: restrict_scalars(f, M) for k, M in modules.items()}


def _degreewise(construct, transport, f: AlgebraMap, C: FiniteComplex,
                modules: dict[int, AlgebraModule]) -> tuple[FiniteComplex, dict]:
    """Build each degree's record once with ``construct`` and carry every
    differential between neighbouring records with ``transport``.

    ``modules[k]`` is the module structure in degree ``k``: every degree of
    nonzero dimension needs one, of the degree's dimension.
    """
    for k in range(C.lo, C.hi + 1):
        if C.dim(k) and k not in modules:
            raise ValueError(f"no module in degree {k}")
    for k, M in modules.items():
        if M.dim != C.dim(k):
            raise ValueError(f"module in degree {k} has dimension {M.dim}, "
                             f"not {C.dim(k)}")
    recs = {k: construct(f, M) for k, M in modules.items()}
    diff = {k: transport(f, C.d(k), recs[k], recs[k + 1])
            for k in range(C.lo, C.hi + 1) if k in recs and k + 1 in recs}
    dims = {k: rec.module.dim for k, rec in recs.items()}
    return build_complex(C.p, dims, diff), recs


def _degreewise_map(construct, transport, f: AlgebraMap, g: ComplexMap,
                    src_modules: dict[int, AlgebraModule],
                    tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """The complexes at both ends by :func:`_degreewise`, and each
    component of ``g`` carried between the records of its degree."""
    X, srcs = _degreewise(construct, transport, f, g.source, src_modules)
    Y, tgts = _degreewise(construct, transport, f, g.target, tgt_modules)
    return ComplexMap(X, Y, {k: transport(f, g.mat(k), srcs[k], tgts[k])
                             for k in srcs if k in tgts})


def coinduce_complex(f: AlgebraMap, C: FiniteComplex,
                     modules: dict[int, AlgebraModule]
                     ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise hom construction applied to a complex of modules.

    ``modules[k]`` is the module structure in degree ``k``; differentials
    must be module maps.  Returns the coinduced complex (underlying
    plain-vector-space complex plus per-degree modules).
    """
    out, recs = _degreewise(coinduce, _coinduce_transport, f, C, modules)
    return out, {k: rec.module for k, rec in recs.items()}


def induce_complex(f: AlgebraMap, C: FiniteComplex,
                   modules: dict[int, AlgebraModule]
                   ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise tensoring up applied to a complex of modules."""
    out, recs = _degreewise(induce, _induce_transport, f, C, modules)
    return out, {k: rec.module for k, rec in recs.items()}


def induce_complex_map(f: AlgebraMap, g: ComplexMap,
                       src_modules: dict[int, AlgebraModule],
                       tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise tensoring up applied to a map of module complexes."""
    return _degreewise_map(induce, _induce_transport, f, g,
                           src_modules, tgt_modules)


def coinduce_complex_map(f: AlgebraMap, g: ComplexMap,
                         src_modules: dict[int, AlgebraModule],
                         tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise hom construction applied to a map of module complexes."""
    return _degreewise_map(coinduce, _coinduce_transport, f, g,
                           src_modules, tgt_modules)
