"""Bounded cochain complexes and finite algebras over a prime field.

Differentials raise degree by one; a complex stores one :class:`Matrix`
per degree over the field with ``p`` elements, and all rank computations
are exact Gaussian elimination mod ``p``.  Chain-style (degree-lowering)
examples are encoded by negating degrees.

A :class:`Matrix` is immutable, holds Python ints in ``[0, p)`` and keeps
its shape with no rows or no columns.  Products, Kronecker products and
concatenations are plain functions.  Elimination and products work on
packed rows: each row is one integer with a fixed-width field per column,
so a row operation is one big-integer multiply-add and no field can carry
into the next.

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
import operator

from .fincat import is_prime  # re-exported: ``chaincx.is_prime`` stays
from .fincat import record


# ---------------------------------------------------------------------------
# matrices over the prime field


@record(frozen=True, slots=True)
class Matrix:
    """An immutable matrix over the field with ``p`` elements.

    ``rows`` holds one tuple of entries in ``[0, p)`` per row, and ``ncols``
    the width, which a matrix with no rows cannot show.  :func:`matrix`
    builds one from any rows of integers.
    """

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    @property
    def T(self) -> Matrix:
        if not self.rows:
            return Matrix(((),) * self.ncols, 0)
        return Matrix(tuple(zip(*self.rows)), len(self.rows))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))


def matrix(data, p: int, ncols: int = 0) -> Matrix:
    """``data``, rows of integers (or a :class:`Matrix`), reduced mod ``p``;
    ``ncols`` is the width when there are no rows."""
    if isinstance(data, Matrix):
        data, ncols = data.rows, data.ncols
    rows = tuple(tuple(operator.index(x) % p for x in row) for row in data)
    width = len(rows[0]) if rows else ncols
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must have one length")
    return Matrix(rows, width)


def zeros(nrows: int, ncols: int) -> Matrix:
    return Matrix(((0,) * ncols,) * nrows, ncols)


def identity(n: int) -> Matrix:
    return Matrix(tuple(tuple(int(i == j) for j in range(n))
                        for i in range(n)), n)


def _field_bytes(bound: int) -> int:
    """Bytes per packed field that hold every value up to ``bound``."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(row, nb: int) -> int:
    """One integer holding ``row``, entry ``j`` in bytes ``j*nb`` upward."""
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in row),
                          "little")


def _unpack(x: int, n: int, nb: int, p: int) -> tuple[int, ...]:
    """The ``n`` fields of a packed row, each reduced mod ``p``."""
    b = x.to_bytes(n * nb, "little")
    return tuple(int.from_bytes(b[i:i + nb], "little") % p
                 for i in range(0, n * nb, nb))


def matmul(a: Matrix, b: Matrix, p: int) -> Matrix:
    """The product ``a b`` mod ``p``: each row is a sum of multiples of
    ``b``'s packed rows, with fields wide enough for the whole sum."""
    if a.ncols != len(b.rows):
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    nb = _field_bytes((p - 1) ** 2 * a.ncols)
    packed = [_pack(row, nb) for row in b.rows]
    return Matrix(tuple(
        _unpack(sum(x * y for x, y in zip(row, packed) if x), b.ncols, nb, p)
        for row in a.rows), b.ncols)


def kron(a: Matrix, b: Matrix, p: int) -> Matrix:
    """The Kronecker product mod ``p``: block ``(i, j)`` is ``a[i][j] b``."""
    return Matrix(tuple(tuple(x * y % p for x in ra for y in rb)
                        for ra in a.rows for rb in b.rows),
                  a.ncols * b.ncols)


def sub(a: Matrix, b: Matrix, p: int) -> Matrix:
    if a.shape != b.shape:
        raise ValueError(f"cannot subtract {b.shape} from {a.shape}")
    return Matrix(tuple(tuple((x - y) % p for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)), a.ncols)


def vstack(mats: list[Matrix]) -> Matrix:
    """The rows of each matrix in turn; all have one width."""
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("cannot stack matrices of shapes "
                         + ", ".join(str(m.shape) for m in mats))
    return Matrix(tuple(row for m in mats for row in m.rows), ncols)


def hstack(mats: list[Matrix]) -> Matrix:
    """The columns of each matrix in turn; all have one height."""
    return vstack([m.T for m in mats]).T


def _matvec(m: Matrix, v, p: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v, strict=True)) % p
                 for row in m.rows)


def _combination(coeffs, mats, p: int, shape: tuple[int, int]) -> Matrix:
    """``sum_i coeffs[i] mats[i]`` mod ``p``, of the given shape."""
    out = [[0] * shape[1] for _ in range(shape[0])]
    for c, m in zip(coeffs, mats, strict=True):
        if c % p:
            for acc, row in zip(out, m.rows, strict=True):
                for j, x in enumerate(row):
                    acc[j] += c * x
    return Matrix(tuple(tuple(x % p for x in row) for row in out), shape[1])


# ---------------------------------------------------------------------------
# exact linear algebra over the prime field


def _eliminate(mat: Matrix, p: int, full: bool) -> tuple[list[int], list[int], int]:
    """Gaussian elimination mod ``p`` on the packed rows of ``mat``.

    Returns the rows, the pivot columns and the bytes per field.  Each
    pivot row is reduced and scaled to a leading 1; a row operation is one
    multiply-add ``row += (p - f) * pivot_row``, which adds less than
    ``p^2`` to a field, once per pivot at most, and the field width allows
    for that.  A field is reduced mod ``p`` only where a pivot entry is
    read.  With ``full`` the rows above each pivot are cleared too (the
    reduced form); without, only the rows below it (enough for the rank).
    """
    nrows, ncols = mat.shape
    nb = _field_bytes(p - 1 + min(nrows, ncols) * (p - 1) ** 2)
    width = 8 * nb
    mask = (1 << width) - 1
    rows = [_pack(row, nb) for row in mat.rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        shift = c * width
        i = next((i for i in range(r, nrows) if (rows[i] >> shift & mask) % p),
                 None)
        if i is None:
            continue
        entries = _unpack(rows[i], ncols, nb, p)
        inv = pow(entries[c], -1, p)
        pivot = _pack([e * inv % p for e in entries], nb)
        rows[i] = rows[r]
        rows[r] = pivot
        for j in range(0 if full else r + 1, nrows):
            f = (rows[j] >> shift & mask) % p
            if f and j != r:
                rows[j] += (p - f) * pivot
        pivots.append(c)
    return rows, pivots, nb


def rref_mod(mat: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, mod ``p``."""
    rows, pivots, nb = _eliminate(mat, p, full=True)
    return Matrix(tuple(_unpack(x, mat.ncols, nb, p) for x in rows),
                  mat.ncols), pivots


def rank_mod(mat: Matrix, p: int) -> int:
    return len(_eliminate(mat, p, full=False)[1])


def nullspace_mod(mat: Matrix, p: int) -> Matrix:
    """Columns form a basis of the kernel."""
    cols = mat.ncols
    if cols == 0:
        return zeros(0, 0)
    red, pivots = rref_mod(mat, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(red.rows, pivots):
            vec[pc] = -row[fc] % p
        basis.append(tuple(vec))
    return Matrix(tuple(basis), cols).T


def solve_mod(a: Matrix, b: Matrix, p: int) -> Matrix | None:
    """One solution of ``a x = b`` (columns of ``b`` solved jointly), or None."""
    cols = a.ncols
    red, pivots = rref_mod(hstack([a, b]), p)
    if pivots and pivots[-1] >= cols:
        return None
    x = [(0,) * b.ncols] * cols
    for row, pc in zip(red.rows, pivots):
        x[pc] = row[cols:]
    return Matrix(tuple(x), b.ncols)


def column_space_contains(space: Matrix, vecs: Matrix, p: int) -> bool:
    if not (vecs.rows and vecs.ncols):
        return True
    return rank_mod(hstack([space, vecs]), p) == rank_mod(space, p)


# ---------------------------------------------------------------------------
# complexes


@record(frozen=True)
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
    diff: dict[int, Matrix]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d(self, k: int) -> Matrix:
        m = self.diff.get(k)
        if m is None:
            return zeros(self.dim(k + 1), self.dim(k))
        return m


def build_complex(p: int, dims: dict[int, int],
                  diff: dict[int, list] | dict[int, Matrix]) -> FiniteComplex:
    """The complex with ``dims`` filled out to a window, and ``diff[k]``
    (rows of integers, or a :class:`Matrix`) of shape
    ``(dims[k + 1], dims[k])`` reduced mod ``p``; a missing one is zero."""
    if not dims:
        return FiniteComplex(p, 0, -1, {}, {})
    lo, hi = min(dims), max(dims)
    full = {k: int(dims.get(k, 0)) for k in range(lo, hi + 1)}
    mats = {}
    for k in range(lo, hi + 1):
        shape = (full.get(k + 1, 0), full[k])
        m = diff.get(k)
        if m is None:
            mats[k] = zeros(*shape)
            continue
        mats[k] = matrix(m, p, shape[1])
        if mats[k].shape != shape:
            raise ValueError(f"differential at {k} has shape "
                             f"{mats[k].shape}, not {shape}")
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
            if not matmul(C.d(k + 1), C.d(k), C.p).is_zero():
                errors.append(f"d.d nonzero at degree {k}")
    return errors


@record(frozen=True)
class ComplexMap:
    source: FiniteComplex
    target: FiniteComplex
    mats: dict[int, Matrix]

    def mat(self, k: int) -> Matrix:
        m = self.mats.get(k)
        if m is None:
            return zeros(self.target.dim(k), self.source.dim(k))
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
        lhs = matmul(f.mat(k + 1), X.d(k), X.p)
        rhs = matmul(Y.d(k), f.mat(k), X.p)
        if lhs != rhs:
            errors.append(f"does not commute with d at degree {k}")
    return errors


def zero_complex(p: int) -> FiniteComplex:
    return FiniteComplex(p, 0, -1, {}, {})


def zero_map(X: FiniteComplex, Y: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, Y, {})


def identity_map(X: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, X, {k: identity(X.dim(k)) for k in range(X.lo, X.hi + 1)})


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
        span = hstack([matmul(f.mat(k), zx, p), Y.d(k - 1)])
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


def _coker_projection(m: Matrix, p: int) -> tuple[Matrix, Matrix]:
    """Projection matrix of ``target(m) -> coker(m)`` in chosen coordinates,
    and one section of it.

    Coordinates of the cokernel are the unit vectors that greedily complete
    the column space of ``m`` to the whole space: the pivot columns of
    ``[m | 1]`` past ``m``.
    """
    rows, cols = m.shape
    eye = identity(rows)
    chosen = [c - cols for c in rref_mod(hstack([m, eye]), p)[1] if c >= cols]
    # projection: express x as (column space part) + sum of chosen units
    basis = hstack([m, Matrix(tuple(tuple(row[c] for c in chosen)
                                    for row in eye.rows), len(chosen))])
    # one solve for every unit vector: the row operations depend on basis only
    sol = solve_mod(basis, eye, p)
    if sol is None:
        raise AssertionError("cokernel basis is not spanning")
    proj = Matrix(sol.rows[cols:], rows)
    sect = solve_mod(proj, identity(len(chosen)), p)
    if sect is None:
        raise AssertionError("cokernel projection is not surjective")
    return proj, sect


def _homotopy_truncation(C: FiniteComplex
                         ) -> tuple[FiniteComplex, Matrix, Matrix]:
    """The homotopy truncation with its degree-zero projection and section."""
    p = C.p
    proj, sect = _coker_projection(C.d(-1), p)
    if C.hi < 0:
        return zero_complex(p), proj, sect
    dims = {0: proj.shape[0]}
    dims.update({k: C.dim(k) for k in range(1, C.hi + 1)})
    # induced differential out of the cokernel: through the section
    diff = {0: matmul(C.d(0), sect, p)} if C.dim(1) else {}
    diff.update({k: C.d(k) for k in range(1, C.hi + 1)})
    return FiniteComplex(p, 0, C.hi, dims, diff), proj, sect


def homotopy_truncate(C: FiniteComplex) -> FiniteComplex:
    """Replace degree zero by the cokernel of the incoming differential,
    keep positive degrees, discard the rest."""
    return _homotopy_truncation(C)[0]


def homotopy_truncate_map(f: ComplexMap) -> ComplexMap:
    X, _, sectX = _homotopy_truncation(f.source)
    Y, projY, _ = _homotopy_truncation(f.target)
    p = f.source.p
    mats = {0: matmul(matmul(projY, f.mat(0), p), sectX, p)}
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


@record(frozen=True)
class FiniteAlgebra:
    """An associative unital algebra by structure constants.

    Row ``j`` of ``structure[i]`` is the coefficient vector of ``e_i e_j``.
    """

    p: int
    dim: int
    structure: tuple[Matrix, ...]    # dim matrices of shape (dim, dim)
    unit: tuple[int, ...]            # dim entries

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")

    def multiply(self, x, y) -> tuple[int, ...]:
        return _matvec(self.left_mult_matrix(x), y, self.p)

    def left_mult_matrix(self, x) -> Matrix:
        """The matrix of ``b -> x b``."""
        return _combination(x, self.structure, self.p, (self.dim, self.dim)).T

    def right_mult_matrix(self, x) -> Matrix:
        """The matrix of ``b -> b x``."""
        return Matrix(tuple(self.multiply(e, x) for e in identity(self.dim).rows),
                      self.dim).T


def validate_algebra(A: FiniteAlgebra) -> list[str]:
    errors = []
    if len(A.structure) != A.dim or \
            any(s.shape != (A.dim, A.dim) for s in A.structure):
        return ["structure tensor has wrong shape"]
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.multiply(A.multiply(basis[i], basis[j]), basis[k])
                rhs = A.multiply(basis[i], A.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    errors.append(f"associativity fails at ({i},{j},{k})")
    for i in range(A.dim):
        if A.multiply(A.unit, basis[i]) != basis[i] or \
                A.multiply(basis[i], A.unit) != basis[i]:
            errors.append(f"unit law fails at {i}")
    return errors


def field_algebra(p: int) -> FiniteAlgebra:
    return FiniteAlgebra(p, 1, (identity(1),), (1,))


def dual_numbers(p: int) -> FiniteAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    one = identity(2)                        # 1 * 1 = 1, 1 * x = x
    x = Matrix(((0, 1), (0, 0)), 2)          # x * 1 = x, x * x = 0
    return FiniteAlgebra(p, 2, (one, x), (1, 0))


@record(frozen=True)
class AlgebraMap:
    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: Matrix    # target coords of images of source basis, (tdim, sdim)


def validate_algebra_map(f: AlgebraMap) -> list[str]:
    A, B = f.source, f.target
    errors = []
    if f.matrix.shape != (B.dim, A.dim):
        return ["matrix has wrong shape"]
    if _matvec(f.matrix, A.unit, A.p) != B.unit:
        errors.append("unit not preserved")
    images = f.matrix.T.rows
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = _matvec(f.matrix, A.multiply(basis[i], basis[j]), A.p)
            rhs = B.multiply(images[i], images[j])
            if lhs != rhs:
                errors.append(f"multiplicativity fails at ({i},{j})")
    return errors


def unit_inclusion(B: FiniteAlgebra) -> AlgebraMap:
    """The structure map from the ground field."""
    return AlgebraMap(field_algebra(B.p), B,
                      Matrix(tuple((u,) for u in B.unit), 1))


def augmentation_dual_numbers(p: int) -> AlgebraMap:
    """k[x]/(x^2) -> k killing x."""
    return AlgebraMap(dual_numbers(p), field_algebra(p), Matrix(((1, 0),), 2))


@record(frozen=True)
class AlgebraModule:
    """A left module: one action matrix per algebra basis element."""

    algebra: FiniteAlgebra
    dim: int
    action: tuple[Matrix, ...]    # algebra.dim matrices of shape (dim, dim)

    def act(self, a, v) -> tuple[int, ...]:
        return _matvec(self.acting(a), v, self.algebra.p)

    def acting(self, a) -> Matrix:
        """The matrix by which the algebra element ``a`` acts."""
        return _combination(a, self.action, self.algebra.p, (self.dim, self.dim))


def validate_module(M: AlgebraModule) -> list[str]:
    A = M.algebra
    errors = []
    if len(M.action) != A.dim or \
            any(m.shape != (M.dim, M.dim) for m in M.action):
        return ["action tensor has wrong shape"]
    if M.acting(A.unit) != identity(M.dim):
        errors.append("unit does not act as identity")
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = M.acting(A.multiply(basis[i], basis[j]))
            rhs = matmul(M.action[i], M.action[j], A.p)
            if lhs != rhs:
                errors.append(f"action not multiplicative at ({i},{j})")
    return errors


def regular_module(A: FiniteAlgebra) -> AlgebraModule:
    return AlgebraModule(A, A.dim, tuple(A.left_mult_matrix(e)
                                         for e in identity(A.dim).rows))


def free_module(A: FiniteAlgebra, rank: int) -> AlgebraModule:
    reg = regular_module(A)
    return AlgebraModule(A, A.dim * rank, tuple(kron(identity(rank), a, A.p)
                                                for a in reg.action))


def trivial_module(A: FiniteAlgebra, f_to_field: AlgebraMap) -> AlgebraModule:
    """The one-dimensional module pulled back along an augmentation."""
    return AlgebraModule(A, 1, tuple(Matrix(((x,),), 1)
                                     for x in f_to_field.matrix.rows[0]))


def restrict_scalars(f: AlgebraMap, M: AlgebraModule) -> AlgebraModule:
    """View a module over the target as a module over the source."""
    if M.algebra is not f.target and validate_module(M):
        raise ValueError("module is not over the target algebra")
    return AlgebraModule(f.source, M.dim,
                         tuple(M.acting(image) for image in f.matrix.T.rows))


def pulled_back_target(f: AlgebraMap) -> AlgebraModule:
    """The target algebra as a module over the source."""
    return restrict_scalars(f, regular_module(f.target))


def module_hom_space(M: AlgebraModule, N: AlgebraModule) -> Matrix:
    """Basis (columns, flattened matrices) of the module homomorphisms."""
    p = M.algebra.p
    # h . act_M(e_i) - act_N(e_i) . h = 0, linear in the entries of h
    blocks = [sub(kron(am.T, identity(N.dim), p), kron(identity(M.dim), an, p), p)
              for am, an in zip(M.action, N.action)]
    if not blocks:
        return identity(N.dim * M.dim)
    return nullspace_mod(vstack(blocks), p)


def hom_dim(M: AlgebraModule, N: AlgebraModule) -> int:
    return module_hom_space(M, N).ncols


def module_is_free(M: AlgebraModule) -> bool:
    """Whether ``M`` is isomorphic to a finite power of the algebra."""
    A = M.algebra
    if A.dim == 0 or M.dim % A.dim:
        return False
    F = free_module(A, M.dim // A.dim)
    basis = module_hom_space(F, M)
    p = A.p
    if basis.ncols == 0:
        return M.dim == 0
    if basis.ncols > 14:
        raise ValueError("hom space too large for exhaustive freeness search")
    for coeffs in itertools.product(range(p), repeat=basis.ncols):
        h = _matvec(basis, coeffs, p)
        mat = Matrix(tuple(h[r:r + F.dim] for r in range(0, len(h), F.dim)),
                     F.dim)
        if rank_mod(mat, p) == M.dim:
            return True
    return False


# ---------------------------------------------------------------------------
# induced and coinduced modules


@record(frozen=True)
class InducedModule:
    module: AlgebraModule
    # projection from the tensor square space (target algebra (x) M)
    projection: Matrix
    # one section of the projection, back into the tensor square space
    section: Matrix


def induce(f: AlgebraMap, M: AlgebraModule) -> InducedModule:
    """Tensor up along ``f``: the target algebra tensored over the source.

    Computed as the quotient of ``B (x) M`` by the relations
    ``b f(a) (x) v - b (x) a v``; the module structure is left
    multiplication on the first factor.
    """
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    B = f.target
    p = f.source.p
    eyeB, eyeM = identity(B.dim), identity(M.dim)
    # one relation per basis (a, b, v), a column of ``B (x) M`` coordinates
    rels = [sub(kron(B.right_mult_matrix(fa), eyeM, p), kron(eyeB, am, p), p)
            for fa, am in zip(f.matrix.T.rows, M.action)]
    relmat = hstack(rels) if rels else zeros(B.dim * M.dim, 0)
    proj, sect = _coker_projection(relmat, p)
    # b acts on B (x) M as left multiplication on the first factor
    action = tuple(
        matmul(matmul(proj, kron(B.left_mult_matrix(b), eyeM, p), p), sect, p)
        for b in eyeB.rows)
    return InducedModule(AlgebraModule(B, proj.shape[0], action), proj, sect)


@record(frozen=True)
class CoinducedModule:
    module: AlgebraModule
    # columns are the basis homomorphisms, flattened as (M.dim x B.dim)
    basis: Matrix


def coinduce(f: AlgebraMap, M: AlgebraModule) -> CoinducedModule:
    """The hom construction along ``f``: source-linear maps from the target
    algebra to ``M``, with the action ``(b.h)(b') = h(b' b)``."""
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    B = f.target
    p = f.source.p
    eyeB, eyeM = identity(B.dim), identity(M.dim)
    # unknowns: h as an (M.dim x B.dim) matrix, columns = values on basis
    blocks = [sub(kron(B.left_mult_matrix(fa).T, eyeM, p),   # b -> f(a) b
                  kron(eyeB, am, p), p)
              for fa, am in zip(f.matrix.T.rows, M.action)]
    system = vstack(blocks) if blocks else zeros(0, B.dim * M.dim)
    basis = nullspace_mod(system, p)
    action = []
    for bi in eyeB.rows:
        # (b.h)(b') = h(b' b): precompose with right multiplication by b
        moved = matmul(kron(B.right_mult_matrix(bi).T, eyeM, p), basis, p)
        sol = solve_mod(basis, moved, p)
        if sol is None:
            raise AssertionError("coinduced action leaves the hom space")
        action.append(sol)
    return CoinducedModule(AlgebraModule(B, basis.ncols, tuple(action)), basis)


def _induce_transport(f: AlgebraMap, g: Matrix,
                      src: InducedModule, tgt: InducedModule) -> Matrix:
    """Carry ``g`` between tensored-up modules: lift, apply ``B (x) g``,
    project."""
    p = f.source.p
    return matmul(matmul(tgt.projection, kron(identity(f.target.dim), g, p), p),
                  src.section, p)


def _coinduce_transport(f: AlgebraMap, g: Matrix,
                        src: CoinducedModule, tgt: CoinducedModule) -> Matrix:
    """Carry ``g`` between hom modules: postcompose each basis homomorphism
    with ``g`` and solve in the target basis."""
    p = f.source.p
    moved = matmul(kron(identity(f.target.dim), g, p), src.basis, p)
    sol = solve_mod(tgt.basis, moved, p)
    if sol is None:
        raise AssertionError("coinduced map leaves the hom space")
    return sol


def induce_module_map(f: AlgebraMap, gmat: Matrix,
                      M: AlgebraModule, N: AlgebraModule) -> Matrix:
    """The matrix of the induced map between the tensored-up modules."""
    return _induce_transport(f, gmat, induce(f, M), induce(f, N))


def coinduce_module_map(f: AlgebraMap, gmat: Matrix,
                        M: AlgebraModule, N: AlgebraModule) -> Matrix:
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
