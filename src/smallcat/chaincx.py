"""Bounded cochain complexes over a prime field.

Differentials raise degree by one; a complex stores one :class:`Matrix`
per degree over the field with ``p`` elements, and all rank computations
are exact Gaussian elimination mod ``p``.  Chain-style (degree-lowering)
examples are encoded by negating degrees.

A :class:`Matrix` is immutable, holds Python ints in ``[0, p)`` and keeps
its shape with no rows or no columns.  Products and concatenations are
plain functions.  Elimination and products work on packed rows: each row
is one integer with a fixed-width field per column, so a row operation is
one big-integer multiply-add and no field can carry into the next.
Truncation functors onto nonnegative degrees come in the naive (discard)
and the homotopy (cokernel in degree zero) flavors, together with the
standard two-term complex separating them.

Finite algebras, their modules and change of rings live in
:mod:`smallcat.rings`, which only the code that changes rings loads; their
old names here (``chaincx.induce``, ``chaincx.kron``, ...) still work
through the module ``__getattr__``.
"""
from __future__ import annotations

import operator

from . import moved
from .fincat import is_prime  # re-exported: ``chaincx.is_prime`` stays
from .fincat import record

# Read from smallcat.rings on first access.
__getattr__ = moved(globals(), rings="""
    kron sub _matvec _combination FiniteAlgebra validate_algebra
    field_algebra dual_numbers AlgebraMap validate_algebra_map
    unit_inclusion augmentation_dual_numbers AlgebraModule validate_module
    regular_module free_module trivial_module restrict_scalars
    pulled_back_target module_hom_space hom_dim module_is_free
    InducedModule induce CoinducedModule coinduce _induce_transport
    _coinduce_transport induce_module_map coinduce_module_map
    restrict_complex _degreewise _degreewise_map coinduce_complex
    induce_complex induce_complex_map coinduce_complex_map""")


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
