"""Maps of bounded cochain complexes over a prime field, and the homotopy
truncation.

Products, stacking and solving of :class:`~smallcat.chaincx.Matrix`
values mod ``p``, the complex validator (``d.d = 0``), complex maps and
their validator, quasi-isomorphisms and the degreewise predicates, both
truncations on maps, the homotopy truncation (the cokernel in degree
zero), and the standard two-term complex that tells the truncations
apart.

``smallcat chain`` with no ``--truncate homotopy`` loads none of it.
"""
from __future__ import annotations

# Timed functions are called via their module: see the package docstring.
from . import chaincx
from .chaincx import (
    FiniteComplex,
    Matrix,
    _field_bytes,
    _pack,
    _unpack,
    build_complex,
    identity,
    naive_truncate,
    rank_mod,
    rref_mod,
    zero_complex,
    zeros,
)
from .fincat import record


# ---------------------------------------------------------------------------
# products and solving mod p



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
# complexes and their maps



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


def zero_map(X: FiniteComplex, Y: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, Y, {})


def identity_map(X: FiniteComplex) -> ComplexMap:
    return ComplexMap(X, X, {k: identity(X.dim(k)) for k in range(X.lo, X.hi + 1)})


# ---------------------------------------------------------------------------
# the model-structure predicates



def is_quasi_iso(f: ComplexMap) -> bool:
    """The induced maps on cohomology are bijections in every degree."""
    X, Y, p = f.source, f.target, f.source.p
    hx, hy = chaincx.homology_dims(X), chaincx.homology_dims(Y)
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
        "naive_h0": chaincx.homology_dims(naive_truncate(C)).get(0, 0),
        "homotopy_dims": sum(homotopy_truncate(C).dims.values()),
    }
    if not (report["acyclic_fib"] and not report["FR_acyclic_fib"]):
        raise AssertionError(f"truncation counterexample regressed: {report}")
    return report
