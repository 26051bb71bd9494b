"""Bounded cochain complexes over a prime field.

Differentials raise degree by one; a complex stores one :class:`Matrix`
per degree over the field with ``p`` elements, and all rank computations
are exact Gaussian elimination mod ``p``.  Chain-style (degree-lowering)
examples are encoded by negating degrees.

A :class:`Matrix` is immutable, holds Python ints in ``[0, p)`` and keeps
its shape with no rows or no columns.  Elimination works on packed rows:
each row is one integer with a fixed-width field per column, so a row
operation is one big-integer multiply-add and no field can carry into the
next.  Homology and the naive truncation onto nonnegative degrees (which
discards the rest) are here.

Products and solving mod ``p``, complex maps, quasi-isomorphisms and the
homotopy truncation (the cokernel in degree zero) live in
:mod:`smallcat.chainmaps`, and finite algebras, their modules and change
of rings in :mod:`smallcat.rings`; only the code that uses them loads
them.  ``chaincx.two_term_identity_complex``, which ``perfbench`` reads,
is still read through the module ``__getattr__``.
"""
from __future__ import annotations

import operator

from . import moved
from .fincat import is_prime  # re-exported: ``chaincx.is_prime`` stays
from .fincat import record

# The names perfbench/ reads here, each from its home module on first
# access.
__getattr__ = moved(globals(), chainmaps="two_term_identity_complex")


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


def zero_complex(p: int) -> FiniteComplex:
    return FiniteComplex(p, 0, -1, {}, {})


# ---------------------------------------------------------------------------
# homology


def homology_dims(C: FiniteComplex) -> dict[int, int]:
    """Per-degree cohomology dimensions via exact rank computations."""
    out = {}
    for k in range(C.lo, C.hi + 1):
        out[k] = C.dim(k) - rank_mod(C.d(k), C.p) - rank_mod(C.d(k - 1), C.p)
    return out


# ---------------------------------------------------------------------------
# the naive truncation


def naive_truncate(C: FiniteComplex) -> FiniteComplex:
    """Discard every negative degree, keep the rest unchanged."""
    if C.hi < 0:
        return zero_complex(C.p)
    dims = {k: C.dim(k) for k in range(0, C.hi + 1)}
    diff = {k: C.d(k) for k in range(0, C.hi + 1)}
    return FiniteComplex(C.p, 0, max(C.hi, 0), dims, diff)
