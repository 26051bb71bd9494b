"""The complex-block path of ``catspec.load`` as it was before the block was
checked on its sparse entries.

It builds every degree's dense int64 matrix while loading and checks
``d.d = 0`` with the numpy ``validate_complex`` of :mod:`chaincx_numpy`.
It is kept, unchanged apart from taking one block and returning its
complex, as the reference that ``test_catspec`` compares the numpy-free
check and the complex built on first read against.
"""
from smallcat.catspec import (
    MAX_DIFFERENTIAL_ENTRIES,
    Block,
    CatspecError,
    _entries,
)


def load_complex(b: Block):
    """The ``FiniteComplex`` of one complex block, or the ``CatspecError``
    the old ``load`` raised on it."""
    p, lo, hi = (int(t) for t in b.params)
    dims = {int(e[0]): int(e[1]) for e in _entries(b, "dim")}
    if (p - 1) ** 2 * max([1, *dims.values()]) >= 2 ** 63:
        raise CatspecError(f"complex {b.name}: p = {p} overflows int64 "
                           f"matrix products at these dimensions", b.line)
    # one matrix per degree of the window, so its degrees are held to
    # the same cap as its entries, before any loop walks the window
    if hi - lo + 1 > MAX_DIFFERENTIAL_ENTRIES:
        raise CatspecError(f"complex {b.name}: window {lo}..{hi} has "
                           f"{hi - lo + 1} degrees, more than "
                           f"{MAX_DIFFERENTIAL_ENTRIES}", b.line)
    import numpy as np
    import chaincx_numpy as chaincx
    if not chaincx.is_prime(p):
        raise CatspecError(f"complex {b.name}: p = {p} is not a prime",
                           b.line)
    for k in range(lo, hi + 1):
        dims.setdefault(k, 0)
    entries = sum(dims.get(k + 1, 0) * dims[k] for k in range(lo, hi + 1))
    if entries > MAX_DIFFERENTIAL_ENTRIES:
        raise CatspecError(f"complex {b.name}: differentials would have "
                           f"{entries} entries, more than "
                           f"{MAX_DIFFERENTIAL_ENTRIES}", b.line)
    mats = {k: np.zeros((dims.get(k + 1, 0), dims[k]), dtype=np.int64)
            for k in range(lo, hi + 1)}
    for e in _entries(b, "d"):
        k, row, col, val = int(e[0]), int(e[1]), int(e[2]), int(e[3])
        if k not in mats or row >= mats[k].shape[0] or col >= mats[k].shape[1]:
            raise CatspecError(
                f"complex {b.name}: entry out of range at degree {k}", b.line)
        mats[k][row, col] = val % p
    C = chaincx.FiniteComplex(p, lo, hi, dims, mats)
    errs = chaincx.validate_complex(C)
    if errs:
        raise CatspecError(f"complex {b.name}: {errs[0]}", b.line)
    return C
