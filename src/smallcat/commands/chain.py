"""``smallcat chain``: the homology of a bounded complex."""
from . import OK, _load, _need, _print


def cmd_chain(args) -> int:
    from .. import chaincx
    loaded = _load(args.file)
    C = _need(loaded.complexes, args.complex, "complex")
    if args.truncate == "naive":
        C = chaincx.naive_truncate(C)
    elif args.truncate == "homotopy":
        from ..chainmaps import homotopy_truncate
        C = homotopy_truncate(C)
    payload = {
        "p": C.p,
        "dims": {str(k): C.dim(k) for k in range(C.lo, C.hi + 1)},
        "homology": {str(k): v for k, v in chaincx.homology_dims(C).items()},
    }
    _print(payload, args.pretty)
    return OK
