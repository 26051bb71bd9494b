"""``smallcat cyclic``: the right adjoint into cyclic operads, checked."""
from . import FALSIFIED, OK, _load, _need, _print


def cmd_cyclic(args) -> int:
    from .. import cycadj
    from ..catspec import CatspecError
    loaded = _load(args.file)
    P = _need(loaded.operads, args.operad, "operad")
    if args.arity_bound is not None:
        if args.arity_bound > P.arity_bound:
            raise CatspecError(
                "arity bound exceeds the bound stored in the document")
        from ..cycmaps import truncate_operad
        P = truncate_operad(P, args.arity_bound)
    R_sizes, errs = cycadj.check_right_adjoint(P)
    payload = {
        "arity_bound": P.arity_bound,
        "sizes": {str(n): len(P.elements[n])
                  for n in range(P.arity_bound + 1)},
        "R_sizes": {str(n): R_sizes[n] for n in range(P.arity_bound + 1)},
        "R_sizes_are_powers": all(
            R_sizes[n] == len(P.elements[n]) ** (n + 1)
            for n in range(P.arity_bound + 1)),
        "R_cyclic_valid": errs == [],
    }
    _print(payload, args.pretty)
    return OK if errs == [] and payload["R_sizes_are_powers"] else FALSIFIED
