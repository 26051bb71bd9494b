"""``smallcat kan``: a pointwise Kan extension of a document's diagram."""
from . import FALSIFIED, OK, _load, _need, _print


def cmd_kan(args) -> int:
    from .. import setval
    from ..catspec import CatspecError
    loaded = _load(args.file)
    F = _need(loaded.functors, args.functor, "functor")
    X = _need(loaded.diagrams, args.diagram, "diagram")
    if X.shape != F.domain:
        raise CatspecError("diagram does not live over the functor domain")
    out = setval.lan(F, X) if args.side == "left" else setval.ran(F, X)
    payload = {
        "side": args.side,
        "sizes": {o: len(out.values[o]) for o in out.shape.objects},
        "valid": setval.validate_diagram(out) == [],
    }
    _print(payload, args.pretty)
    return OK if payload["valid"] else FALSIFIED
