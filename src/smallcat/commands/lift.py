"""``smallcat lift``: a lifting problem of functors, solved."""
from . import OK, _load, _max_morphisms, _need, _print


def cmd_lift(args) -> int:
    from ..catmodel import LiftingSquare, solve_lifting, validate_square
    from ..catspec import CatspecError
    budget = _max_morphisms(args) * 5000
    loaded = _load(args.file)
    sq = LiftingSquare(
        _need(loaded.functors, args.left, "functor"),
        _need(loaded.functors, args.right, "functor"),
        _need(loaded.functors, args.top, "functor"),
        _need(loaded.functors, args.bottom, "functor"),
    )
    errs = validate_square(sq)
    if errs:
        raise CatspecError("not a lifting square: " + errs[0])
    h = solve_lifting(sq, node_budget=budget)
    payload: dict = {"exists": h is not None}
    if h is not None:
        payload["diagonal"] = {"objects": dict(sorted(h.ob_map.items())),
                               "morphisms": dict(sorted(h.mor_map.items()))}
    _print(payload, args.pretty)
    return OK
