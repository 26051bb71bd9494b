"""``smallcat rlp``: the right lifting property against a set of functors."""
from . import OK, _load, _max_morphisms, _need, _print


def cmd_rlp(args) -> int:
    from ..catmodel import has_rlp
    budget = _max_morphisms(args) * 5000
    loaded = _load(args.file)
    maps = [_need(loaded.functors, n, "functor")
            for n in args.maps.split(",")]
    p = _need(loaded.functors, args.against, "functor")
    verdict = has_rlp(maps, p, node_budget=budget)
    _print({"has_rlp": verdict}, args.pretty)
    return OK
