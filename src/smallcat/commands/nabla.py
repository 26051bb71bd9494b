"""``smallcat nabla``: the signed simplex category and its two presentations."""
from . import FALSIFIED, OK, _print


def cmd_nabla(args) -> int:
    from .. import nabla
    for k in args.homcount or ():
        if not 0 <= k <= args.dim:
            raise ValueError(f"no object [{k}] at level {args.dim}")
    if args.homcount:
        m, n = args.homcount
        category = nabla.nabla_category(args.dim).category
        _print(len(category.hom(f"[{m}]", f"[{n}]")), args.pretty)
        return OK
    from ..presentations import build_nabla, hom_doubling
    pres = build_nabla(args.dim)
    doubling = hom_doubling(pres)
    payload = {
        "dim": args.dim,
        "objects": len(pres.semidirect.category.objects),
        "morphisms": len(pres.semidirect.category.morphisms),
        "presentations_isomorphic": pres.isomorphic,
        "hom_doubling": doubling,
    }
    _print(payload, args.pretty)
    return OK if doubling and pres.isomorphic else FALSIFIED
