"""``smallcat adjoint``: the Kan adjunctions certified on a document's diagrams."""
from . import FALSIFIED, OK, _load, _need, _print


def cmd_adjoint(args) -> int:
    from .. import setval
    from ..catspec import CatspecError
    loaded = _load(args.file)
    F = _need(loaded.functors, args.functor, "functor")
    dom = [X for X in loaded.diagrams.values() if X.shape == F.domain]
    cod = [X for X in loaded.diagrams.values() if X.shape == F.codomain]
    if not dom or not cod:
        raise CatspecError(
            "need at least one diagram over the domain and one over the codomain")
    rep = setval.certify_kan_adjunctions(F, dom, cod)
    payload = {"ok": rep.ok, "checked": rep.checked,
               "failures": sorted(rep.failures)}
    _print(payload, args.pretty)
    return OK if rep.ok else FALSIFIED
