"""``smallcat rsset``: a truncated real simplicial set, validated and translated."""
from . import FALSIFIED, OK, _load, _need, _print


def cmd_rsset(args) -> int:
    from .. import nabla
    loaded = _load(args.file)
    X = _need(loaded.rssets, args.name, "rsset")
    payload = {
        "level": X.level,
        "sizes": {str(n): len(X.simplices(n)) for n in range(X.level + 1)},
        "valid": nabla.validate_rsset(X) == [],
        "conjugation_squares": nabla.conjugation_squares_hold(X),
    }
    code = OK if payload["valid"] else FALSIFIED
    if args.roundtrip:
        A, sigma = nabla.to_involutive(X)
        back = nabla.from_involutive(A, sigma)
        payload["roundtrip_identity"] = back.diagram == X.diagram
        if not payload["roundtrip_identity"]:
            code = FALSIFIED
    if not payload["conjugation_squares"]:
        code = FALSIFIED
    _print(payload, args.pretty)
    return code
