"""``smallcat paper-suite``: the recorded literature checks."""
from . import FALSIFIED, OK, _print


def cmd_paper_suite(args) -> int:
    from ..paper import PAPER_CASES
    names = [args.case] if args.case else sorted(PAPER_CASES)
    for name in names:
        if name not in PAPER_CASES:
            from ..catspec import CatspecError
            raise CatspecError(f"unknown case {name!r}")
    if args.case:
        payload, ok = PAPER_CASES[args.case]()
        _print(payload, args.pretty)
        return OK if ok else FALSIFIED
    results = {}
    all_ok = True
    for name in names:
        payload, ok = PAPER_CASES[name]()
        results[name] = payload
        all_ok = all_ok and ok
    _print({"cases": results, "ok": all_ok}, args.pretty)
    return OK if all_ok else FALSIFIED
