"""Command-line front end.

Every subcommand prints a single JSON value with sorted keys to standard
output (indented when ``--pretty`` is given, compact otherwise) and exits
with 0 on success, 1 when a checked property is falsified, and 2 on input
errors.  Identical invocations produce byte-identical output.

Budget defaults can be overridden with ``SMALLCAT_MAX_MORPHISMS`` in the
environment or the corresponding flags.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import moved

# Only the standard library is imported here (``moved`` comes from the
# package, which loads no module), json only to print: each command
# imports the modules it uses, so ``--help`` and argument errors load
# none of them, and chaincx is loaded only by commands that compute with
# a chain complex (``chain`` and the truncation case).  The paper cases
# are in smallcat.paper, which only ``paper-suite`` loads.
__getattr__ = moved(globals(), paper="PAPER_CASES")

OK, FALSIFIED, BAD_INPUT = 0, 1, 2


def _print(payload, pretty: bool) -> None:
    import json
    if pretty:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")


def _load(path: str):
    from . import catspec
    with open(path, "r", encoding="utf-8") as fh:
        return catspec.load(fh.read())


def _need(table: dict, name: str, what: str):
    from .catspec import CatspecError
    if name not in table:
        raise CatspecError(f"no {what} named {name!r} in the document")
    return table[name]


def _max_morphisms(args) -> int:
    """The ``--max-morphisms`` flag, else ``SMALLCAT_MAX_MORPHISMS``, else
    400; read only by the commands that search, before they load anything."""
    if args.max_morphisms is not None:
        if args.max_morphisms < 1:
            raise ValueError(f"--max-morphisms {args.max_morphisms} is not "
                             f"an integer of at least 1")
        return args.max_morphisms
    text = os.environ.get("SMALLCAT_MAX_MORPHISMS", "400")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"SMALLCAT_MAX_MORPHISMS={text!r} is not an "
                         f"integer of at least 1")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    loaded = _load(args.file)
    blocks = {f"{b.kind} {b.name}": "ok" for b in loaded.document.blocks}
    _print({"blocks": blocks, "ok": True}, args.pretty)
    return OK


def cmd_kan(args) -> int:
    from . import setval
    from .catspec import CatspecError
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


def cmd_adjoint(args) -> int:
    from . import setval
    from .catspec import CatspecError
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


def cmd_lift(args) -> int:
    from .catmodel import LiftingSquare, solve_lifting, validate_square
    from .catspec import CatspecError
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


def cmd_rlp(args) -> int:
    from .catmodel import has_rlp
    budget = _max_morphisms(args) * 5000
    loaded = _load(args.file)
    maps = [_need(loaded.functors, n, "functor")
            for n in args.maps.split(",")]
    p = _need(loaded.functors, args.against, "functor")
    verdict = has_rlp(maps, p, node_budget=budget)
    _print({"has_rlp": verdict}, args.pretty)
    return OK


def cmd_soa(args) -> int:
    from . import setval
    from .soa import bounded_soa
    budget = _max_morphisms(args) * 5000
    loaded = _load(args.file)
    gens = [_need(loaded.dmaps, n, "dmap") for n in args.generators.split(",")]
    f = _need(loaded.dmaps, args.map, "dmap")
    res = bounded_soa(gens, f, args.max_stages, node_budget=budget)
    recomposed = setval.compose_diagram_maps(res.right, res.left)
    payload = {
        "stages": res.stages,
        "saturated": res.saturated,
        "recomposes": recomposed.key() == f.key(),
        "middle_sizes": {o: len(res.middle.values[o])
                         for o in res.middle.shape.objects},
        "cells_per_stage": [len(cs) for cs in res.cells],
    }
    _print(payload, args.pretty)
    return OK if payload["recomposes"] else FALSIFIED


def cmd_semidirect(args) -> int:
    from . import semidirect
    from .fincat import validate_category
    loaded = _load(args.file)
    action = _need(loaded.actions, args.action, "action")
    sd = semidirect.semidirect(action)
    payload = {
        "objects": len(sd.category.objects),
        "morphisms": len(sd.category.morphisms),
        "valid": not semidirect.validate_action(action)
        and not validate_category(sd.category),
    }
    code = OK
    if args.diagram:
        F = _need(loaded.diagrams, args.diagram, "diagram")
        rep = semidirect.verify_lan_formula(action, F)
        payload["lan_formula"] = {
            "ok": rep.ok,
            "natural_iso": rep.natural_iso,
            "components_indexed_by_group": rep.comma_components_indexed_by_group,
        }
        if not rep.ok:
            code = FALSIFIED
    _print(payload, args.pretty)
    return code if payload["valid"] else FALSIFIED


def cmd_nabla(args) -> int:
    from . import nabla
    for k in args.homcount or ():
        if not 0 <= k <= args.dim:
            raise ValueError(f"no object [{k}] at level {args.dim}")
    if args.homcount:
        m, n = args.homcount
        category = nabla.nabla_category(args.dim).category
        _print(len(category.hom(f"[{m}]", f"[{n}]")), args.pretty)
        return OK
    pres = nabla.build_nabla(args.dim)
    doubling = nabla.hom_doubling(pres)
    payload = {
        "dim": args.dim,
        "objects": len(pres.semidirect.category.objects),
        "morphisms": len(pres.semidirect.category.morphisms),
        "presentations_isomorphic": pres.isomorphic,
        "hom_doubling": doubling,
    }
    _print(payload, args.pretty)
    return OK if doubling and pres.isomorphic else FALSIFIED


def cmd_rsset(args) -> int:
    from . import nabla
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


def cmd_cyclic(args) -> int:
    from . import cycadj
    from .catspec import CatspecError
    loaded = _load(args.file)
    P = _need(loaded.operads, args.operad, "operad")
    if args.arity_bound is not None:
        if args.arity_bound > P.arity_bound:
            raise CatspecError(
                "arity bound exceeds the bound stored in the document")
        P = cycadj.truncate_operad(P, args.arity_bound)
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


def cmd_chain(args) -> int:
    from . import chaincx
    loaded = _load(args.file)
    C = _need(loaded.complexes, args.complex, "complex")
    if args.truncate == "naive":
        C = chaincx.naive_truncate(C)
    elif args.truncate == "homotopy":
        C = chaincx.homotopy_truncate(C)
    payload = {
        "p": C.p,
        "dims": {str(k): C.dim(k) for k in range(C.lo, C.hi + 1)},
        "homology": {str(k): v for k, v in chaincx.homology_dims(C).items()},
    }
    _print(payload, args.pretty)
    return OK


def cmd_paper_suite(args) -> int:
    from .paper import PAPER_CASES
    names = [args.case] if args.case else sorted(PAPER_CASES)
    for name in names:
        if name not in PAPER_CASES:
            from .catspec import CatspecError
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


# ---------------------------------------------------------------------------
# argument parsing


BUDGET_HELP = "search budget (default: $SMALLCAT_MAX_MORPHISMS or 400)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcat",
        description="Exhaustive computation with finite categories.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a catspec file, run all validators")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("kan", help="compute a pointwise Kan extension")
    p.add_argument("file")
    p.add_argument("--functor", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(func=cmd_kan)

    p = sub.add_parser("adjoint", help="certify the Kan adjunctions on a corpus")
    p.add_argument("file")
    p.add_argument("--functor", required=True)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("lift", help="solve a lifting problem of functors")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--max-morphisms", type=int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("rlp", help="right lifting property against a set of maps")
    p.add_argument("file")
    p.add_argument("--maps", required=True, help="comma-separated functor names")
    p.add_argument("--against", required=True)
    p.add_argument("--max-morphisms", type=int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_rlp)

    p = sub.add_parser("soa", help="bounded small object argument")
    p.add_argument("file")
    p.add_argument("--generators", required=True,
                   help="comma-separated dmap names")
    p.add_argument("--map", required=True, help="dmap name to factor")
    p.add_argument("--max-stages", type=int, default=4)
    p.add_argument("--max-morphisms", type=int, help=BUDGET_HELP)
    p.set_defaults(func=cmd_soa)

    p = sub.add_parser("semidirect", help="build and check a semidirect product")
    p.add_argument("file")
    p.add_argument("--action", required=True)
    p.add_argument("--diagram", help="verify the extension decomposition")
    p.set_defaults(func=cmd_semidirect)

    p = sub.add_parser("nabla", help="the signed simplex category")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--homcount", type=int, nargs=2, metavar=("M", "N"))
    p.set_defaults(func=cmd_nabla)

    p = sub.add_parser("rsset", help="validate a truncated real simplicial set")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_rsset)

    p = sub.add_parser("cyclic", help="the right adjoint into cyclic operads")
    p.add_argument("file")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity-bound", type=int,
                   help="re-truncate the operad before building the adjoint")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("chain", help="homology of a bounded complex")
    p.add_argument("file")
    p.add_argument("--complex", required=True)
    p.add_argument("--truncate", choices=("naive", "homotopy"))
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("paper-suite", help="run the recorded literature checks")
    p.add_argument("--case", help="run a single named case")
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # imported after parsing, so that --help and usage errors load nothing
    # of the library; a CatspecError is a ValueError
    from .fincat import BudgetError
    try:
        return args.func(args)
    except (FileNotFoundError, BudgetError, ValueError) as exc:
        _print({"error": str(exc)}, getattr(args, "pretty", False))
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
