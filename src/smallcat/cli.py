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
import json
import os
import sys

# Only the standard library is imported here: each command imports the
# modules it uses, so ``--help`` and argument errors load none of them and
# numpy is loaded only by commands that touch a chain complex.

OK, FALSIFIED, BAD_INPUT = 0, 1, 2


def _print(payload, pretty: bool) -> None:
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


def _default_max_morphisms() -> int:
    return int(os.environ.get("SMALLCAT_MAX_MORPHISMS", "400"))


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
    h = solve_lifting(sq, node_budget=args.max_morphisms * 5000)
    payload: dict = {"exists": h is not None}
    if h is not None:
        payload["diagonal"] = {"objects": dict(sorted(h.ob_map.items())),
                               "morphisms": dict(sorted(h.mor_map.items()))}
    _print(payload, args.pretty)
    return OK


def cmd_rlp(args) -> int:
    from .catmodel import has_rlp
    loaded = _load(args.file)
    maps = [_need(loaded.functors, n, "functor")
            for n in args.maps.split(",")]
    p = _need(loaded.functors, args.against, "functor")
    verdict = has_rlp(maps, p, node_budget=args.max_morphisms * 5000)
    _print({"has_rlp": verdict}, args.pretty)
    return OK


def cmd_soa(args) -> int:
    from . import setval
    from .catmodel import bounded_soa
    loaded = _load(args.file)
    gens = [_need(loaded.dmaps, n, "dmap") for n in args.generators.split(",")]
    f = _need(loaded.dmaps, args.map, "dmap")
    res = bounded_soa(gens, f, args.max_stages,
                      node_budget=args.max_morphisms * 5000)
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
    pres = nabla.build_nabla(args.dim)
    if args.homcount:
        m, n = args.homcount
        count = len(pres.semidirect.category.hom(f"[{m}]", f"[{n}]"))
        _print(count, args.pretty)
        return OK
    delta = nabla.delta_leq(args.dim)
    doubling = all(
        len(pres.semidirect.category.hom(f"[{m}]", f"[{n}]"))
        == 2 * len(delta.hom(f"[{m}]", f"[{n}]"))
        for m in range(args.dim + 1) for n in range(args.dim + 1))
    payload = {
        "dim": args.dim,
        "objects": len(pres.semidirect.category.objects),
        "morphisms": len(pres.semidirect.category.morphisms),
        "presentations_isomorphic": True,    # build_nabla verifies tablewise
        "hom_doubling": doubling,
    }
    _print(payload, args.pretty)
    return OK if doubling else FALSIFIED


def cmd_rsset(args) -> int:
    from . import nabla
    loaded = _load(args.file)
    X = _need(loaded.rssets, args.name, "rsset")
    payload = {
        "level": X.level,
        "sizes": {str(n): len(X.simplices(n)) for n in range(X.level + 1)},
        "valid": True,     # load() already validated
        "conjugation_squares": nabla.conjugation_squares_hold(X),
    }
    code = OK
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
    from . import cycops
    from .catspec import CatspecError
    loaded = _load(args.file)
    P = _need(loaded.operads, args.operad, "operad")
    if args.arity_bound is not None:
        if args.arity_bound > P.arity_bound:
            raise CatspecError(
                "arity bound exceeds the bound stored in the document")
        P = cycops.truncate_operad(P, args.arity_bound)
    RQ = cycops.right_adjoint_R(P)
    errs = cycops.validate_cyclic(RQ)
    payload = {
        "arity_bound": P.arity_bound,
        "sizes": {str(n): len(P.elements[n])
                  for n in range(P.arity_bound + 1)},
        "R_sizes": {str(n): len(RQ.operad.elements[n])
                    for n in range(P.arity_bound + 1)},
        "R_sizes_are_powers": all(
            len(RQ.operad.elements[n]) == len(P.elements[n]) ** (n + 1)
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


# ---------------------------------------------------------------------------
# the recorded literature checks


def _case_dagger() -> tuple[dict, bool]:
    from . import invcat
    rep = invcat.reproduce_dagger_counterexample()
    payload = {"p_isofib": rep["p_isofib"], "Rp_isofib": rep["Rp_isofib"]}
    return payload, rep["p_isofib"] and not rep["Rp_isofib"]


def _case_truncation() -> tuple[dict, bool]:
    from . import chaincx
    out = {}
    ok = True
    for p in (2, 5):
        rep = chaincx.reproduce_truncation_counterexample(p)
        out[str(p)] = {"acyclic_fib": rep["acyclic_fib"],
                       "FR_acyclic_fib": rep["FR_acyclic_fib"]}
        ok = ok and rep["acyclic_fib"] and not rep["FR_acyclic_fib"]
    return out, ok


def _case_nabla() -> tuple[dict, bool]:
    from . import nabla
    pres = nabla.build_nabla(2)
    delta = nabla.delta_leq(2)
    two = len(pres.semidirect.category.hom("[0]", "[0]"))
    doubling = all(
        len(pres.semidirect.category.hom(f"[{m}]", f"[{n}]"))
        == 2 * len(delta.hom(f"[{m}]", f"[{n}]"))
        for m in range(3) for n in range(3))
    return ({"hom_0_0": two, "hom_doubling": doubling,
             "presentations_isomorphic": True},
            two == 2 and doubling)


def _case_icat() -> tuple[dict, bool]:
    from . import invcat
    from .fincat import (CatFunctor, coproduct, empty_category, opposite,
                         product, terminal_category, walking_arrow)
    X = walking_arrow()
    LX = invcat.L_inv(X)
    RX = invcat.R_inv(X)
    counts_ok = (len(LX.base.objects) == 2 * len(X.objects)
                 and len(RX.base.objects) == len(X.objects) ** 2)
    underlying_ok = (invcat.forget_inv(LX) == coproduct(X, opposite(X))
                     and invcat.forget_inv(RX) == product(X, opposite(X)))
    rep = invcat.check_inv_adjunctions(
        [terminal_category(), X], invcat.L_inv(X))
    rep2 = invcat.check_inv_adjunctions([X], invcat.R_inv(terminal_category()))
    # a fixed object outside the image breaks the cofibration criterion
    empty = invcat.L_inv(empty_category())
    pt = invcat.trivial_involution(terminal_category())
    to_fixed = invcat.EquivariantFunctor(
        empty, pt, CatFunctor(empty.base, pt.base, {}, {}))
    to_free = invcat.EquivariantFunctor(
        empty, invcat.L_inv(terminal_category()),
        CatFunctor(empty.base, invcat.L_inv(terminal_category()).base, {}, {}))
    exercise_ok = (not invcat.is_inv_cofibration(to_fixed)
                   and invcat.is_inv_cofibration(to_free))
    ok = counts_ok and underlying_ok and rep.ok and rep2.ok and exercise_ok
    return ({"object_counts": counts_ok,
             "underlying_constructions": underlying_ok,
             "left_right_bijections": rep.ok and rep2.ok,
             "free_action_criterion": exercise_ok}, ok)


def _case_fully_faithful() -> tuple[dict, bool]:
    from . import setval
    from .fincat import CatFunctor, chain_category, walking_arrow
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = setval.SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    unit_iso = setval.is_iso_diagram_map(setval.lan_unit(iota, X))
    counit_iso = setval.is_iso_diagram_map(setval.ran_counit(iota, X))
    comma = setval.comma_over(iota, "1")
    terminal = setval.terminal_objects(comma.category)
    return ({"unit_iso": unit_iso, "counit_iso": counit_iso,
             "comma_has_terminal_identity": len(terminal) == 1},
            unit_iso and counit_iso and len(terminal) == 1)


def _case_semidirect_lan() -> tuple[dict, bool]:
    from . import semidirect, setval
    from .fincat import cyclic_group, discrete_category
    C = discrete_category("ab")
    action = semidirect.permutation_action(
        cyclic_group(2), C,
        {"g0": {"a": "a", "b": "b"}, "g1": {"a": "b", "b": "a"}})
    F = setval.SetDiagram.build(
        C, {"a": ("u",), "b": ("v", "w")},
        {"id_a": {"u": "u"}, "id_b": {"v": "v", "w": "w"}})
    rep = semidirect.verify_lan_formula(action, F)
    return ({"natural_iso": rep.natural_iso,
             "components_indexed_by_group": rep.comma_components_indexed_by_group},
            rep.ok)


def _case_boundary_preservation() -> tuple[dict, bool]:
    # the flip of the simplex category preserves boundary inclusions
    from . import nabla, setval
    from .fincat import opposite_functor
    N = 2
    action = nabla.nabla_action(N)
    flip_op = opposite_functor(action.rho[nabla.SWAP])
    ok = True
    for n in range(N + 1):
        inc = nabla.boundary_inclusion_sset(N, n)
        moved = setval.restrict_map(flip_op, inc)
        if setval.validate_diagram_map(moved) or \
                not setval.is_mono_diagram_map(moved):
            ok = False
    return {"flip_preserves_boundary_monos": ok}, ok


def _case_joyal_generators() -> tuple[dict, bool]:
    from . import nabla
    gens = nabla.generating_cofibrations(2)
    normal = all(nabla.is_normal_mono(g) for g in gens)
    return {"generators": len(gens), "all_normal_monos": normal}, normal


def _case_cyclic() -> tuple[dict, bool]:
    from . import cycops
    P = cycops.associative_operad(3)
    RQ = cycops.right_adjoint_R(P)
    sizes = all(len(RQ.operad.elements[n]) == len(P.elements[n]) ** (n + 1)
                for n in range(4))
    valid = cycops.validate_cyclic(RQ) == []
    T = cycops.terminal_operad(3)
    RT = cycops.right_adjoint_R(T)
    ident = cycops.CyclicOperadMap(
        RT, RT, {n: {x: x for x in RT.operad.elements[n]} for n in range(4)})
    prod = cycops.check_FR_products(ident)
    return ({"R_sizes_are_powers": sizes, "R_assoc_cyclic": valid,
             "FR_products": prod.ok}, sizes and valid and prod.ok)


def _case_isofibration() -> tuple[dict, bool]:
    from .catmodel import (default_generating_acyclic_cofibrations, has_rlp,
                           is_isofibration)
    from .fincat import (CatFunctor, enumerate_functors, indiscrete_category,
                         terminal_category, validate_functor, walking_arrow,
                         walking_iso)
    X = indiscrete_category(["x", "xp", "y"])
    Y = indiscrete_category(["z", "y"])
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.target[m]]}_from_{ob[X.source[m]]}"
           for m in X.morphisms}
    p = CatFunctor(X, Y, ob, mor)
    section_ok = validate_functor(p) == [] and is_isofibration(p)
    J = default_generating_acyclic_cofibrations()
    agree = True
    for C in (terminal_category(), walking_arrow(), walking_iso()):
        for D in (terminal_category(), walking_iso()):
            for F in enumerate_functors(C, D)[:6]:
                if has_rlp(J, F) != is_isofibration(F):
                    agree = False
    return ({"section_functor_isofib": section_ok, "rlp_oracle_agrees": agree},
            section_ok and agree)


PAPER_CASES = {
    "dagger": _case_dagger,
    "truncation": _case_truncation,
    "nabla": _case_nabla,
    "icat": _case_icat,
    "fully-faithful": _case_fully_faithful,
    "semidirect-lan": _case_semidirect_lan,
    "boundary-preservation": _case_boundary_preservation,
    "joyal-generators": _case_joyal_generators,
    "cyclic": _case_cyclic,
    "isofibration": _case_isofibration,
}


def cmd_paper_suite(args) -> int:
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
    p.add_argument("--max-morphisms", type=int,
                   default=_default_max_morphisms())
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("rlp", help="right lifting property against a set of maps")
    p.add_argument("file")
    p.add_argument("--maps", required=True, help="comma-separated functor names")
    p.add_argument("--against", required=True)
    p.add_argument("--max-morphisms", type=int,
                   default=_default_max_morphisms())
    p.set_defaults(func=cmd_rlp)

    p = sub.add_parser("soa", help="bounded small object argument")
    p.add_argument("file")
    p.add_argument("--generators", required=True,
                   help="comma-separated dmap names")
    p.add_argument("--map", required=True, help="dmap name to factor")
    p.add_argument("--max-stages", type=int, default=4)
    p.add_argument("--max-morphisms", type=int,
                   default=_default_max_morphisms())
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
