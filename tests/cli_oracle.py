"""The command-line parser as it was when it built every command's
arguments.

``build_parser`` adds all arguments of all twelve commands and binds each
command's handler as ``func``.  It is kept, unchanged but for reading the
handlers from :mod:`smallcat.commands`, as the reference that
``test_cli`` compares the parser of :mod:`smallcat.cli`, which adds only
the parsed command's arguments, against.
"""
import argparse

from smallcat.commands.adjoint import cmd_adjoint
from smallcat.commands.chain import cmd_chain
from smallcat.commands.cyclic import cmd_cyclic
from smallcat.commands.kan import cmd_kan
from smallcat.commands.lift import cmd_lift
from smallcat.commands.nabla import cmd_nabla
from smallcat.commands.paper_suite import cmd_paper_suite
from smallcat.commands.rlp import cmd_rlp
from smallcat.commands.rsset import cmd_rsset
from smallcat.commands.semidirect import cmd_semidirect
from smallcat.commands.soa import cmd_soa
from smallcat.commands.validate import cmd_validate

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
