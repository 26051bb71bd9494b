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
import gc
import sys

# Only the standard library is imported here.  main imports
# smallcat.commands once the command line has parsed, so --help and usage
# errors compile this module alone.

REQUIRED = {"required": True}
BUDGET = {"type": int,
          "help": "search budget (default: $SMALLCAT_MAX_MORPHISMS or 400)"}

# Each command's help line and its arguments, in order: the name or flag
# of each and the keywords ``add_argument`` takes for it.
COMMANDS = {
    "validate": ("load a catspec file, run all validators", {"file": {}}),
    "kan": ("compute a pointwise Kan extension", {
        "file": {}, "--functor": REQUIRED, "--diagram": REQUIRED,
        "--side": {"choices": ("left", "right"), "default": "left"}}),
    "adjoint": ("certify the Kan adjunctions on a corpus", {
        "file": {}, "--functor": REQUIRED}),
    "lift": ("solve a lifting problem of functors", {
        "file": {}, "--left": REQUIRED, "--right": REQUIRED,
        "--top": REQUIRED, "--bottom": REQUIRED, "--max-morphisms": BUDGET}),
    "rlp": ("right lifting property against a set of maps", {
        "file": {},
        "--maps": {"required": True, "help": "comma-separated functor names"},
        "--against": REQUIRED, "--max-morphisms": BUDGET}),
    "soa": ("bounded small object argument", {
        "file": {},
        "--generators": {"required": True, "help": "comma-separated dmap names"},
        "--map": {"required": True, "help": "dmap name to factor"},
        "--max-stages": {"type": int, "default": 4}, "--max-morphisms": BUDGET}),
    "semidirect": ("build and check a semidirect product", {
        "file": {}, "--action": REQUIRED,
        "--diagram": {"help": "verify the extension decomposition"}}),
    "nabla": ("the signed simplex category", {
        "--dim": {"type": int, "default": 3},
        "--homcount": {"type": int, "nargs": 2, "metavar": ("M", "N")}}),
    "rsset": ("validate a truncated real simplicial set", {
        "file": {}, "--name": REQUIRED, "--roundtrip": {"action": "store_true"}}),
    "cyclic": ("the right adjoint into cyclic operads", {
        "file": {}, "--operad": REQUIRED,
        "--arity-bound": {"type": int, "help": "re-truncate the operad "
                          "before building the adjoint"}}),
    "chain": ("homology of a bounded complex", {
        "file": {}, "--complex": REQUIRED,
        "--truncate": {"choices": ("naive", "homotopy")}}),
    "paper-suite": ("run the recorded literature checks", {
        "--case": {"help": "run a single named case"}}),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of a command line whose command is ``command``: every
    command is registered with its help line, and only ``command`` gets its
    arguments (none does for None or a name that is no command)."""
    parser = argparse.ArgumentParser(
        prog="smallcat",
        description="Exhaustive computation with finite categories.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name == command:
            for flag, keywords in arguments.items():
                p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # --pretty, the only global option, takes no value, so the first word
    # that is not an option names the command
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    from . import commands
    return commands.run(args)


def entry() -> None:
    """``sys.exit(main())``, the entry of ``python -m smallcat.cli`` and of
    the ``smallcat`` script, with the heap frozen once the answer is written,
    so that the collections of interpreter shutdown skip all of it."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
