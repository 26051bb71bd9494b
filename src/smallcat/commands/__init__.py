"""The commands of ``smallcat``, run by :func:`run` once ``smallcat.cli``
has parsed the command line.  Nothing here imports ``smallcat.cli``,
which ``python -m smallcat.cli`` would then compile twice.

The handler of each command, ``cmd_<name>``, is in the module
``smallcat.commands.<name>`` (``paper_suite`` for ``paper-suite``), which
:func:`run` imports for that command alone: a command line compiles its
own handler and no other.
"""
import importlib
import os
import sys

OK, FALSIFIED, BAD_INPUT = 0, 1, 2


def _print(payload, pretty: bool) -> None:
    import json
    if pretty:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")


def _load(path: str):
    from .. import catspec
    with open(path, "r", encoding="utf-8") as fh:
        return catspec.load(fh.read())


def _need(table: dict, name: str, what: str):
    from ..catspec import CatspecError
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


def run(args) -> int:
    """The exit code of the command ``args`` names; ``{"error": ...}`` and
    BAD_INPUT on refused input: an OSError is a document that cannot be
    read, and a CatspecError is a ValueError.  A standard output closed
    before the answer is written is BAD_INPUT too, with one line on
    standard error."""
    from ..fincat import BudgetError
    name = args.command.replace("-", "_")
    command = getattr(importlib.import_module("." + name, __name__),
                      "cmd_" + name)
    try:
        try:
            code = command(args)
        except BrokenPipeError:
            raise
        except (BudgetError, OSError, ValueError) as exc:
            _print({"error": str(exc)}, args.pretty)
            code = BAD_INPUT
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # As Python's note on SIGPIPE advises: standard output goes to
        # devnull, so that the flush at shutdown fails no second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("smallcat: standard output was closed before the "
                         "answer was written\n")
        return BAD_INPUT
