"""A mutation census of chosen functions: which single-operator faults
the tests miss.  pytest does not collect this file.

    python tests/mutation_census.py WORKDIR TARGET... [-- PYTEST_ARG...]

Each TARGET is ``module:function`` (``searchcore:backtrack``,
``commands:run``), a module of ``smallcat``, dotted for a subpackage.
The script copies this checkout (without ``.git``) into WORKDIR, which
it creates and which must not be inside the checkout.  It runs pytest
there once unmutated, and stops if that fails; then, for each mutant of
each target, it writes the mutated module into the copy and runs pytest
again, with ``-x -q`` and the PYTEST_ARGs (test files relative to the
checkout, default: all of Tier-1; list the likeliest killers first and
end with ``tests`` to run the rest).  A mutant whose run passes
survived; one that runs three times as long as the unmutated run (a loop
that no longer ends) is killed.  One JSON line per mutant goes to standard output:
target, line, the operator and its replacement, and ``killed`` or
``survived``.  The checkout itself is never written.

The operators, each applied at one place at a time: a comparison flipped
(``<`` and ``>=``, ``<=`` and ``>``, ``==`` and ``!=``, ``in`` and
``not in``, ``is`` and ``is not``), ``and`` and ``or`` swapped, ``not``
dropped, ``+`` and ``-`` swapped (also in ``+=`` and ``-=``), an integer
constant moved by one, ``True`` and ``False`` swapped, ``break`` and
``continue`` swapped, a subscript's index ``i`` read as ``i + 1`` where
it is a plain name, a call made as a statement dropped, and a returned
value replaced by ``None``.  Annotations are not mutated.
"""
from __future__ import annotations

import ast
import copy
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Break: ast.Continue, ast.Continue: ast.Break}


def sites(func: ast.AST) -> list[tuple[ast.AST, str, str, str]]:
    """Each place in ``func`` an operator applies: the node, where in it,
    what it is and what it becomes."""
    annotations = {id(sub) for node in ast.walk(func)
                   for part in (getattr(node, "annotation", None),
                                getattr(node, "returns", None)) if part
                   for sub in ast.walk(part)}
    out = []
    for node in ast.walk(func):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                out.append((node, f"ops[{k}]", type(op).__name__,
                            FLIPS[type(op)].__name__))
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
            if type(node.op) in SWAPS:
                out.append((node, "op", type(node.op).__name__,
                            SWAPS[type(node.op)].__name__))
        elif isinstance(node, (ast.Break, ast.Continue)):
            out.append((node, "stmt", type(node).__name__,
                        SWAPS[type(node)].__name__))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, "not", "not", "(dropped)"))
        elif isinstance(node, ast.Constant) and type(node.value) is bool:
            out.append((node, "value", repr(node.value), repr(not node.value)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, "value", repr(node.value), repr(node.value + 1)))
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Name):
            out.append((node, "slice", node.slice.id, node.slice.id + " + 1"))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            out.append((node, "call", ast.unparse(node.value)[:40], "pass"))
        elif isinstance(node, ast.Return) and node.value is not None:
            out.append((node, "return", ast.unparse(node.value)[:40], "None"))
    return out


class Mutate(ast.NodeTransformer):
    """Apply one site's operator to the node at that site."""

    def __init__(self, target: ast.AST, where: str):
        self.target, self.where = target, where

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if node is not self.target:
            return node
        if self.where.startswith("ops["):
            k = int(self.where[4:-1])
            node.ops[k] = FLIPS[type(node.ops[k])]()
        elif self.where == "op":
            node.op = SWAPS[type(node.op)]()
        elif self.where == "stmt":
            return ast.copy_location(SWAPS[type(node)](), node)
        elif self.where == "not":
            return node.operand
        elif self.where == "value":
            node.value = (not node.value if type(node.value) is bool
                          else node.value + 1)
        elif self.where == "slice":
            node.slice = ast.BinOp(node.slice, ast.Add(), ast.Constant(1))
        elif self.where == "call":
            return ast.copy_location(ast.Pass(), node)
        elif self.where == "return":
            node.value = ast.Constant(None)
        return node


def find(tree: ast.Module, name: str) -> ast.AST:
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name):
            return node
    raise SystemExit(f"no function {name}")


def mutants(path: pathlib.Path, name: str):
    """Each mutant of function ``name`` in ``path``: (line, operator,
    replacement, the mutated module's source)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for k, (node, where, was, now) in enumerate(sites(find(tree, name))):
        # mutate a fresh copy: locate the k-th site again in it
        fresh = copy.deepcopy(tree)
        node2, where2, *_ = sites(find(fresh, name))[k]
        mutated = ast.fix_missing_locations(Mutate(node2, where2).visit(fresh))
        yield node.lineno, was, now, ast.unparse(mutated)


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    else:
        pytest_args = []
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    work = pathlib.Path(argv[0]).resolve()
    if work == ROOT or ROOT in work.parents:
        print("WORKDIR must lie outside the checkout", file=sys.stderr)
        return 2
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")

    def passes(timeout: float | None) -> bool:
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *pytest_args],
                cwd=work, env=env, capture_output=True,
                timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            return False

    start = time.monotonic()
    if not passes(None):
        print("the unmutated copy fails its tests", file=sys.stderr)
        return 1
    timeout = 3 * (time.monotonic() - start)
    for target in argv[1:]:
        module, name = target.split(":")
        rel = pathlib.Path("src/smallcat", *module.split("."))
        rel = rel / "__init__.py" if (work / rel).is_dir() else rel.with_suffix(".py")
        original = (work / rel).read_text(encoding="utf-8")
        try:
            for line, was, now, source in mutants(work / rel, name):
                (work / rel).write_text(source, encoding="utf-8")
                print(json.dumps({
                    "target": target, "line": line, "was": was, "now": now,
                    "outcome": "survived" if passes(timeout) else "killed"}),
                    flush=True)
        finally:
            (work / rel).write_text(original, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
