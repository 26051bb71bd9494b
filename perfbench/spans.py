"""Spans around calls into smallcat's public functions, for the traced run.

The library is not edited: ``Tracer.install`` rebinds each traced function
on its module (or class) and every ``from``-import alias of it inside other
``smallcat`` modules.  A span is ``[name, start_ns, end_ns, parent]``, kept
in memory and written out when the traced process ends; self times, call
counts and ratios are derived from the written records by
``layer_metrics``.

Run as a script, it executes one ``smallcat`` command line under tracing and
writes the record to a file:

    python3 perfbench/spans.py RECORD.json nabla --dim 4
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute): a span and a call count per call.
SPANNED = (
    ("nabla.delta_leq", "nabla", "delta_leq"),
    ("nabla.monotone_pair_category", "nabla", "monotone_pair_category"),
    ("semidirect.semidirect", "semidirect", "semidirect"),
    ("fincat.validate_functor", "fincat", "validate_functor"),
    ("catspec.parse", "catspec", "parse"),
    ("catspec.load", "catspec", "load"),
    ("fincat.validate_category", "fincat", "validate_category"),
    ("nabla.to_involutive", "nabla", "to_involutive"),
    ("nabla.from_involutive", "nabla", "from_involutive"),
    ("nabla.conjugation_squares_hold", "nabla", "conjugation_squares_hold"),
    ("setval.validate_diagram", "setval", "validate_diagram"),
    ("fincat.opposite", "fincat", "opposite"),
    ("setval.certify_kan_adjunctions", "setval", "certify_kan_adjunctions"),
    ("setval.lan", "setval", "lan"),
    ("setval.ran", "setval", "ran"),
    ("setval.lan_transpose", "setval", "lan_transpose"),
    ("setval.ran_transpose", "setval", "ran_transpose"),
    ("setval.colimit", "setval", "colimit"),
    ("setval.limit", "setval", "limit"),
    ("setval.enumerate_diagram_maps", "setval", "enumerate_diagram_maps"),
    ("fincat.enumerate_functors", "fincat", "enumerate_functors"),
    ("cycops.right_adjoint_R", "cycops", "right_adjoint_R"),
    ("cycops.validate_cyclic", "cycops", "validate_cyclic"),
    ("nabla.generating_cofibrations", "nabla", "generating_cofibrations"),
    ("catmodel.has_rlp", "catmodel", "has_rlp"),
    ("catmodel.solve_lifting", "catmodel", "solve_lifting"),
    ("invcat.check_inv_adjunctions", "invcat", "check_inv_adjunctions"),
    ("chaincx.homology_dims", "chaincx", "homology_dims"),
)

# Called too often for a span each: a call count only.
COUNTED = (
    ("fincat.hom", "fincat", "FiniteCategory.hom"),
    ("setval.comma_over", "setval", "comma_over"),
    ("setval.comma_under", "setval", "comma_under"),
)

# Reported as self time (excluding traced children) rather than inclusive.
SELF_TIMED = {"catspec.load"}

# Measured over corpus generation (set-up) instead of the timed pass.
SETUP_PHASE = {"fincat.enumerate_functors"}


# Value keys for the reuse ratios.  They use Python's hash, so they are
# compared only within the process that computed them.
def _category_key(C) -> int:
    return hash((C.objects, C.morphisms, frozenset(C.source.items()),
                 frozenset(C.target.items()), frozenset(C.identity.items()),
                 frozenset(C.compose.items())))


def _lan_key(args) -> int:
    iota, X = args
    return hash((iota.key(), _category_key(X.shape),
                 frozenset(X.values.items()),
                 frozenset((m, frozenset(f.items()))
                           for m, f in X.action.items())))


def _pairs(C) -> tuple[int, int]:
    """Composable pairs, and the M^2 pairs a builder examines."""
    return len(C.compose), len(C.morphisms) ** 2


def _triples(C) -> tuple[int, int]:
    """Composable triples, and the M^3 triples the validator examines."""
    leaving = Counter(C.source[m] for m in C.morphisms)
    arriving = Counter(C.target[m] for m in C.morphisms)
    return (sum(leaving[C.target[g]] * arriving[C.source[g]]
                for g in C.morphisms), len(C.morphisms) ** 3)


def _distinct_results(objs, measure) -> tuple[int, int]:
    """Sum ``measure`` over distinct result objects: a cached builder that
    returns the same object again examined nothing the second time."""
    unique = {id(o): o for o in objs}.values()
    parts = [measure(o) for o in unique]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def _per_call(objs, measure) -> tuple[int, int]:
    """Sum ``measure`` over calls: a validator scans its input every time."""
    memo = {id(o): measure(o) for o in objs}
    parts = [memo[id(o)] for o in objs]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def _reuse(objs, key) -> tuple[int, int]:
    """Calls, and distinct argument values among them."""
    keys = {id(o): key(o) for o in objs}
    return len(objs), len(set(keys.values()))


# ratio name -> (traced function, what to capture, reduction to num/den)
RATIOS = {
    "semidirect.pair_yield": (
        "semidirect.semidirect", lambda a, r: r.category,
        lambda objs: _distinct_results(objs, _pairs)),
    "nabla.pair_yield": (
        "nabla.monotone_pair_category", lambda a, r: r,
        lambda objs: _distinct_results(objs, _pairs)),
    "fincat.validate_category.triple_yield": (
        "fincat.validate_category", lambda a, r: a[0],
        lambda objs: _per_call(objs, _triples)),
    "setval.lan.reuse": (
        "setval.lan", lambda a, r: a,
        lambda objs: _reuse(objs, _lan_key)),
    "fincat.opposite.reuse": (
        "fincat.opposite", lambda a, r: a[0],
        lambda objs: _reuse(objs, _category_key)),
}


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self):
        self.names: list[str] = [n for n, _, _ in SPANNED]
        self._index = {n: i for i, n in enumerate(self.names)}
        self._captures = {r: (fn, grab) for r, (fn, grab, _) in RATIOS.items()}
        self.reset()

    def reset(self) -> None:
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)

    def _spanned(self, name: str, fn):
        index = self._index[name]
        grabs = [(r, grab) for r, (f, grab) in self._captures.items()
                 if f == name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            rec = [index, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            for ratio, grab in grabs:
                self.captured[ratio].append(grab(args, result))
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function, including ``from``-import aliases
        held by other smallcat modules."""
        importlib.import_module("smallcat.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "smallcat" or n.startswith("smallcat.")]
        for wrap, targets in ((self._spanned, SPANNED),
                              (self._counted, COUNTED)):
            for name, module, attr in targets:
                owner = importlib.import_module(f"smallcat.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = wrap(name, original)
                setattr(owner, leaf, wrapper)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, alias, wrapper)

    def take(self) -> dict:
        """The record of everything since the last ``take``, then reset."""
        record = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "ratios": {r: list(RATIOS[r][2](objs))
                       for r, objs in self.captured.items()},
        }
        self.reset()
        return record


def _span_times(record: dict) -> tuple[Counter, Counter, Counter]:
    """Per name: calls, inclusive time (outermost spans only, so recursion
    is not counted twice) and self time, in seconds."""
    names, spans = record["names"], record["spans"]
    calls, inclusive, own = Counter(), Counter(), Counter()
    child_time = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    for i, (index, start, end, parent) in enumerate(spans):
        name = names[index]
        calls[name] += 1
        own[name] += (end - start - child_time[i]) / 1e9
        while parent >= 0 and spans[parent][0] != index:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] += (end - start) / 1e9
    return calls, inclusive, own


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    out = []
    for name, _, _ in SPANNED:
        out += [f"{name}_s", f"{name}.calls"]
    out += [f"{name}.calls" for name, _, _ in COUNTED]
    return out + list(RATIOS) + ["trace.overhead_ratio"]


def layer_metrics(setup: list[dict], passes: list[dict],
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics from the records of one traced set-up and one
    traced pass (each possibly split over several processes)."""
    totals = {}
    for phase, records in (("setup", setup), ("pass", passes)):
        calls, inclusive, own, counts = Counter(), Counter(), Counter(), Counter()
        ratios = defaultdict(lambda: [0, 0])
        for record in records:
            c, i, o = _span_times(record)
            calls.update(c)
            inclusive.update(i)
            own.update(o)
            counts.update(record["counts"])
            for r, (num, den) in record["ratios"].items():
                ratios[r][0] += num
                ratios[r][1] += den
        totals[phase] = calls, inclusive, own, counts, ratios
    out = {}
    for name, _, _ in SPANNED:
        calls, inclusive, own, _, _ = totals[
            "setup" if name in SETUP_PHASE else "pass"]
        out[f"{name}_s"] = (own if name in SELF_TIMED else inclusive)[name]
        out[f"{name}.calls"] = calls[name]
    counts, ratios = totals["pass"][3], totals["pass"][4]
    for name, _, _ in COUNTED:
        out[f"{name}.calls"] = counts[name]
    for r in RATIOS:
        num, den = ratios[r]
        out[r] = num / den if den else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def main(argv: list[str]) -> int:
    """Run one ``smallcat`` command line under tracing."""
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from smallcat import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
