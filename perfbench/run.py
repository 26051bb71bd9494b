"""The smallcat benchmark: wall-clock time to a verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each run starts fresh interpreters, so the ``functools.cache``
tables of ``smallcat.nabla`` are cold in every set-up.  At most one child
process runs at a time.

Workloads (closed loop, one client, one operation at a time):

* ``kan-corpus`` (in process): a seeded corpus of ``(iota, X, Y)`` triples on
  categories of at most 12 morphisms, each certified with
  ``certify_kan_adjunctions``.  Kan extensions and diagram-map search on
  tiny tables.
* ``cli-suite`` (CLI): the 13 criterion-11 command lines on an emitted
  document, then the full ``paper-suite``.  The only workload that reaches
  ``cycops``, ``chaincx``, ``invcat`` and ``catmodel``, and the one that
  pays process start-up most often.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds per-layer metrics from one traced set-up and one
traced pass (see ``spans.py``), plus traced over untraced pass time.  The
line before it is a run record: versions, sample counts behind each
percentile, failures, and the unscaled medians.

Every time is scaled to reference speed: it is multiplied by ``probe.REF_S``
over the mean of two host-speed probes taken just before and just after it,
on the same CPU (see ``probe.py``).  On a shared host the unscaled times of
identical runs differ by up to 1.9x, which no bound of a regression check
could absorb; scaled, they agree within a few percent.  Every operation's output is checked against
``expected.json``, recorded by ``record.py``; a mismatch, an exception or a
falsified verdict counts as a failed operation.  ``baseline.py`` runs every
workload at several seeds and prints the table of all metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
from statistics import mean, median
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import spans
from probe import probe, scale

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kan-corpus", "cli-suite")

# The cli-suite command lines; "{doc}" is the document set-up emits.
CLI_OPS = [
    ["validate", "{doc}"],
    ["kan", "{doc}", "--functor", "iota", "--diagram", "X"],
    ["kan", "{doc}", "--functor", "iota", "--diagram", "X",
     "--side", "right"],
    ["adjoint", "{doc}", "--functor", "iota"],
    ["lift", "{doc}", "--left", "ident", "--right", "ident",
     "--top", "ident", "--bottom", "ident"],
    ["rlp", "{doc}", "--maps", "ident", "--against", "ident"],
    ["nabla", "--dim", "1", "--homcount", "1", "1"],
    ["nabla", "--dim", "2"],
    ["rsset", "{doc}", "--name", "S", "--roundtrip"],
    ["cyclic", "{doc}", "--operad", "T"],
    ["chain", "{doc}", "--complex", "C", "--truncate", "naive"],
    ["paper-suite", "--case", "dagger"],
    ["paper-suite", "--case", "truncation"],
    ["paper-suite"],
]
ROUNDS = 5             # fresh set-ups per run; setup_s is their median
STARTUP_PER_ROUND = 4  # fresh `--help` runs per round
RUN_LIMIT_S = 170      # a run ends, one way or another, within this
TAIL_BEYOND = 10       # samples that must lie beyond the tail percentile
TAIL_FLOOR = 75        # lowest percentile that still counts as a tail


class BenchError(RuntimeError):
    """The benchmark could not run to completion."""


class Child:
    """One finished child process: exit code, stdout, wall time, peak RSS."""

    def __init__(self, argv: list[str], work: Path, env: dict, cwd: Path,
                 timeout: float):
        out, err = work / "child.out", work / "child.err"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            self.start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=env,
                                    cwd=cwd)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = time.monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        if self.end - self.start >= timeout:
            raise BenchError(f"{' '.join(argv[1:3])} ran out of time")
        self.seconds = self.end - self.start
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out.read_bytes()
        self.stderr = err.read_bytes().decode(errors="replace")


def tail_index(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with at least
    TAIL_BEYOND samples beyond it.  When that percentile would lie below
    TAIL_FLOOR, as for cli-suite's 14 command lines, the tail is the
    slowest sample."""
    k = n - TAIL_BEYOND - 1
    return k if 100 * (k + 1) >= TAIL_FLOOR * n else n - 1


def latency_metrics(passes: list[list[float]]) -> tuple[dict, dict]:
    """wall_s, op_p50_ms and op_tail_ms from per-pass operation latencies
    (s, at reference speed): each is taken within every pass, and the
    median over the run's passes is reported."""
    ops = [sorted(p) for p in passes]
    n = len(ops[0])
    k = tail_index(n)
    metrics = {"wall_s": median(sum(p) for p in ops),
               "op_p50_ms": median(median(p) for p in ops) * 1e3,
               "op_tail_ms": median(p[k] for p in ops) * 1e3}
    record = {"op_p50_ms": {"percentile": 50, "samples": n},
              "op_tail_ms": {"percentile": round(100 * (k + 1) / n, 2),
                             "samples": n, "beyond": n - k - 1}}
    return metrics, record


class Run:
    """One workload at one seed, in ROUNDS rounds of start-up samples, a
    fresh set-up and timed passes, so that every metric's samples are
    spread over the run rather than taken in one spell of the machine.
    Every time is scaled to reference speed by host-speed probes taken just
    before and after it (see ``probe.py``); the unscaled times go to the
    run record."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload = root, workload
        self.seed, self.seconds = seed, seconds
        self.work = root / ".perfbench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.doc = self.work / "input.catspec"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.raw: dict[str, list[float]] = defaultdict(list)

    def child(self, argv: list[str]) -> Child:
        return Child(argv, self.work, self.env, self.root,
                     self.deadline - time.monotonic())

    def worker(self, trace: bool, round_: int,
               budget_s: float) -> tuple[dict, Child]:
        """A fresh interpreter doing the set-up, plus passes on kan-corpus."""
        out = self.work / "worker.json"
        spec = {"workload": self.workload, "seed": self.seed, "round": round_,
                "trace": trace, "budget_s": budget_s,
                "expected": str(HERE / "expected.json"),
                "out": str(out), "doc": str(self.doc)}
        before = probe()
        proc = self.child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)])
        if proc.code != 0:
            raise BenchError(f"worker for {self.workload} exited {proc.code}:\n"
                             + proc.stderr[-2000:])
        result = json.loads(out.read_text())
        raw = result["setup_end"] - proc.start
        result["setup_s"] = raw * scale(before, result["setup_probe"])
        self.raw["setup_s"].append(raw)
        digest = result.get("corpus_digest")
        if digest and digest != self.expected["corpus_digests"][round_]:
            self.problems.append("corpus digest differs from the recorded one")
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.problems += result.get("problems", [])
        return result, proc

    def startup_samples(self) -> list[float]:
        times, before = [], probe()
        for _ in range(STARTUP_PER_ROUND):
            proc = self.child([sys.executable, "-m", "smallcat.cli", "--help"])
            if proc.code != 0:
                raise BenchError("smallcat --help failed:\n" + proc.stderr[-2000:])
            after = probe()
            times.append(proc.seconds * 1e3 * scale(before, after))
            self.raw["startup_ms"].append(proc.seconds * 1e3)
            before = after
        return times

    def cli_ops(self) -> list[list[str]]:
        """The command lines; the inputs are fixed, the seed only orders
        them."""
        ops = list(CLI_OPS)
        random.Random(self.seed).shuffle(ops)
        return ops

    def cli_pass(self, ops, traced: bool) -> tuple[list[float], list[Child]]:
        """One pass over the command lines: latencies at reference speed."""
        times, procs, before = [], [], probe()
        for k, template in enumerate(ops):
            args = [str(self.doc) if a == "{doc}" else a for a in template]
            if traced:
                argv = [sys.executable, str(HERE / "spans.py"),
                        str(self.work / f"spans-{k}.json"), *args]
            else:
                argv = [sys.executable, "-m", "smallcat.cli", *args]
            proc = self.child(argv)
            after = probe()
            times.append(proc.seconds * scale(before, after))
            procs.append(proc)
            before = after
            self.attempted += 1
            want = self.expected["cli"][" ".join(template)]
            got = {"exit": proc.code,
                   "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
            if got != want:
                self.failed += 1
                self.problems.append(f"{' '.join(template)}: {got} differs "
                                     f"from {want}; {proc.stderr[-500:]}")
        self.raw["wall_s"].append(sum(p.seconds for p in procs))
        return times, procs

    def cli_passes(self, budget_s: float) -> tuple[list[list[float]], list[float]]:
        """Passes while another one is expected to end within the budget."""
        ops = self.cli_ops()
        deadline = time.monotonic() + budget_s
        passes, rss = [], []
        while not passes or (time.monotonic() + mean(map(sum, passes))
                             <= deadline):
            times, procs = self.cli_pass(ops, False)
            passes.append(times)
            rss += [p.rss_mb for p in procs]
        return passes, rss

    def measure(self) -> tuple[dict, dict]:
        """End-to-end metrics.  A pass's time is the sum of its operations'
        latencies, so the benchmark's own output checks and probes are not
        counted."""
        startup, setup, passes, rss = [], [], [], []
        cpus = sorted(os.sched_getaffinity(0))
        for round_ in range(ROUNDS):
            # Each round runs on one CPU, a different one in turn, so that
            # the probes time the CPU the work runs on.
            os.sched_setaffinity(0, {cpus[round_ % len(cpus)]})
            startup += self.startup_samples()
            budget = self.seconds / ROUNDS
            if self.workload == "cli-suite":
                result, _ = self.worker(False, round_, 0)
                round_passes, round_rss = self.cli_passes(budget)
            else:
                result, proc = self.worker(False, round_, budget)
                round_passes, round_rss = result["passes"], [proc.rss_mb]
                self.raw["wall_s"] += result["raw_walls"]
            setup.append(result["setup_s"])
            passes += round_passes
            rss += round_rss
        os.sched_setaffinity(0, cpus)
        lat, lat_record = latency_metrics(passes)
        metrics = {**lat, "setup_s": median(setup), "peak_rss_mb": max(rss),
                   "startup_ms": median(startup)}
        unscaled = {name: median(v) for name, v in self.raw.items()}
        return metrics, {"passes": len(passes), "setups": len(setup),
                         "startup_samples": len(startup), **lat_record,
                         "unscaled_medians": unscaled}

    def measure_traced(self) -> tuple[dict, dict]:
        """Per-layer metrics from one traced set-up and one traced pass, and
        the traced pass time over that of one untraced pass, all on one CPU
        as the probes require."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            return self._measure_traced()
        finally:
            os.sched_setaffinity(0, cpus)

    def _measure_traced(self) -> tuple[dict, dict]:
        if self.workload == "cli-suite":
            self.worker(False, 0, 0)
            ops = self.cli_ops()
            # One op's time swings by 10% between passes, so the overhead
            # comes from two passes each way, in an order that cancels drift;
            # the span records are those of the last traced pass.
            wall = {False: 0.0, True: 0.0}
            for traced in (False, True, True, False):
                times, _ = self.cli_pass(ops, traced)
                wall[traced] += sum(times)
            records = [json.loads((self.work / f"spans-{k}.json").read_text())
                       for k in range(len(ops))]
            return spans.layer_metrics([], records, wall[True] / wall[False]), {}
        plain, _ = self.worker(False, 0, 0)
        traced, _ = self.worker(True, 0, 0)
        overhead = sum(traced["passes"][0]) / sum(plain["passes"][0])
        return spans.layer_metrics([traced["trace"]["setup"]],
                                   [traced["trace"]["pass"]], overhead), {}


def run_record(root: Path, workload: str, seed: int) -> dict:
    head = root / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        target = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target and target.is_file() else ref
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0))}


def run_one(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    run = Run(root, workload, seed, seconds)
    values, record = run.measure_traced() if trace else run.measure()
    units = dict(UNITS)
    metrics = {name: {"value": v, "unit": units.get(name) or layer_unit(name)}
               for name, v in values.items()}
    record = {**run_record(root, workload, seed), **record,
              "fail_ratio": run.failed / max(run.attempted, 1),
              "problems": run.problems[:10]}
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


UNITS = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
         ("setup_s", "s"), ("peak_rss_mb", "MB"), ("startup_ms", "ms"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "smallcat" / "__init__.py").is_file():
        print("run from the root of a smallcat checkout: src/smallcat is "
              "missing", file=sys.stderr)
        return 2
    try:
        result = run_one(root, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
