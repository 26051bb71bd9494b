"""One fresh interpreter of a benchmark run: a workload's set-up and, for
``kan-corpus``, its timed passes.

    python3 perfbench/worker.py SPEC_JSON

``SPEC_JSON`` holds ``workload``, ``seed``, ``round`` (which of the seed's
corpora to use), ``budget_s`` (passes run while another one is expected to
end within it; at least one runs), ``trace``,
``expected`` (path of the recorded digests), ``out`` (where the result goes)
and ``doc`` (where the ``cli-suite`` set-up writes its document).  The
result records the monotonic time at which set-up ended and a host-speed
probe taken right after it, so the parent, which noted when it started this
process and probed just before, gets set-up time including interpreter
start and imports, at reference speed.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import corpus
from probe import probe, scale
from smallcat import setval

KAN_SIZE = 1000  # corpus instances per round: a pass of a few seconds
CHUNK = 100      # instances timed between two host-speed probes


def kan_op(inst):
    iota, X, Y = inst
    return setval.certify_kan_adjunctions(iota, [X], [Y], naturality_budget=2)


def kan_problem(out, expected: str) -> str | None:
    """Why an operation's output is wrong, or None if it is right."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if not out.ok:
        return "adjunction falsified: " + "; ".join(out.failures[:2])
    if corpus.kan_verdict(out) != expected:
        return "verdict digest differs"
    return None


def run_passes(budget_s: float, instances: list, expected: list):
    """Timed passes over the corpus, in chunks between host-speed probes.

    Each output is checked, untimed, as soon as its operation returns, so no
    pass holds all of its outputs.  Latencies are at reference speed."""
    passes, raw_walls, problems = [], [], []
    attempted = failed = 0
    deadline = time.monotonic() + budget_s
    clock = time.perf_counter
    while True:
        times, raw = [], 0.0
        before = probe()
        for start in range(0, len(instances), CHUNK):
            chunk = []
            for k in range(start, min(start + CHUNK, len(instances))):
                t0 = clock()
                try:
                    out = kan_op(instances[k])
                except Exception as exc:    # any exception fails the operation
                    out = exc
                chunk.append(clock() - t0)
                attempted += 1
                problem = kan_problem(out, expected[k])
                if problem:
                    failed += 1
                    problems.append(f"instance {k}: {problem}")
            after = probe()
            factor = scale(before, after)
            times += [t * factor for t in chunk]
            raw += sum(chunk)
            before = after
        passes.append(times)
        raw_walls.append(raw)
        if (time.monotonic() + statistics.mean(raw_walls)) > deadline:
            return passes, raw_walls, attempted, failed, problems


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    if spec["workload"] == "cli-suite":
        with open(spec["doc"], "w", encoding="utf-8") as fh:
            fh.write(corpus.cli_suite_document())
        return {"setup_end": time.monotonic(), "setup_probe": probe()}

    indices = corpus.pick(spec["seed"], spec["round"], KAN_SIZE)
    instances = [corpus.kan_instance(i) for i in indices]
    setup_end = time.monotonic()
    setup_probe = probe()
    setup_record = tracer.take() if tracer else None

    with open(spec["expected"], encoding="utf-8") as fh:
        recorded = json.load(fh)
    expected = [recorded["kan"][i] for i in indices]
    corpus_digest = None
    if spec["seed"] == recorded["default_seed"]:
        corpus_digest = corpus.digest(map(corpus.kan_input_data, instances))
    passes, raw_walls, attempted, failed, problems = run_passes(
        spec["budget_s"], instances, expected)
    return {
        "setup_end": setup_end,
        "setup_probe": setup_probe,
        "corpus_digest": corpus_digest,
        "passes": passes,
        "raw_walls": raw_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "trace": ({"setup": setup_record, "pass": tracer.take()}
                  if tracer else None),
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
