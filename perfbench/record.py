"""Record the outputs the benchmark checks against, into ``expected.json``.

    python3 perfbench/record.py        # from the root of a checkout

For every ``cli-suite`` command line it stores the exit code and the SHA-256
of stdout; for every ``kan-corpus`` pool instance, the digest of its
verdict; and the digest of each round's corpus at the default seed.  Record
only at a commit whose outputs are known good: afterwards any change to an
output counts as a failed operation.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

DEFAULT_SEED = 1


def cli_outputs() -> dict:
    work = ROOT / ".perfbench_out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    doc = work / "cli-suite.catspec"
    doc.write_text(corpus.cli_suite_document(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for template in run.CLI_OPS:
        args = [str(doc) if a == "{doc}" else a for a in template]
        proc = subprocess.run([sys.executable, "-m", "smallcat.cli", *args],
                              capture_output=True, env=env, cwd=ROOT, check=False)
        out[" ".join(template)] = {
            "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return out


def main() -> None:
    instances = [corpus.kan_instance(i) for i in range(corpus.KAN_POOL)]
    verdicts = []
    for k, inst in enumerate(instances):
        out = worker.kan_op(inst)
        if not out.ok:
            raise SystemExit(f"kan pool instance {k}: adjunction falsified")
        verdicts.append(corpus.kan_verdict(out))
    expected = {
        "default_seed": DEFAULT_SEED,
        "cli": cli_outputs(),
        "kan": verdicts,
        "corpus_digests": [
            corpus.digest(corpus.kan_input_data(instances[i]) for i in
                          corpus.pick(DEFAULT_SEED, r, worker.KAN_SIZE))
            for r in range(run.ROUNDS)],
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
