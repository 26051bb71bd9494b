"""Every demo prints exactly its recorded output.

The demos run several lifting, Kan-extension and operad paths end to end;
``demo_outputs/<name>.txt`` holds the stdout each one printed when it was
recorded.  The demos are deterministic, independent of ``PYTHONHASHSEED``.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "demo_outputs"


def test_every_demo_has_a_recorded_output():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_recording(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
