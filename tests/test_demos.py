"""Each demo script, run with src on PYTHONPATH, prints exactly its
recorded output, kept in tests/demo_output/<demo name>.txt.  When a demo's
output changes on purpose, rewrite that file with the new output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_a_recording():
    assert DEMOS
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_recording(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
