"""Every demo script, and the README quick start, runs to completion
against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run_python(args, tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    out = _run_python(["-c", _readme_quick_start()], tmp_path)
    assert out.strip() == "1.0"    # the value the block's comment promises
