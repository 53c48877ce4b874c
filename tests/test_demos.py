"""Each demo script, and README's library quickstart, runs against the package in this tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scalemix

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    src = str(Path(scalemix.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"


def test_readme_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
