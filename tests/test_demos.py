"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The warning filters of pyproject.toml, set in each demo's own process
# before the demo runs.  A -W module field must match a whole module name,
# while ``module`` here matches the start of one, as in pytest's filters.
BOOTSTRAP = """
import os, runpy, sys, warnings
warnings.simplefilter("error", RuntimeWarning)
for category in (DeprecationWarning, FutureWarning):
    warnings.filterwarnings("error", category=category, module="icurisk")
sys.argv = sys.argv[1:]
sys.path[0] = os.path.dirname(sys.argv[0])
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def run_script(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", BOOTSTRAP, str(script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = run_script(demo)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("category", ["DeprecationWarning", "FutureWarning"])
def test_demo_process_fails_on_an_icurisk_warning(tmp_path, category):
    script = tmp_path / "planted.py"
    script.write_text("import warnings\n"
                      f"warnings.warn_explicit('planted', {category}, 'cli.py', 1,"
                      " module='icurisk.cli')\n")
    done = run_script(script)
    assert done.returncode != 0
    assert f"{category}: planted" in done.stderr
