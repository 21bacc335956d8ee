"""What importing the public entry points, and a default estimate, load."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_and_fixed_rounds_do_not_import_scipy_stats():
    # scipy.stats is the slowest scipy subpackage to import; neither the
    # entry points nor the paper's fixed method need any of it.
    code = (
        "import sys\n"
        "import repro.api, repro.service, repro.cli\n"
        "loaded = lambda: [m for m in sys.modules if m.startswith('scipy.stats')]\n"
        "print(loaded())\n"
        "repro.api.estimate('c432', repro.api.EstimatorConfig(max_hyper_samples=3),\n"
        "                   seed=1, population_size=500)\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_entry_points_and_fixed_rounds_run_without_scipy():
    # With "scipy" mapped to None every scipy import raises ImportError,
    # so the entry points, a CLI estimate and a default estimate (the
    # paper's l = 0.90) must get by on the in-repo solvers and t table.
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro, repro.api, repro.service, repro.cli\n"
        "repro.cli.main(['estimate', 'c432', '--population', '500', '--seed', '3'])\n"
        "repro.api.estimate('c432', repro.api.EstimatorConfig(confidence=0.9),\n"
        "                   seed=1, population_size=500)\n"
        "print([m for m, mod in sys.modules.items()\n"
        "       if (m == 'scipy' or m.startswith('scipy.')) and mod is not None])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "P_max" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"
