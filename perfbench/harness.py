"""Shared plumbing of the end-to-end benchmark: paths, the program's
environment, output checks, statistics and the result line.

Everything the benchmark writes at run time goes under
``<checkout>/.perfbench_state`` (native-kernel cache, temp files,
service state dirs), so a run reads and writes only inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
PYTHON = sys.executable

#: The configurations the workloads cycle through (Table-1 settings:
#: ε = 5 %, l = 90 %).
METHODS = ("fixed", "auto", "pot")


def program_env() -> Dict[str, str]:
    """Environment for every program process the benchmark starts.

    Inherited ``REPRO_*`` settings are dropped so a stray
    ``REPRO_TRACE`` or kernel override cannot change what is measured;
    the native kernel tier is requested explicitly and its compiled
    extension is cached inside the checkout.  BLAS runs one thread per
    process: the estimator's linear algebra is on tiny matrices, and on
    a shared two-CPU host a second BLAS thread only waits for a busy
    core (it made one fixed-method estimate vary 0.54–1.18 s).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_SIM_KERNEL="native",
        REPRO_NATIVE_CACHE=str(STATE / "native"),
        TMPDIR=str(STATE / "tmp"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def prepare_process() -> None:
    """Make this process import the checkout's program with the same
    environment its child processes get."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program sources at {SRC / 'repro'}; run the "
            "benchmark from the root of a full checkout"
        )
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(program_env())
    import tempfile

    tempfile.tempdir = os.environ["TMPDIR"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_python(args: List[str], timeout: float = 170.0) -> subprocess.CompletedProcess:
    """Run ``python <args>`` in the program environment, from the root."""
    return subprocess.run(
        [PYTHON] + list(args),
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- output checks -------------------------------------------------------
def _perturb(value):
    """A reference value that differs from ``value`` (the smoke test
    uses it to prove that each check can fail)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1.0 + 1e-9) + 1e-300
    if isinstance(value, str):
        return value + "†"
    if isinstance(value, dict):
        return {**value, "__perturbed__": True}
    if isinstance(value, list):
        return value + [None]
    return "perturbed"


class Checks:
    """Named equality checks of program outputs against references.

    ``corrupt`` names checks whose reference is deliberately perturbed;
    the smoke test uses it to show every check trips on a wrong value.
    """

    def __init__(self, corrupt: Iterable[str] = ()):
        self.corrupt = set(corrupt)
        self.failed: List[str] = []

    def expect(self, name: str, actual, reference) -> bool:
        if name in self.corrupt:
            reference = _perturb(reference)
        if actual == reference:
            return True
        self.failed.append(name)
        detail = f"{actual!r} != {reference!r}"
        print(f"check failed: {name}: {detail[:300]}")
        return False

    @property
    def ok(self) -> bool:
        return not self.failed


# -- host speed ----------------------------------------------------------
class ReferenceLoop:
    """A fixed piece of work, timed between the workload's operations,
    that measures how fast the host runs at that moment.

    On a shared host the CPUs this benchmark gets run up to twice as
    slowly for seconds to minutes at a time, and the process's CPU time
    slows with its wall time (no time is reported stolen while one vCPU
    is busy), so neither clock alone is steady.  The loop mirrors the
    estimator's instruction mix — SciPy Weibull fits on small samples
    plus interpreted integer arithmetic — and runs none of the program's
    code, so a change to the program never moves it.  :meth:`scale`
    divides an operation's wall time by the loop's time measured just
    before and just after it and multiplies by :data:`NOMINAL_S`: the
    result is the operation's time on a host where the loop takes
    ``NOMINAL_S``.
    """

    #: The loop's median wall time on the two-vCPU host the benchmark
    #: was written on.
    NOMINAL_S = 0.040

    def __init__(self) -> None:
        import numpy as np
        from scipy import stats

        self._fit = stats.weibull_min.fit
        self._samples = [
            np.random.default_rng(i).weibull(3.0, 30) * 5.0 + 1.0 for i in range(6)
        ]
        self.times: List[float] = []
        self.measure()  # warm-up; not recorded
        self.times.clear()

    def measure(self) -> float:
        """Run the loop once; return (and record) its wall time."""
        start = time.perf_counter()
        for sample in self._samples:
            self._fit(sample)
        total = 0
        for i in range(100_000):
            total += i * i
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between loop times ``before`` and
        ``after``, normalised to the nominal host speed."""
        return seconds * self.NOMINAL_S / ((before + after) / 2.0)

    def report(self) -> None:
        report(
            "reference_loop_s", median(self.times), "s",
            f"median of {len(self.times)}; nominal {self.NOMINAL_S:g} s",
        )


# -- statistics ----------------------------------------------------------
def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values: Iterable[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; ``None`` with fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def loglog_slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# -- reporting -----------------------------------------------------------
def report(name: str, value, unit: str, note: str = "") -> None:
    """One human-readable metric line (before the result line)."""
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
    print(f"  {name:<40} {shown:>12} {unit:<6} {note}".rstrip())


def host_info() -> dict:
    """Where the numbers came from: CPUs, kernel tier, library versions,
    and the program's commit (or a digest of its sources)."""
    import importlib.util

    import numpy
    import scipy

    from repro.sim.compiled import resolve_kernel
    from repro.sim.native import backend_name

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "kernel": resolve_kernel(probe=True),
        "native_backend": backend_name(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def emit_result(
    checks: Checks, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> int:
    """Print the result line (the last line of stdout); return the exit
    code: 1 when any output check failed."""
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            print(f"check failed: metric {name} is not finite ({value!r})")
            checks.failed.append(f"metric:{name}")
    correct = checks.ok
    payload = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value) if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)
    return 0 if correct else 1
