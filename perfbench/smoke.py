"""Smoke test of the benchmark itself, at tiny scale (about two minutes).

For every workload it checks that the untraced run prints every
``end_to_end`` metric of ``BENCHMARK.json`` with its unit, that the
traced run prints every ``per_layer`` metric with its unit, that the
workload's own report lines are present, and that a deliberately wrong
reference value trips each of the workload's output checks.

Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Window per workload: long enough at tiny scale for the service's
#: memo hits and for eleven misses (the tail percentile).
SECONDS = {"cli_c7552": "1", "repeat_c3540": "1", "service_c880": "6"}

#: The report lines (the metric names of the benchmark's README) each
#: workload prints, with their units.
REPORTS = {
    "cli_c7552": {"setup_s": "s", "cli_wall_s": "s"},
    "repeat_c3540": {
        "setup_s": "s",
        "estimate_s.fixed": "s",
        "estimate_s.auto": "s",
        "estimate_s.pot": "s",
    },
    "service_c880": {
        "setup_s": "s",
        "miss_latency_s.p50": "s",
        "miss_latency_s.tail": "s",
        "hit_latency_s.p50": "s",
        "jobs_per_s": "1/s",
    },
}

_PROBE_CHECKS = ["service.job_completed", "service.memo_result_matches", "service.matches_api"]
CHECKS = {
    "cli_c7552": ["cli.exit_code", "cli.finite_estimate", "cli.matches_api"] + _PROBE_CHECKS,
    "repeat_c3540": [
        "repeat.finite_estimate",
        "repeat.deterministic",
        "repeat.traced_matches_untraced",
    ] + _PROBE_CHECKS,
    "service_c880": _PROBE_CHECKS + ["service.memo_hit"],
}

_REPORT_LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)")


def run(workload: str, trace: int, corrupt=()) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", SECONDS[workload], "--trace", str(trace),
        "--scale", "tiny",
    ]
    for name in corrupt:
        command += ["--corrupt", name]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def check_workload(workload: str) -> list:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
        result = json.loads(lines[-1])
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"{workload} trace={trace}: {lines[-1]}")
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            problems.append(
                f"{workload} trace={trace}: metrics differ from {section}: "
                f"missing {sorted(set(expected) - set(emitted))}, "
                f"extra {sorted(set(emitted) - set(expected))}, "
                f"wrong units {sorted(n for n in expected if n in emitted and emitted[n] != expected[n])}"
            )
        reported = {
            m.group(1): m.group(3) for m in map(_REPORT_LINE.match, lines) if m
        }
        for name, unit in REPORTS[workload].items():
            if trace == 0 and reported.get(name) != unit:
                problems.append(f"{workload}: no report line {name} [{unit}]")
    proc = run(workload, 1, CHECKS[workload])
    tripped = {
        line.split(":")[1].strip()
        for line in proc.stdout.splitlines()
        if line.startswith("check failed:")
    }
    if proc.returncode == 0:
        problems.append(f"{workload}: wrong reference values did not fail the run")
    missing = sorted(set(CHECKS[workload]) - tripped)
    if missing:
        problems.append(f"{workload}: checks not tripped by a wrong reference: {missing}")
    return problems


def main() -> int:
    problems = []
    for workload in CHECKS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
