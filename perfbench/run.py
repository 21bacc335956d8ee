"""End-to-end, layer-attributed benchmark of the maximum-power estimator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repeat_c3540 --seed 1 --seconds 30 --trace 0

Workloads: ``cli_c7552`` (fresh CLI processes), ``repeat_c3540``
(repeated in-process estimation on one pool) and ``service_c880`` (a
live job server under two closed-loop clients).  ``--trace 0`` measures
the end-to-end metrics with the program's telemetry off; ``--trace 1``
is the separate traced run that reports the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it are a
human-readable report and the host record.  The exit code is 1 when
any output check failed (see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: small circuits and pools, for the smoke test",
    )
    parser.add_argument(
        "--corrupt", action="append", default=[], metavar="CHECK",
        help="perturb the reference value of this output check (smoke test)",
    )
    args = parser.parse_args(argv)
    harness.prepare_process()
    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} scale {args.scale}"
    )
    checks = harness.Checks(args.corrupt)
    attempted, failed, metrics = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), scale, checks
    )
    print("host: " + json.dumps(harness.host_info()))
    return harness.emit_result(checks, attempted, failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
