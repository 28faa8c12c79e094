"""The repository benchmark: fault campaigns and a served job stream.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memcmp-skip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (``BENCHMARK.json`` records why each was chosen; it times the
first and the last, because bootloader trials swing too much on a shared
host for a bound):

* ``memcmp-skip``: in-process skip sweep over a 128-byte memcmp;
* ``bootloader-boot``: in-process skips and flips at the end of the secure boot;
* ``served-table3``: one closed-loop client against a service subprocess.

``--trace 0`` measures the end-to-end metrics (no wrappers).  A shared
host's speed swings by a third within minutes, so every workload takes
short slices of a fixed calibration kernel between its operations and
reports times scaled to a reference host; this host's raw figures are
printed next to them.

``--trace 1`` alternates untraced and traced rounds, and reports the
per-layer metrics: each layer's share of the traced wall time, the share
the spans cover, and how much the tracing itself costs
(``trace_overhead_pct``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``all``
runs each workload in a fresh process and prints a table instead.

Every workload builds its inputs from ``--seed`` and checks the program's
outputs; a wrong output counts as a failed operation.  The program under
test is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("memcmp-skip", "bootloader-boot", "served-table3")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "served-table3":
        import served

        return served.run(seed, seconds, trace)
    import engine

    return engine.run(name, seed, seconds, trace)


def run_all(args) -> int:
    """Each workload in a fresh process; a table of their results."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status |= not result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"  {name:16} {metric:34} {entry['value']:14.4f} {entry['unit']}")
    return status


def _terminate(signum, frame):
    # An exception, so every ``finally`` stops the processes it started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report.print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
