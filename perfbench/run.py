"""awsym benchmark: one closed-loop client, four workloads, oracle-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads: antiwick-desk, heat-1024, diagnostics, cli-cold (see
``BENCHMARK.json`` for why each exists and ``perfbench/LAYER_MAP.json``
for which layer metric should move which end-to-end metric).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Task throughput and latencies are reported in units of a fixed numpy-only
speed probe timed in the same run (``ref``; see ``harness.SpeedProbe``),
because the host's speed drifts by more than the benchmark's bounds; the
same figures in seconds and milliseconds are in the detail record.
``--trace 1`` is the separate traced run: it repeats the same cycles
untraced and then with a span recorder wrapped around the public
functions of every awsym module, and reports per-layer calls, self time
and computed byte counts plus the tracing overhead.  ``--self-check``
runs every workload's task list once at N=64, L=4 (traced and untraced)
and exits non-zero if any output misses its oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a detail record (machine block, seed, task-class latencies, tail
percentile and sample count).  Details and spans are also written under
``.perfbench_out/``.

Numbers are only comparable between runs on the same machine: CPU
frequency scaling and pinning are not controlled by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def _blas_env() -> dict:
    """Cap every BLAS pool at nproc before numpy loads; children inherit it."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        threads = min(nproc, int(current)) if current.isdigit() and \
            int(current) > 0 else nproc
        env[var] = os.environ[var] = str(threads)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "awsym" / "__init__.py").is_file():
        print(f"perfbench: no awsym sources under {SRC}", file=sys.stderr)
        return 2
    env = _blas_env()
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy and awsym after the BLAS cap is set

    if args.self_check:
        return harness.self_check(ROOT, env)
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed, ROOT, env)
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ROOT, env, START, SETUP_PROBES)
    print(json.dumps(result["detail"], sort_keys=True))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
