"""tailnav benchmark: one workload, one process, one unit of work at a time.

    python3 perfbench/run.py --workload rcsp-cluttered --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Every metric is printed by name with its unit, followed by the
digest of the run's deterministic outputs and any problem found.  The
last line is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, holding the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`.  A traced run also writes its spans to
`.perfbench/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# None of these imports numpy; tailnav (and with it numpy) is imported
# only once the thread caps below are in the environment.
from bench_layers import import_tailnav
from bench_runner import report_lines, result_line, run_workload
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# One episode runs at a time, so numpy gets one thread (never more than
# the CPUs this process may use).
BLAS_THREADS = 1


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)

    if not (SRC / "tailnav" / "__init__.py").is_file():
        print(f"error: no tailnav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    tn = import_tailnav()
    import_s = time.perf_counter() - t0
    if Path(tn.package.__file__).resolve().parent != (SRC / "tailnav").resolve():
        print(f"error: imported tailnav from {tn.package.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import numpy

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
               "blas_threads": threads, "python": platform.python_version(),
               "numpy": numpy.__version__, "commit": git_commit(ROOT)}
    print("context " + " ".join(f"{k}={v}" for k, v in context.items()),
          flush=True)
    out = run_workload(tn, args.workload, args.seed, args.seconds,
                       bool(args.trace), WORK / "tmp", import_s)
    for line in report_lines(out):
        print(line)
    if out.tracer is not None:
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.tracer.write(path, context)
        print(f"spans {path.relative_to(ROOT)} "
              f"({len(out.tracer.spans)} spans)")
    print(json.dumps(result_line(out, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
