"""Run one benchmark workload against the ``ebr`` sources of this checkout.

    python3 benchmarks/run.py --workload cli-suite-32 --seed 7 --seconds 40 --trace 0

Workloads (see README.md): ``cli-suite-32`` and ``query-128-input``. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it installs span wrappers on every public
function of the package and reports the per-layer split instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the
environment record; both, with run details, also go to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``, and traced runs
write their spans to ``.bench_out/spans-<workload>-seed<seed>.tsv.gz``.

Outputs of the program under test go under ``.bench_run/``, which the
run deletes when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> str:
    """Run OpenBLAS on one thread; must run before numpy loads.

    The workloads have one caller, and their matrices are small: a second
    BLAS thread bought little speed and, on a shared host, made every
    product wait for whichever thread was descheduled."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return os.environ["OPENBLAS_NUM_THREADS"]


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_ebr():
    """Import ``ebr`` from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ebr", "__init__.py")):
        raise SystemExit(f"error: no ebr sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import ebr
    import ebr.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(ebr.__file__))) != SRC:
        raise SystemExit(f"error: imported ebr from {ebr.__file__}, not from {SRC}")
    return ebr


def environment(args, blas_threads: str) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_commit": git_commit(),
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "openblas_num_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    blas_threads = pin_blas_threads()
    sys.dont_write_bytecode = True
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ebr = import_ebr()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = environment(args, blas_threads)
    try:
        run = workloads.run_workload(ebr, args.workload, work_dir, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": workloads.metrics(run),
    }
    run.details["failed_frac"] = run.failed / max(run.attempted, 1)
    run.details["setup_runs_s"] = run.setup_s
    tag = f"{args.workload}-seed{args.seed}"
    if run.tracer is not None:
        run.tracer.write(os.path.join(out_dir, f"spans-{tag}.tsv.gz"))
    with open(os.path.join(out_dir, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "details": run.details, "errors": run.errors, **result}, f, indent=2)
        f.write("\n")
    for err in run.errors:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"env": env, "details": run.details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
