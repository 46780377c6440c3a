"""Benchmark command: one workload per process.

    python3 benchmarks/run.py --workload frozen-eval --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Set-up runs five times, each in a fresh directory, and
``setup_s`` is their median.  Timed rounds of the workload then repeat
until their summed wall time reaches ``--seconds``; each round's outputs
are checked outside the timed region.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics from a traced run).  Work files live in a fresh directory under
``.bench/tmp/`` that is removed at the end; the run record and any span
file are written under ``.bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

N_SETUPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "test_score_mean": "score",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.machine())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)

    root = Path.cwd()
    src = root / "src"
    if not (src / "miltransfer" / "__init__.py").is_file():
        print(f"benchmark: no package at {src / 'miltransfer'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import miltransfer
    if Path(miltransfer.__file__).resolve().parent != (src / "miltransfer").resolve():
        print(f"benchmark: imported miltransfer from {miltransfer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = root / ".bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (root / ".bench" / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench" / "tmp"))
    tracer = tracing.Tracer(args.workload) if args.trace else None
    if tracer:
        tracer.install(miltransfer)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s, round_s, summaries = [], [], []
    attempted = failed = 0
    error = None
    try:
        for i in range(N_SETUPS):
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            if tracer:
                tracer.phase = f"setup{i}"
            t0 = time.perf_counter()
            wl.setup(work / f"setup{i}")
            setup_s.append(time.perf_counter() - t0)
        while not round_s or sum(round_s) < args.seconds:
            if tracer:
                tracer.phase = f"round{len(round_s)}"
            t0 = time.perf_counter()
            out = wl.run_round()
            round_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.phase = "check"
            n_ops, n_failed = wl.check(out)
            attempted += n_ops
            failed += n_failed
            summaries.append(wl.summary(out))
            del out
    except workloads.CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception:  # a crash inside the program is a wrong answer, not a lost run
        error = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if error:
        print(error, file=sys.stderr)
        # the round that broke counts as one more attempted and failed operation
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1

    if tracer:
        rounds = [f"round{i}" for i in range(len(round_s))]
        values = tracer.layer_metrics(f"setup{N_SETUPS - 1}", rounds)
        units = {f"{layer}.{stat}": tracing.STATS[stat][0]
                 for layer, stats in tracing.REPORTED.items() for stat in stats}
        tracer.write(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "test_score_mean": statistics.median(s["test_score_mean"] for s in summaries),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(nproc),
        "setup_s": setup_s, "round_s": round_s, "summaries": summaries,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
