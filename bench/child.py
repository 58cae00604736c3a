"""One repetition of one workload, in a fresh interpreter.

Run by bench/run.py, never by hand.  The parent passes the monotonic clock
reading taken just before it started this process, so setup_s covers the
interpreter start, importing vpfp with numpy and scipy, and parsing the
config.  wall_s runs from the first call into vpfp to its return, outputs
written.  The result goes to a JSON file named by --result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln.lower() and ln.split()[-1][:1] == "/"}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import vpfp
    from vpfp import experiments, io_config

    if Path(vpfp.__file__).resolve().parent != ROOT / "src" / "vpfp":
        print(f"error: imported vpfp from {vpfp.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, run_weighted_energy

    workload = WORKLOADS[args.workload]
    tracer = Tracer(spans=bool(args.trace))
    tracer.install()
    config = io_config.parse_config(workload.config_text)
    t0 = time.monotonic()
    result = {"setup_s": t0 - args.launched}
    if not args.setup_only:
        if workload.kind == "library":
            rows = run_weighted_energy(config, args.seed)
        else:
            experiments.run_experiment(workload.kind, config, args.out)
        result["wall_s"] = time.monotonic() - t0
        if workload.kind == "library":
            Path(args.out).mkdir(parents=True, exist_ok=True)
            with open(Path(args.out) / "samples.json", "w",
                      encoding="utf-8") as fh:
                json.dump(rows, fh)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["steps"] = tracer.counts["solver.steps"]
        result["lattice_updates"] = tracer.counts["solver.lattice_updates"]
        result["blas_threads"] = blas_threads()
        if args.trace:
            result["trace"] = tracer.summary()
            tracer.write(Path(args.result).with_name("trace.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
