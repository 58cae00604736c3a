"""Benchmark of the vpfp measurement campaigns, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload echo --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, untraced

Each repetition runs in a fresh interpreter (bench/child.py) with the BLAS
thread count pinned to 1, one process at a time.  An untraced run makes two
set-up-only launches, then repeats the workload until --seconds have passed
(at least once), checks the outputs, and reports medians.  A traced run
(--trace 1) makes one untraced repetition, one traced repetition and one at
2 BLAS threads; all three must write identical bytes.  It reports every span
and count, and the traced minus untraced wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the BLAS thread
count, nproc and the load average.  Exit code 2 means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The checks in this process call BLAS too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"),
              ("lattice_updates_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Set-up-only launches per untraced run, on top of one per repetition.
SETUP_PROBES = 2
# Every run must end within 180 s; keep a margin for the checks.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def per_layer_metrics() -> list[tuple[str, str]]:
    from tracing import COUNT_NAMES, SPAN_NAMES

    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (f"{span}.s", "s"),
                (f"{span}.self_s", "s")]
    out += [(c, "B" if c.endswith("bytes_written") else "count")
            for c in COUNT_NAMES]
    out.append(("trace.overhead_s", "s"))
    return out


def _child(name: str, rep_dir: Path, seed: int, deadline: float, *,
           trace: int = 0, blas: int = 1, setup_only: bool = False):
    """Run one repetition; returns its result dict, or None if it failed."""
    rep_dir.mkdir(parents=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    result = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--out", str(rep_dir / "out"), "--result", str(result),
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before the next repetition")
    try:
        proc = subprocess.run(cmd + ["--launched", repr(time.monotonic())],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{name}: a repetition ran past the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, dict]:
    """Run one workload; returns (result line, information line)."""
    import checks
    from vpfp.io_config import parse_config
    from workloads import WORKLOADS, operations

    deadline = time.monotonic() + DEADLINE_S
    config = parse_config(WORKLOADS[name].config_text)
    ops = operations(name, config)
    check = checks.CHECKS[name]
    base = RUNS / name
    shutil.rmtree(base, ignore_errors=True)
    info = {"workload": name, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}
    attempted = failed = 0
    reps = []

    def rep(label: str, trace: int = 0, blas: int = 1):
        nonlocal attempted, failed
        rep_dir = base / label
        res = _child(name, rep_dir, seed, deadline, trace=trace, blas=blas)
        attempted += ops
        if res is None:
            failed += ops
        else:
            reps.append((rep_dir / "out", res))
        return res

    setups = []
    if trace:
        plain = rep("untraced")
        traced = rep("traced", trace=1)
        rep("blas2", blas=2)
        if plain is None or traced is None:
            raise RunFailed(f"{name}: the traced run lost a repetition")
    else:
        # set-up-only launches first: they also warm the file cache
        for k in range(SETUP_PROBES):
            probe = _child(name, base / f"setup{k}", seed, deadline,
                           setup_only=True)
            if probe is None:
                raise RunFailed(f"{name}: a set-up launch failed")
            setups.append(probe["setup_s"])
        start = time.monotonic()
        i = 0
        while i == 0 or time.monotonic() - start < seconds:
            rep(f"rep{i}")
            i += 1
        if not reps:
            raise RunFailed(f"{name}: every repetition failed")

    problems = check(reps[0][0], config, seed)
    first = checks.digests(reps[0][0])
    for out, _ in reps[1:]:
        if checks.digests(out) != first:
            problems.append(f"{name}: outputs of {out.parent.name} differ "
                            f"from {reps[0][0].parent.name}")

    info["blas_threads"] = reps[0][1]["blas_threads"]
    info["repetitions"] = len(reps)
    info["problems"] = problems
    if trace:
        layer = traced["trace"]
        info["missing_spans"] = layer["missing"]
        values = {}
        for span, row in layer["spans"].items():
            for key in ("calls", "s", "self_s"):
                values[f"{span}.{key}"] = row[key]
        values.update(layer["counts"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in per_layer_metrics()}
    else:
        samples = {
            "wall_s": [r["wall_s"] for _, r in reps],
            "setup_s": setups + [r["setup_s"] for _, r in reps],
            "lattice_updates_per_s": [r["lattice_updates"] / r["wall_s"]
                                      for _, r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for _, r in reps],
        }
        info["samples"] = samples
        info["steps"] = reps[0][1]["steps"]
        metrics = {m: {"value": statistics.median(samples[m]), "unit": u}
                   for m, u in END_TO_END}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def main() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "vpfp" / "__init__.py").is_file():
        print(f"error: no vpfp sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, info = measure(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print(json.dumps(info), flush=True)
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}), flush=True)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
