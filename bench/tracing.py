"""Spans and counts around vpfp's public functions, installed at run time.

Nothing inside vpfp is edited.  Each traced function is replaced by a wrapper
in every vpfp module namespace that binds it (experiments imports `step` by
name, multiplier imports `adaptive_simpson_batch` by name, ...), so calls
made inside the package are seen as well as calls made by the benchmark.

Spans are kept in memory as [name, start, end, parent] records and written
out when the run ends.  A span's self time is its duration minus the
durations of the spans it directly caused.

The untraced runs install only the step counter, which costs one Python call
per step: without it the end-to-end lattice_updates_per_s has no numerator.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (span name, module, attribute); a dotted attribute is a method on a class.
SPAN_TARGETS = (
    ("solver.step", "vpfp.solver", "step"),
    ("solver.ou_step", "vpfp.solver", "ou_step"),
    ("solver.compute_moments", "vpfp.solver", "compute_moments"),
    ("solver.transport_step", "vpfp.solver", "transport_step"),
    ("solver.conserved_quantities", "vpfp.solver", "conserved_quantities"),
    ("grids.SpectralField.enforce_reality", "vpfp.grids",
     "SpectralField.enforce_reality"),
    ("solver.run_simulation", "vpfp.solver", "run_simulation"),
    ("solver.init_state", "vpfp.solver", "init_state"),
    ("linear_theory.volterra_solve", "vpfp.linear_theory", "volterra_solve"),
    ("linear_theory.free_streaming_source", "vpfp.linear_theory",
     "free_streaming_source"),
    ("multiplier.norm_f", "vpfp.multiplier", "norm_f"),
    ("multiplier.norm_d", "vpfp.multiplier", "norm_d"),
    ("multiplier.m_eval_grid", "vpfp.multiplier", "m_eval_grid"),
    # vpfp._quad; metric names may not start with "_"
    ("quad.adaptive_simpson_batch", "vpfp._quad", "adaptive_simpson_batch"),
    ("io_config.parse_config", "vpfp.io_config", "parse_config"),
    ("io_config.write_csv", "vpfp.io_config", "write_csv"),
    ("io_config.write_json", "vpfp.io_config", "write_json"),
    ("io_config.write_manifest", "vpfp.io_config", "write_manifest"),
)

STEP_MODES = ("full", "linear", "free")

# The names a traced run reports: step split by mode, then every other span.
SPAN_NAMES = tuple(
    [f"solver.step.{m}" for m in STEP_MODES]
    + [name for name, _, _ in SPAN_TARGETS if name != "solver.step"])

COUNT_NAMES = ("solver.steps", "solver.lattice_updates",
               "quad.integrand_evals", "io_config.bytes_written")


def _step_mode(args, kwargs) -> str:
    # step(field, nu, w, mode="full")
    return kwargs.get("mode", args[3] if len(args) > 3 else "full")


def _written_path(args, kwargs):
    # write_csv(rows, schema, path), write_json(doc, path),
    # write_manifest(config, results, path)
    return kwargs["path"] if "path" in kwargs else args[-1]


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.records: list[list] = []
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self

        if name == "solver.step":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                grid = args[0].grid
                tracer.counts["solver.steps"] += 1
                tracer.counts["solver.lattice_updates"] += (
                    grid.n_k * grid.n_eta)
                if not tracer.spans_on:
                    return fn(*args, **kwargs)
                idx = tracer._enter(f"solver.step.{_step_mode(args, kwargs)}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)
            return wrapper

        if name == "quad.adaptive_simpson_batch":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                def counted(idx, s):
                    tracer.counts["quad.integrand_evals"] += s.size
                    return f(idx, s)
                idx = tracer._enter(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(idx)
            return wrapper

        writes = name.startswith("io_config.write_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if writes:
                tracer.counts["io_config.bytes_written"] += os.path.getsize(
                    _written_path(args, kwargs))
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the targets; untraced runs wrap `step` alone, to count."""
        import vpfp  # noqa: F401  (loads every vpfp module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vpfp" or n.startswith("vpfp.")]
        for name, mod_name, attr in SPAN_TARGETS:
            if not self.spans_on and name != "solver.step":
                continue
            owner = sys.modules.get(mod_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span_wrapper(name, original)
            if "." in attr:
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{span: {calls, s, self_s}} for every span name, plus the counts."""
        total = {n: 0.0 for n in SPAN_NAMES}
        child = {n: 0.0 for n in SPAN_NAMES}
        calls = {n: 0 for n in SPAN_NAMES}
        for name, start, end, parent in self.records:
            d = end - start
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                child[self.records[parent][0]] += d
        spans = {n: {"calls": calls[n], "s": total[n],
                     "self_s": total[n] - child[n]} for n in SPAN_NAMES}
        return {"spans": spans, "counts": dict(self.counts),
                "missing": list(self.missing)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.records,
                       "counts": self.counts}, fh)
