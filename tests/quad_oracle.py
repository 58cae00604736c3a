"""Batched adaptive Simpson quadrature on uniform panels: the test oracle.

The S and M exponents are integrals of smooth, non oscillatory integrands
along characteristics.  The library evaluates them in closed form; the tests
integrate the same integrands with this panel-doubling Simpson routine: all
batch elements share a panel count, the count doubles until each element's
Richardson estimate clears the tolerance, and converged elements drop out of
the active set.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from vpfp.errors import NumericError

# Cap on vectorized integrand evaluations per pass; active batches larger
# than this are processed in chunks to bound memory.
_EVAL_BUDGET = 2 ** 25

# Starting panel count (even) and the cap past which a batch gives up.
_N0 = 8
_MAX_PANELS = 2 ** 20


def _simpson_row(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Composite Simpson sum along the last axis. values has odd length n+1."""
    acc = values[..., 0] + values[..., -1]
    acc = acc + 4.0 * values[..., 1:-1:2].sum(axis=-1)
    acc = acc + 2.0 * values[..., 2:-1:2].sum(axis=-1)
    return acc * (h / 3.0)


def adaptive_simpson_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rtol: float,
) -> np.ndarray:
    """Integrate f over [a[i], b[i]] for every batch element i.

    Args:
        f: callable (idx, s) -> values. idx is an int array selecting batch
            elements, s is a matrix of quadrature nodes with one row per
            selected element; the return must have s's shape.
        a, b: 1-d arrays of integration limits, b >= a elementwise.
        rtol: relative tolerance on each integral, judged by the change
            under panel doubling (Richardson factor 15 applied).

    Every element starts on _N0 panels.  Past _MAX_PANELS panels the batch
    raises NumericError reporting the worst achieved relative error.

    Returns:
        1-d array of integral values.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("limits must be 1-d arrays of equal length")
    m = a.size
    result = np.zeros(m)
    active = np.nonzero(b > a)[0]
    if active.size == 0:
        return result
    prev = np.full(m, np.nan)
    n = _N0
    while True:
        chunk = max(1, _EVAL_BUDGET // (n + 1))
        vals = np.empty(active.size)
        for lo in range(0, active.size, chunk):
            idx = active[lo:lo + chunk]
            lin = np.linspace(0.0, 1.0, n + 1)
            s = a[idx, None] + (b - a)[idx, None] * lin[None, :]
            h = (b[idx] - a[idx]) / n
            vals[lo:lo + chunk] = _simpson_row(f(idx, s), h)
        have_prev = np.isfinite(prev[active])
        err = np.abs(vals - prev[active])
        tol = 15.0 * rtol * np.abs(vals) + 1e-300
        done = have_prev & (err <= tol)
        result[active[done]] = vals[done]
        prev[active] = vals
        active = active[~done]
        if active.size == 0:
            return result
        n *= 2
        if n > _MAX_PANELS:
            worst = np.max(err[~done] / np.maximum(np.abs(vals[~done]), 1e-300))
            raise NumericError(
                f"quadrature did not converge within {_MAX_PANELS} panels; "
                f"worst relative change {worst:.3e} (target {rtol:.1e})"
            )
