"""Campaign outputs do not depend on the BLAS thread count.

Each campaign runs through the command line in a fresh interpreter, once
with the BLAS libraries pinned to one thread and once to two, and every
output file of the two runs must match by SHA-256.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vpfp.experiments import EXPERIMENT_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"

# a few seconds per run; the threshold config bisects over five verdicts
CONFIGS = {
    "dissipation": "nu_list = 1e-3\nk_list = 1\n",
    "landau": "nu_list = 1e-3\n",
    "echo": "nu_list = 1e-3\nt_final = 10.0\necho_eta_star = 4.0\n",
    "threshold": ("nu_list = 1e-4\nthreshold_horizon = 2.0\n"
                  "threshold_ratio_tol = 1.3\n"),
    "thermalize": "nu = 1e-2\nt_final = 20.0\n",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def output_digests(kind: str, cfg: Path, out: Path, threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-m", "vpfp.cli", kind,
         "--config", str(cfg), "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_outputs_identical_at_one_and_two_blas_threads(tmp_path, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[kind])
    one = output_digests(kind, cfg, tmp_path / "one", 1)
    two = output_digests(kind, cfg, tmp_path / "two", 2)
    assert {"summary.json", "manifest.json"} < set(one)
    assert any(name.endswith(".csv") for name in one)
    assert one == two
