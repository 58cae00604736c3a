#!/usr/bin/env python3
"""Certificate walkthrough for the two analytic weight families.

The streaming weight s and the frequency multiplier M carry the whole
linear theory, so both ship with numeric certificates.  This script runs
them at the standard grid sizes and prints every constant with the bound
it is held to.  Runtime is a few seconds.
"""

import numpy as np

from vpfp.multiplier import check_propM, m_eval
from vpfp.semigroup import (check_propS_bounds, eta_ct, s_density_exponent,
                            s_general_exponent)


def main():
    print("== streaming weight ==")
    print("general exponent against the critical-trace closed form:")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        nu = 10 ** rng.uniform(-5, -2)
        k = int(rng.integers(1, 5))
        dt = rng.uniform(0.0, 5.0) * nu ** (-1.0 / 3.0)
        eta = eta_ct(dt, k, nu)
        general = float(s_general_exponent(
            np.array([dt]), np.array([0.0]), np.array([float(k)]),
            np.array([float(eta)]), np.array([nu]))[0])
        closed = s_density_exponent(dt, k, nu)
        worst = max(worst, abs(general - closed) / (abs(closed) + 1e-300))
    print(f"  worst relative gap over 200 random points: {worst:.2e}")

    rep = check_propS_bounds()
    c = rep.constants
    print("lower envelope of the suppression exponent:")
    print(f"  -log s >= delta0 * min(nu k^2 t^3, k^2 t / nu) "
          f"with delta0 = {c['delta0']}")
    print(f"  two-regime crossover constant b = {c['b_constant']}")
    print(f"  certificate satisfied: {rep.satisfied}")

    print()
    print("== frequency multiplier ==")
    rep = check_propM()
    c = rep.constants
    print(f"  grid floor              c_m   = {c['c_m']:.10f}")
    print(f"  full-rate identity      b_min = {c['b_min']:.6f}  (>= 1 exactly)")
    print(f"  pair-ratio constant           = {c['c_ratio']:.4f}")
    print(f"  eta-derivative constant       = {c['d_deriv']:.4f}")
    print(f"  zero-mode closed form error   = {c['k0_closed_form_err']:.2e}")
    print(f"  certificate satisfied: {rep.satisfied}")
    # The envelope floor sits just under the 0.1 target used by the
    # acceptance checklist; the gap is real, not numerical.  Details are in
    # the acceptance test and the readme.
    t = 2.0 * 1e-3 ** (-1.0 / 3.0)
    print(f"  sample value M(t={t:.1f}, k=1, eta=0, nu=1e-3) "
          f"= {m_eval(t, 1, 0.0, 1e-3):.6f}")


if __name__ == "__main__":
    main()
