"""
Why m -> 0 cannot simply be set to zero
=======================================

The overall normalization N(m) of the polarization vectors is a genuine
choice.  Scanning |u(p, mode; m)| down a mass ladder shows which modes
diverge like 1/m (slope -1 in log-log), stay finite (slope 0), or vanish.
With N = 1 the longitudinal and time-like modes blow up; N = m tames the
transverse ones instead.  No single N(m) keeps all four finite and nonzero.
"""

import numpy as np

from chimaxwell.polarization import (
    CONSTANT,
    MASS,
    MASSLESS_SCAN_MASSES,
    MODES,
    SQRT_MASS,
    massless_norms,
    massless_scaling,
    massless_slope,
)

p = np.array([1.0, 2.0, 2.0])  # generic direction: p1 + i p2 != 0, p3 != 0

print(f"norm ladder at p = {p}:\n")
header = "scheme   mode " + "".join(f"  m=1e-{k} " for k in range(1, 7)) + "  slope"
print(header)
for scheme in (CONSTANT, MASS, SQRT_MASS):
    for mode in MODES:
        norms = massless_norms(mode, scheme, p)
        slope = massless_slope(norms)
        cells = "".join(f" {n:8.2e}" for n in norms)
        print(f"{scheme.label:<8} {mode:>4}{cells}  {slope:+.2f}")
    print()

print("slope -1: diverges like 1/m; slope 0: finite limit; slope +1: dies with m")

# A frame catch: on the z-axis the +1/-1 closed forms lose their momentum
# dependence (p1 + i p2 = 0), and with N = m they vanish linearly instead of
# staying finite -- polarization content can look frame-dependent.
slope_axis = massless_scaling("+1", MASS, np.array([0.0, 0.0, 1.0]))
print(f"\n+1 mode, N = m, on the z-axis: slope {slope_axis:+.2f} (frame artifact)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for mode in MODES:
        ax.loglog(MASSLESS_SCAN_MASSES, massless_norms(mode, CONSTANT, p), "o-",
                  label=f"mode {mode}")
    ax.set_xlabel("mass m")
    ax.set_ylabel("|u(p, mode)| with N = 1")
    ax.legend()
    ax.set_title("massless-limit divergence, N = 1")
    fig.tight_layout()
    fig.savefig("massless_limit.png", dpi=130)
    print("\nsaved massless_limit.png")
except ImportError:
    pass
