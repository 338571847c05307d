"""
Time-domain runs of the scalar-extended Maxwell system
======================================================

Two short runs of the pseudo-spectral solver:

1. a 1-D traveling scalar wave chi = cos(kz - ckt) dragging a longitudinal
   electric field along with it -- compared against the closed-form answer;
2. a 3-D Gaussian chi pulse, watching the constraints and the conserved
   energy while it propagates.
"""

import numpy as np

from chimaxwell.chi_solver import C_LIGHT, Grid, SpectralSpace, cfl_bound, run

# --- 1. longitudinal wave, closed form ------------------------------------
grid = Grid(64, 2 * np.pi, dims=1)
k = 2 * np.pi / grid.length
t_end = 0.6 * grid.length / C_LIGHT
final, diags, snaps = run(grid, {"type": "chi_planewave", "params": {"k": [1]}},
                          t_end, output_every=16)

z = SpectralSpace(grid).coordinates()[2]
analytic = np.cos(k * z - C_LIGHT * k * final.t)
print("1-D chi plane wave after t =", round(final.t, 3))
print("  max |E_z - closed form| :", np.max(np.abs(final.e[2] - analytic)))
print("  max |B|                 :", np.max(np.abs(final.b)))
print("  electric Gauss residual :", diags[-1].gauss_e_residual)
print("  curl of the current     :", diags[-1].curl_j_residual,
      "(0 by construction: curl grad = 0)")

# --- 2. Gaussian chi pulse in 3-D ------------------------------------------
grid3 = Grid(32, 2 * np.pi, dims=3)
_, diags3, _ = run(grid3, {"type": "chi_gaussian", "params": {"width": grid3.length / 10}},
                   grid3.length / C_LIGHT, dt=0.5 * cfl_bound(grid3),
                   output_every=20, keep_snapshots=False)

print("\n3-D Gaussian chi pulse, one crossing time:")
print("  max Gauss residuals     :",
      max(max(d.gauss_e_residual, d.gauss_b_residual) for d in diags3))
print("  div B stays zero (real chi => no magnetic sources):",
      max(d.gauss_b_residual for d in diags3))
print("  energy drift            :",
      abs(diags3[-1].energy - diags3[0].energy) / diags3[0].energy)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.plot(z, snaps[0].e[2], label="E_z(t = 0)")
    ax1.plot(z, final.e[2], label=f"E_z(t = {final.t:.2f})")
    ax1.plot(z, analytic, "k:", label="closed form")
    ax1.set_xlabel("z")
    ax1.legend()
    ax1.set_title("longitudinal field dragged by chi")
    times = [d.t for d in diags3]
    ax2.semilogy(times, [max(d.gauss_e_residual, 1e-18) for d in diags3], label="gauss E")
    ax2.semilogy(times, [max(abs(d.energy - diags3[0].energy) / diags3[0].energy, 1e-18)
                         for d in diags3], label="energy drift")
    ax2.set_xlabel("t")
    ax2.legend()
    ax2.set_title("residual and energy drift (3-D run)")
    fig.tight_layout()
    fig.savefig("solver_demo.png", dpi=130)
    print("\nsaved solver_demo.png")
except ImportError:
    pass
