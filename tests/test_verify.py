"""The verify report's check table, pinned check by check."""

import numpy as np
import pytest

from chimaxwell.verify import run_verification

CHECKS = [
    ("spin.commutation", "[S_i, S_j] = i eps_ijk S_k", 1e-15),
    ("spin.hermiticity", "S_i = S_i^dagger", 1e-15),
    ("spin.singularity", "det S_x = det S_y = det S_z = 0", 1e-15),
    ("spin.helicity_spectrum", "eig(S.p_hat) = {+1, 0, -1}", 1e-12),
    ("spin.annihilation", "(S.p) p = 0", 1e-13),
    ("spin.product_identity", "S^i (S.p) = p^i I - i [S x p]^i - |p><delta^i|", 1e-13),
    ("spin.derived_chain",
     "S_i-multiplied equations follow from {pt + S.p} psi = 0 and p.psi = 0", 1e-11),
    ("planewave.factorization_identity",
     "(E^2 - p^2) psi = (E - S.p)(E + S.p) psi - p (p.psi), off-shell included", 1e-12),
    ("planewave.generalized_family",
     "(E + S.p) psi = p chi and p.psi = E chi on the constructed family", 1e-13),
    ("planewave.massless_dispersion", "nonzero solutions satisfy |E| = |p|", 1e-10),
    ("planewave.chi_forces_shell", "(E^2 - p^2) chi = 0", 1e-12),
    ("planewave.chi_zero_reduction",
     "chi = 0 reproduces the homogeneous residuals bit for bit", 0.0),
    ("polarization.transversality", "p.u = 0 for the spin-1 modes", 1e-12),
    ("polarization.field_equations", "d_a F^{a mu} + (m/2) A^mu = 0 on the spin-1 modes",
     1e-12),
    ("polarization.timelike_dichotomy", "time-like mode residual equals (m/2) max|u| exactly",
     1e-12),
    ("polarization.normalization_change",
     "A -> 2m A maps the coupled pair onto the textbook system", 1e-12),
    ("polarization.mode_orthogonality",
     "Minkowski Gram matrix of the four modes is diagonal (N = m)", 1e-12),
    ("polarization.phase_unit_modulus", "|kind^(+)(p, l) / kind^(-)(p, -l)| = 1", 1e-10),
    ("polarization.phase_sign_pattern", "ratio signs are (+, -, +) across modes (+1, 0, -1)",
     1e-10),
    ("polarization.triplet_oracle_phase",
     "closed-form triplets match tensor-derived ones up to one momentum-independent phase "
     "per mode", 1e-8),
    ("polarization.massless_divergence",
     "log-log slopes: 1/m divergence for 0 and 0_t at N = 1, finite limit for +1/-1 at N = m",
     0.02),
    ("polarization.gauge_momentum_direction",
     "gauge vectors along the 4-momentum leave F unchanged", 1e-12),
]


@pytest.mark.parametrize("trials", [1, 7])
def test_check_table_is_pinned(trials):
    report = run_verification(3, trials)
    assert [(c.name, c.statement, c.tolerance) for c in report.checks] == CHECKS
    assert report.overall_pass
    assert all(type(c.residual) is float and np.isfinite(c.residual) for c in report.checks)
