"""The verify report's check table, pinned check by check, and the random
inputs of its suites, value by value."""

import numpy as np
import pytest

from chimaxwell.errors import ChiMaxwellError
from chimaxwell.verify import _draw, _draw_uniform, _inputs, run_verification

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


def test_zero_trials_rejected():
    with pytest.raises(ValueError):
        run_verification(0, 0)


@pytest.mark.parametrize("trials", [1, 7])
def test_check_table_is_pinned(trials):
    report = run_verification(3, trials)
    assert [(c.name, c.statement, c.tolerance) for c in report.checks] == CHECKS
    assert report.overall_pass
    assert all(type(c.residual) is float and np.isfinite(c.residual) for c in report.checks)


def test_trials_beyond_physical_memory_rejected(monkeypatch):
    def unreachable(rng, trials):
        raise AssertionError("inputs were drawn")

    monkeypatch.setattr("chimaxwell.verify._inputs", unreachable)
    with pytest.raises(ChiMaxwellError, match="physical memory"):
        run_verification(0, 2**62)


# The reference: each suite drawn trial by trial, one call per value, as the
# suites drew before their draws were batched.  `_inputs` must yield exactly
# these values and leave the generator where this leaves it.

def ref_random_p(rng, lo=-10.0, hi=10.0, redrawn=None):
    while True:
        p = rng.uniform(lo, hi, 3)
        if np.linalg.norm(p) > 1e-3:
            return p
        if redrawn is not None:
            redrawn.append(p)


def ref_random_psi(rng):
    return rng.normal(size=3) + 1j * rng.normal(size=3)


def ref_random_complex(rng):
    return complex(rng.normal(), rng.normal())


def ref_draw(trials, *draws):
    rows = [[draw() for draw in draws] for _ in range(trials)]
    return [np.array(column) for column in zip(*rows)]


def ref_inputs(rng, trials):
    inputs = {"spin": tuple(ref_draw(trials, lambda: ref_random_p(rng)))}
    inputs["chain"] = tuple(ref_draw(
        min(trials, 200), lambda: ref_random_p(rng), lambda: int(rng.choice([-1, 1])),
        lambda: rng.uniform(0, 2 * np.pi)))
    inputs["factorization"] = tuple(ref_draw(
        trials, lambda: rng.uniform(-10.0, 10.0), lambda: ref_random_p(rng),
        lambda: ref_random_psi(rng), lambda: ref_random_complex(rng)))
    inputs["generalized"] = tuple(ref_draw(
        trials, lambda: ref_random_p(rng), lambda: int(rng.choice([-1, 1])),
        lambda: ref_random_complex(rng), lambda: ref_random_complex(rng)))
    inputs["chi_zero"] = tuple(ref_draw(
        min(trials, 200), lambda: rng.uniform(-5, 5), lambda: ref_random_p(rng),
        lambda: ref_random_psi(rng)))
    inputs["polarization"] = tuple(ref_draw(
        trials, lambda: ref_random_p(rng, -3.0, 3.0), lambda: rng.uniform(0.2, 3.0)))
    kept_p, kept_m = [], []
    for _ in range(min(trials, 100)):
        p = ref_random_p(rng, -3.0, 3.0)
        if min(abs(p[0]), abs(p[1])) >= 1e-2:
            kept_p.append(p)
            kept_m.append(rng.uniform(0.2, 3.0))
    inputs["phase"] = np.reshape(kept_p, (-1, 3)), np.array(kept_m)
    inputs["gauge"] = tuple(ref_draw(
        min(trials, 100), lambda: ref_random_p(rng, -3.0, 3.0), lambda: rng.uniform(0.2, 3.0)))
    return inputs


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("trials", [1, 7, 200, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_inputs_are_the_trial_by_trial_draws(seed, trials):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _inputs(rng, trials), ref_inputs(ref, trials)
    assert list(got) == list(want)
    for suite in want:
        assert_same_bits(got[suite], want[suite])
    assert rng.bit_generator.state == ref.bit_generator.state


# A momentum in +-2e-3 is no longer than 1e-3 in about 6.5 % of draws, so
# these take the path that rewinds the generator and redraws short momenta.
SHORT = (-2e-3, 2e-3)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_draws_rewind_for_short_momenta(seed):
    rng, ref, redrawn = np.random.default_rng(seed), np.random.default_rng(seed), []
    got = _draw(rng, 100, lambda p: (p(*SHORT, 1), rng.integers(0, 2), rng.normal(size=2)))
    want = ref_draw(100, lambda: ref.uniform(*SHORT), lambda: ref_random_p(ref, *SHORT, redrawn),
                    lambda: ref.integers(0, 2), lambda: ref.normal(size=2))
    assert_same_bits([got[0][:, 0], got[0][:, 1:], *got[1:]], want)
    mixed = len(redrawn)
    got = _draw_uniform(rng, 100, SHORT, (0.2, 3.0))
    want = ref_draw(100, lambda: ref_random_p(ref, *SHORT, redrawn), lambda: ref.uniform(0.2, 3.0))
    assert_same_bits(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert 0 < mixed < len(redrawn)  # both draws above redrew a short momentum
