"""Seeded verification suites over the momentum-space identities.

Each check draws its inputs from a single RNG stream, measures the worst
scaled residual over the requested number of trials, and compares it against
the tolerance stated in the corresponding operation's contract.  The report
is deterministic for a fixed seed, and failures are recorded rather than
raised, so a full report is always produced.

Each suite draws its inputs trial by trial, in one fixed RNG order, stacks
them into arrays with a leading trial axis and then evaluates every identity
once over that batch: the library functions take leading batch axes, so no
check loops over trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polarization as pol
from . import planewaves as pw
from . import spin_algebra as sa

__all__ = ["CheckResult", "VerifyReport", "run_verification"]

VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    residual: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    seed: int
    trials: int
    version: str = VERSION
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, statement: str, residual: float, tolerance: float) -> None:
        residual = float(residual)
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        self.checks.append(
            CheckResult(name, statement, residual, float(tolerance), residual <= tolerance)
        )

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "trials": self.trials,
            "overall_pass": self.overall_pass,
            "checks": [
                {
                    "name": c.name,
                    "statement": c.statement,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }


# (name, statement, tolerance) of every check, in report order
_CHECKS = (
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
    ("polarization.field_equations",
     "d_a F^{a mu} + (m/2) A^mu = 0 on the spin-1 modes", 1e-12),
    ("polarization.timelike_dichotomy",
     "time-like mode residual equals (m/2) max|u| exactly", 1e-12),
    ("polarization.normalization_change",
     "A -> 2m A maps the coupled pair onto the textbook system", 1e-12),
    ("polarization.mode_orthogonality",
     "Minkowski Gram matrix of the four modes is diagonal (N = m)", 1e-12),
    ("polarization.phase_unit_modulus", "|kind^(+)(p, l) / kind^(-)(p, -l)| = 1", 1e-10),
    ("polarization.phase_sign_pattern",
     "ratio signs are (+, -, +) across modes (+1, 0, -1)", 1e-10),
    ("polarization.triplet_oracle_phase",
     "closed-form triplets match tensor-derived ones up to one momentum-"
     "independent phase per mode", 1e-8),
    ("polarization.massless_divergence",
     "log-log slopes: 1/m divergence for 0 and 0_t at N = 1, finite "
     "limit for +1/-1 at N = m", 0.02),
    ("polarization.gauge_momentum_direction",
     "gauge vectors along the 4-momentum leave F unchanged", 1e-12),
)


def _random_p(rng: np.random.Generator, lo: float = -10.0, hi: float = 10.0) -> np.ndarray:
    while True:
        p = rng.uniform(lo, hi, 3)
        if np.linalg.norm(p) > 1e-3:
            return p


def _random_psi(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=3) + 1j * rng.normal(size=3)


def _random_complex(rng: np.random.Generator) -> complex:
    return complex(rng.normal(), rng.normal())


def _draw(trials: int, *draws) -> list[np.ndarray]:
    """Call each draw in turn, trial by trial, and stack each one's results."""
    rows = [[draw() for draw in draws] for _ in range(trials)]
    return [np.array(column) for column in zip(*rows)]


def _worst(*residuals) -> float:
    """Largest entry over every given array: 0 when all are empty, NaN when
    any entry is NaN, so that a NaN residual fails its check."""
    return float(np.max([np.max(r, initial=0.0) for r in residuals]))


def _printed_over_derived(p, mode: str, kind: str, m) -> complex:
    """Closed-form triplet over the tensor-derived one, at the derived
    triplet's largest component."""
    printed = pol.field_triplet(p, mode, kind, +1, m).vec
    f = pol.ast_from_potential(pol.polarization_vector(p, mode, m), +1)
    derived = pol.magnetic_from_ast(f) if kind == "B" else pol.electric_from_ast(f)
    idx = np.argmax(np.abs(derived), axis=-1)[..., None]
    return (np.take_along_axis(printed, idx, -1) / np.take_along_axis(derived, idx, -1))[..., 0]


def run_verification(seed: int, trials: int) -> VerifyReport:
    """Run every identity and residual suite with a single seeded RNG."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = {}

    # --- spin algebra -----------------------------------------------------
    mats = np.stack(sa.build_spin_matrices())
    products = mats[:, None] @ mats[None, :]
    worst["spin.commutation"] = _worst(np.abs(
        products - products.swapaxes(0, 1) - 1j * np.tensordot(sa.EPSILON, mats, 1)))
    worst["spin.hermiticity"] = _worst(np.abs(mats - mats.conj().swapaxes(-1, -2)))
    worst["spin.singularity"] = _worst(sa.singularity_report())

    (p,) = _draw(trials, lambda: _random_p(rng))
    norm = np.linalg.norm(p, axis=-1)
    eig = np.linalg.eigvalsh(sa.spin_dot_p(p / norm[:, None]))
    worst["spin.helicity_spectrum"] = _worst(np.abs(eig - np.array([-1.0, 0.0, 1.0])))
    worst["spin.annihilation"] = _worst(sa.annihilation_residual(p) / norm**2)
    worst["spin.product_identity"] = _worst(*(
        sa.product_identity_residual(axis, p) / (1.0 + norm) for axis in ("x", "y", "z")))

    p, h, phase = _draw(min(trials, 200), lambda: _random_p(rng),
                        lambda: int(rng.choice([-1, 1])), lambda: rng.uniform(0, 2 * np.pi))
    psi = pw.helicity_eigenvector(p, h) * np.exp(1j * phase)[:, None]
    pt = -h * np.linalg.norm(p, axis=-1)
    worst["spin.derived_chain"] = _worst(*sa.dirac_chain_residual(p, pt, psi))

    # --- plane-wave families ----------------------------------------------
    e, p, psi, chi = _draw(trials, lambda: rng.uniform(-10.0, 10.0), lambda: _random_p(rng),
                           lambda: _random_psi(rng), lambda: _random_complex(rng))
    scale = (1.0 + e * e + np.sum(p * p, axis=-1)) * np.maximum(
        np.linalg.norm(psi, axis=-1), 1e-300)
    residual = pw.factorization_residual(pw.MomentumState(e, p), pw.RSVector(psi, chi))
    worst["planewave.factorization_identity"] = _worst(residual / scale)

    p, sign, a, chi = _draw(trials, lambda: _random_p(rng), lambda: int(rng.choice([-1, 1])),
                            lambda: _random_complex(rng), lambda: _random_complex(rng))
    state, v = pw.build_generalized_planewave(p, sign, a, chi)
    norm = np.linalg.norm(p, axis=-1)
    scale = (1.0 + abs(state.energy) + norm) * np.maximum(
        np.linalg.norm(v.psi, axis=-1) + abs(chi), 1e-300)
    worst["planewave.generalized_family"] = _worst(
        np.maximum(*pw.generalized_solution_residual(state, v)) / scale)
    worst["planewave.massless_dispersion"] = _worst(
        abs(abs(state.energy) - norm) / np.maximum(1.0, norm))
    worst["planewave.chi_forces_shell"] = _worst(pw.chi_onshell_residual(state, v) / scale)

    e, p, psi = _draw(min(trials, 200), lambda: rng.uniform(-5, 5), lambda: _random_p(rng),
                      lambda: _random_psi(rng))
    state, v = pw.MomentumState(e, p), pw.RSVector(psi, 0j)
    gen = pw.generalized_solution_residual(state, v)
    std = pw.standard_solution_residual(state, v)
    worst["planewave.chi_zero_reduction"] = _worst(abs(gen[0] - std[0]), abs(gen[1] - std[1]))

    # --- polarization modes -------------------------------------------------
    p, m = _draw(trials, lambda: _random_p(rng, -3.0, 3.0), lambda: rng.uniform(0.2, 3.0))
    ep = pol.energy_of(p, m)
    p4, psq = pol.four_momentum(p, ep), np.sum(p * p, axis=-1)
    transversality, proca_t, norm_change = [], [], []
    for mode in pol.TRIPLET_MODES:
        vec = pol.polarization_vector(p, mode, m)
        umax = np.max(np.abs(vec.u), axis=-1)
        transversality.append(abs(pol.minkowski_product(p4, vec.u))
                              / ((ep + np.linalg.norm(p, axis=-1)) * umax))
        proca_t.append(pol.proca_residual(vec)
                       / ((1.0 + (ep * ep + psq) / (2 * m) + m / 2.0) * umax))
        norm_change.append(pol.normalization_change_check(vec)
                           / ((1.0 + ep * ep + psq + m * m) * 2 * m * umax))
    worst["polarization.transversality"] = _worst(*transversality)
    worst["polarization.field_equations"] = _worst(*proca_t)
    worst["polarization.normalization_change"] = _worst(*norm_change)
    tl = pol.polarization_vector(p, "0_t", m)
    expected = (m / 2.0) * np.max(np.abs(tl.u), axis=-1)
    worst["polarization.timelike_dichotomy"] = _worst(
        abs(pol.proca_residual(tl) - expected) / expected)
    gram = pol.mode_gram(p, m, pol.MASS)
    worst["polarization.mode_orthogonality"] = _worst(
        np.abs(gram - gram * np.eye(4)) / (m * m)[:, None, None])

    # m is drawn only for momenta clear of the degenerate z-axis rays
    kept_p, kept_m = [], []
    for _ in range(min(trials, 100)):
        p = _random_p(rng, -3.0, 3.0)
        if min(abs(p[0]), abs(p[1])) >= 1e-2:
            kept_p.append(p)
            kept_m.append(rng.uniform(0.2, 3.0))
    p, m = np.reshape(kept_p, (-1, 3)), np.array(kept_m)
    p_ref = np.array([0.3, -0.4, 0.5])
    phase_mod, phase_sign, oracle_spread = [], [], []
    for kind in ("B", "E"):
        for mode, sign in (("+1", 1.0), ("0", -1.0), ("-1", 1.0)):
            ratio = pol.phase_relation(p, mode, kind, m)
            phase_mod.append(abs(abs(ratio) - 1.0))
            phase_sign.append(abs(ratio - sign * abs(ratio)))
            oracle_spread.append(abs(_printed_over_derived(p, mode, kind, m)
                                     - _printed_over_derived(p_ref, mode, kind, 1.0)))
    worst["polarization.phase_unit_modulus"] = _worst(*phase_mod)
    worst["polarization.phase_sign_pattern"] = _worst(*phase_sign)
    worst["polarization.triplet_oracle_phase"] = _worst(*oracle_spread)

    p_generic = np.array([1.0, 2.0, 2.0])
    worst["polarization.massless_divergence"] = _worst(*(
        abs(pol.massless_scaling(mode, scheme, p_generic) - expected)
        for mode, scheme, expected in (("0_t", pol.CONSTANT, -1.0), ("0", pol.CONSTANT, -1.0),
                                       ("+1", pol.MASS, 0.0), ("-1", pol.MASS, 0.0))))

    p, m = _draw(min(trials, 100), lambda: _random_p(rng, -3.0, 3.0),
                 lambda: rng.uniform(0.2, 3.0))
    f = pol.ast_from_potential(pol.polarization_vector(p, "+1", m), +1)
    ep = pol.energy_of(p, m)
    f2 = pol.ast_gauge_transform(f, 2.0 * pol.four_momentum(p, ep), p, ep)
    worst["polarization.gauge_momentum_direction"] = _worst(
        np.max(np.abs(f2.f - f.f), axis=(-2, -1))
        / np.maximum(np.max(np.abs(f.f), axis=(-2, -1)), 1e-300))

    report = VerifyReport(seed=seed, trials=trials)
    for name, statement, tolerance in _CHECKS:
        report.add(name, statement, worst[name], tolerance)
    return report
