"""Seeded verification suites over the momentum-space identities.

Each check draws its inputs from a single RNG stream, measures the worst
scaled residual over the requested number of trials, and compares it against
the tolerance stated in the corresponding operation's contract.  The report
is deterministic for a fixed seed, and failures are recorded rather than
raised, so a full report is always produced.

The contract is the sequence of values each seed yields: every suite's
inputs are what a trial-by-trial loop draws from the stream, in one fixed
order (`_inputs`).  Draws are batched only where the stream stays the same.
A suite of uniform values only is one call over all its trials; a mixed
suite makes one call per run of same-kind draws within a trial, since a
normal takes a variable number of words from the generator.  The inputs are
stacked with a leading trial axis and every identity is evaluated once over
that batch: the library functions take leading batch axes, so no check
loops over trials.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from . import polarization as pol
from . import planewaves as pw
from . import spin_algebra as sa
from .errors import ChiMaxwellError

__all__ = ["CheckResult", "VerifyReport", "run_verification"]


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
    version: str = __version__
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


# A drawn momentum no longer than this is drawn again.
_P_MIN = 1e-3

# Memory a trial may take at the peak of run_verification.  tracemalloc
# measured 1.6-2.0 KB a trial at 1 000, 10 000 and 50 000 trials (the batched
# suites scale with trials, the rest are capped), so 4 KiB leaves a margin of
# two.
_TRIAL_BYTES = 4096


def _random_p(rng: np.random.Generator, lo: float = -10.0, hi: float = 10.0,
              lead: int = 0) -> np.ndarray:
    """`lead` values in [lo, hi) and then a momentum in [lo, hi)^3, drawn
    again while it is no longer than _P_MIN, as one row."""
    row = rng.uniform(lo, hi, lead + 3)
    while not np.linalg.norm(row[lead:]) > _P_MIN:
        row[lead:] = rng.uniform(lo, hi, 3)
    return row


def _each(trials: int, draw, p) -> list[np.ndarray]:
    """Call draw(p) `trials` times and stack each of its results over the trials."""
    return [np.array(column) for column in zip(*(draw(p) for _ in range(trials)))]


def _clear(momenta: np.ndarray) -> bool:
    """Whether _random_p would have kept every momentum as drawn.  The margin
    keeps a roundoff difference between two norm routines from deciding."""
    return bool(np.all(np.linalg.norm(momenta, axis=-1) > _P_MIN * (1.0 + 1e-12)))


def _draw(rng: np.random.Generator, trials: int, draw) -> list[np.ndarray]:
    """`_each` over draw(p), where p(lo, hi, lead) stands for
    _random_p(rng, lo, hi, lead).

    The momenta are drawn unchecked, one uniform call a row, and checked
    together afterwards.  Only when one is too short (a chance below 1e-7 a
    suite at 1 000 trials) is rng rewound and every trial drawn again through
    _random_p.  Either way rng yields the values of the trial-by-trial loop."""
    state = rng.bit_generator.state
    momenta = []

    def unchecked(lo: float, hi: float, lead: int = 0) -> np.ndarray:
        row = rng.uniform(lo, hi, lead + 3)
        momenta.append(row[lead:])
        return row

    columns = _each(trials, draw, unchecked)
    if _clear(np.reshape(momenta, (-1, 3))):
        return columns
    rng.bit_generator.state = state
    return _each(trials, draw, partial(_random_p, rng))


def _draw_uniform(rng: np.random.Generator, trials: int, p_bounds, *bounds) -> list[np.ndarray]:
    """Per trial, a momentum in p_bounds^3 and then one uniform value in each
    of `bounds`: the (trials, 3) momenta and then one (trials,) array each.

    All of it is one rng.uniform(low, high, (trials, k)) call with per-column
    bounds.  Generator fills it in C order, entry by entry, as
    low + (high - low) * next_double, so it holds the values the trials would
    draw one by one.  When a momentum is too short, rng is rewound and the
    trials are drawn one by one through _random_p."""
    low, high = np.array([p_bounds] * 3 + list(bounds), dtype=np.float64).T
    state = rng.bit_generator.state
    rows = rng.uniform(low, high, (trials, low.size))
    if _clear(rows[:, :3]):
        return [rows[:, :3].copy(), *rows[:, 3:].T.copy()]
    rng.bit_generator.state = state
    return _each(trials, lambda p: (p(*p_bounds), *(rng.uniform(*b) for b in bounds)),
                 partial(_random_p, rng))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """complex(re, im) entry by entry, exactly: re + 1j * im can turn a -0.0
    into +0.0."""
    return np.stack((re, im), axis=-1).view(np.complex128)[..., 0]


def _inputs(rng: np.random.Generator, trials: int) -> dict[str, tuple[np.ndarray, ...]]:
    """Every suite's random inputs, keyed by suite, in the order rng yields
    them.  Drawing fewer times changes no value: see `_draw`.  Each array is
    contiguous, as the stacked trial-by-trial rows were, so that no
    reduction over it can take another order of summation."""
    # bit(0, 2) takes the words rng.choice([-1, 1]) would, and (-1, 1)[bit]
    # is 2 * bit - 1
    uniform, normal, bit = rng.uniform, rng.normal, rng.integers
    inputs = {"spin": tuple(_draw_uniform(rng, trials, (-10.0, 10.0)))}

    p, bits, phase = _draw(rng, min(trials, 200), lambda p: (
        p(-10.0, 10.0), bit(0, 2), uniform(0, 2 * np.pi)))
    inputs["chain"] = p, 2 * bits - 1, phase

    ep, z = _draw(rng, trials, lambda p: (p(-10.0, 10.0, 1), normal(size=8)))
    inputs["factorization"] = (ep[:, 0].copy(), ep[:, 1:].copy(), z[:, :3] + 1j * z[:, 3:6],
                               _complex(z[:, 6], z[:, 7]))

    p, bits, z = _draw(rng, trials, lambda p: (p(-10.0, 10.0), bit(0, 2), normal(size=4)))
    inputs["generalized"] = p, 2 * bits - 1, _complex(z[:, 0], z[:, 1]), _complex(z[:, 2], z[:, 3])

    e, p, z = _draw(rng, min(trials, 200), lambda p: (uniform(-5, 5), p(-10.0, 10.0),
                                                      normal(size=6)))
    inputs["chi_zero"] = e, p, z[:, :3] + 1j * z[:, 3:]

    inputs["polarization"] = tuple(_draw_uniform(rng, trials, (-3.0, 3.0), (0.2, 3.0)))

    def off_axis(p):
        # m is drawn only for momenta clear of the degenerate z-axis rays
        q = p(-3.0, 3.0)
        return q, (uniform(0.2, 3.0) if min(abs(q[0]), abs(q[1])) >= 1e-2 else np.nan)

    p, m = _draw(rng, min(trials, 100), off_axis)
    kept = ~np.isnan(m)
    inputs["phase"] = p[kept], m[kept]

    inputs["gauge"] = tuple(_draw_uniform(rng, min(trials, 100), (-3.0, 3.0), (0.2, 3.0)))
    return inputs


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
    """Run every identity and residual suite with a single seeded RNG.

    A trial count whose batches would not fit in physical memory raises
    ChiMaxwellError before anything is drawn."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * _TRIAL_BYTES > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ChiMaxwellError(f"{trials} trials exceed the physical memory "
                              f"({_TRIAL_BYTES} bytes a trial)")
    inputs = _inputs(np.random.default_rng(seed), trials)
    worst = {}

    # --- spin algebra -----------------------------------------------------
    mats = np.stack(sa.build_spin_matrices())
    products = mats[:, None] @ mats[None, :]
    worst["spin.commutation"] = _worst(np.abs(
        products - products.swapaxes(0, 1) - 1j * np.tensordot(sa.EPSILON, mats, 1)))
    worst["spin.hermiticity"] = _worst(np.abs(mats - mats.conj().swapaxes(-1, -2)))
    worst["spin.singularity"] = _worst(sa.singularity_report())

    (p,) = inputs["spin"]
    norm = np.linalg.norm(p, axis=-1)
    eig = np.linalg.eigvalsh(sa.spin_dot_p(p / norm[:, None]))
    worst["spin.helicity_spectrum"] = _worst(np.abs(eig - np.array([-1.0, 0.0, 1.0])))
    worst["spin.annihilation"] = _worst(sa.annihilation_residual(p) / norm**2)
    worst["spin.product_identity"] = _worst(*(
        sa.product_identity_residual(axis, p) / (1.0 + norm) for axis in ("x", "y", "z")))

    p, h, phase = inputs["chain"]
    psi = pw.helicity_eigenvector(p, h) * np.exp(1j * phase)[:, None]
    pt = -h * np.linalg.norm(p, axis=-1)
    worst["spin.derived_chain"] = _worst(*sa.dirac_chain_residual(p, pt, psi))

    # --- plane-wave families ----------------------------------------------
    e, p, psi, chi = inputs["factorization"]
    scale = (1.0 + e * e + np.sum(p * p, axis=-1)) * np.maximum(
        np.linalg.norm(psi, axis=-1), 1e-300)
    residual = pw.factorization_residual(pw.MomentumState(e, p), pw.RSVector(psi, chi))
    worst["planewave.factorization_identity"] = _worst(residual / scale)

    p, sign, a, chi = inputs["generalized"]
    state, v = pw.build_generalized_planewave(p, sign, a, chi)
    norm = np.linalg.norm(p, axis=-1)
    scale = (1.0 + abs(state.energy) + norm) * np.maximum(
        np.linalg.norm(v.psi, axis=-1) + abs(chi), 1e-300)
    worst["planewave.generalized_family"] = _worst(
        np.maximum(*pw.generalized_solution_residual(state, v)) / scale)
    worst["planewave.massless_dispersion"] = _worst(
        abs(abs(state.energy) - norm) / np.maximum(1.0, norm))
    worst["planewave.chi_forces_shell"] = _worst(pw.chi_onshell_residual(state, v) / scale)

    e, p, psi = inputs["chi_zero"]
    state, v = pw.MomentumState(e, p), pw.RSVector(psi, 0j)
    gen = pw.generalized_solution_residual(state, v)
    std = pw.standard_solution_residual(state, v)
    worst["planewave.chi_zero_reduction"] = _worst(abs(gen[0] - std[0]), abs(gen[1] - std[1]))

    # --- polarization modes -------------------------------------------------
    p, m = inputs["polarization"]
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

    p, m = inputs["phase"]
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

    p, m = inputs["gauge"]
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
