"""Massive spin-1 polarization modes and their field-strength content.

Momentum-space closed forms for the four polarization 4-vectors of a massive
vector field -- helicities +1, -1, 0 plus the time-like mode u ~ p^mu -- and
the magnetic/electric 3-vector triplets of the associated antisymmetric
field-strength tensor, under a configurable overall normalization N(m).

Conventions
-----------
* metric (+,-,-,-), index order (0,1,2,3), E_p = +sqrt(p^2 + m^2);
* positive/negative-frequency plane waves carry exp(-ipx) / exp(+ipx), so
  derivatives map to -i p^mu / +i p^mu; the negative-frequency amplitude is
  the complex conjugate of the positive one;
* p_r = p1 + i p2, p_l = p1 - i p2;
* the two-field system pairs the potential with a rescaled field strength,
      d_a F^{a mu} + (m/2) A^mu = 0,      2m F^{mu nu} = d^mu A^nu - d^nu A^mu,
  equivalent to the textbook normalization (F = dA, mass term m^2 A) after
  A -> 2m A.

The m-dependence of N decides whether each mode survives m -> 0: with N = 1
the longitudinal and time-like modes blow up like 1/m, while N = m tames the
transverse modes to a finite limit.  `massless_scaling` measures the
divergence order directly from the closed forms.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMode, NonpositiveMass, ZeroMomentum

__all__ = [
    "NormalizationScheme",
    "CONSTANT",
    "MASS",
    "SQRT_MASS",
    "SCHEMES",
    "Polarization4",
    "FieldTriplet",
    "ASTField",
    "MODES",
    "TRIPLET_MODES",
    "energy_of",
    "minkowski_product",
    "polarization_vector",
    "field_triplet",
    "ast_from_potential",
    "electric_from_ast",
    "magnetic_from_ast",
    "proca_residual",
    "normalization_change_check",
    "phase_relation",
    "massless_scaling",
    "ast_gauge_transform",
    "mode_gram",
    "MASSLESS_SCAN_MASSES",
]

MODES = ("+1", "-1", "0", "0_t")
TRIPLET_MODES = ("+1", "-1", "0")
MASSLESS_SCAN_MASSES = tuple(10.0 ** (-k) for k in range(1, 7))


@dataclass(frozen=True)
class NormalizationScheme:
    """Overall scale N(m) > 0 applied to every polarization amplitude."""

    label: str
    factor: Callable[[float], float]

    def __call__(self, m: float) -> float:
        return float(self.factor(m))


CONSTANT = NormalizationScheme("constant", lambda m: 1.0)
MASS = NormalizationScheme("mass", lambda m: m)
SQRT_MASS = NormalizationScheme("sqrt_mass", lambda m: math.sqrt(m))
SCHEMES = {s.label: s for s in (CONSTANT, MASS, SQRT_MASS)}


@dataclass(frozen=True)
class Polarization4:
    """Polarization 4-vector u^mu(p, lambda) with its construction record."""

    u: np.ndarray
    mode: str
    p: np.ndarray
    mass: float
    scheme: NormalizationScheme

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.complex128))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))


@dataclass(frozen=True)
class FieldTriplet:
    """Magnetic or electric 3-vector amplitude of one mode and frequency sign."""

    vec: np.ndarray
    kind: str          # "B" or "E"
    mode: str
    energy_sign: int   # +1 / -1

    def __post_init__(self):
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=np.complex128))


@dataclass(frozen=True)
class ASTField:
    """Antisymmetric field-strength amplitude F^{mu nu} (4x4, complex)."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.complex128)
        if f.shape != (4, 4) or not np.array_equal(f, -f.T):
            raise ValueError("F must be a 4x4 exactly antisymmetric array")
        object.__setattr__(self, "f", f)


def energy_of(p: np.ndarray, m: float) -> float:
    """Positive-root energy E_p = sqrt(|p|^2 + m^2)."""
    p = np.asarray(p, dtype=np.float64)
    return float(np.sqrt(p @ p + m * m))


def minkowski_product(a: np.ndarray, b: np.ndarray) -> complex:
    """a^0 b^0 - a.b with no conjugation (conjugate an argument explicitly)."""
    return complex(a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3])


def _four_momentum(pol: Polarization4) -> np.ndarray:
    """(E_p, p) of a mode, complex so that it mixes with u directly."""
    return np.array([energy_of(pol.p, pol.mass), *pol.p], dtype=np.complex128)


def _check_mass(m: float) -> None:
    if m <= 0.0:
        raise NonpositiveMass(
            "modes are defined for m > 0; probe m -> 0 with massless_scaling"
        )


def polarization_vector(
    p: np.ndarray, mode: str, m: float, scheme: NormalizationScheme = CONSTANT
) -> Polarization4:
    """Closed-form polarization 4-vector u^mu(p, mode) for mass m > 0.

    The three modes "+1", "-1", "0" are Minkowski-transverse (p.u = 0);
    "0_t" is proportional to the 4-momentum itself and is the spin-0 content
    of the 4-vector field.
    """
    _check_mass(m)
    p = np.asarray(p, dtype=np.float64)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = scheme(m)
    p1, p2, p3 = p
    ep = energy_of(p, m)
    pr = p1 + 1j * p2
    pl = p1 - 1j * p2
    if mode == "+1":
        u = -(n / (math.sqrt(2) * m)) * np.array(
            [pr, m + p1 * pr / (ep + m), 1j * m + p2 * pr / (ep + m), p3 * pr / (ep + m)]
        )
    elif mode == "-1":
        u = (n / (math.sqrt(2) * m)) * np.array(
            [pl, m + p1 * pl / (ep + m), -1j * m + p2 * pl / (ep + m), p3 * pl / (ep + m)]
        )
    elif mode == "0":
        u = (n / m) * np.array(
            [p3, p1 * p3 / (ep + m), p2 * p3 / (ep + m), m + p3 * p3 / (ep + m)],
            dtype=np.complex128,
        )
    else:  # "0_t"
        u = (n / m) * np.array([ep, p1, p2, p3], dtype=np.complex128)
    return Polarization4(u, mode, p, float(m), scheme)


def _printed_triplet(p: np.ndarray, mode: str, kind: str, m: float, n: float) -> np.ndarray:
    """Positive-frequency closed forms of the B / E triplets."""
    p1, p2, p3 = p
    pr = p1 + 1j * p2
    pl = p1 - 1j * p2
    ep = energy_of(p, m)
    s2m = 2.0 * math.sqrt(2) * m
    if kind == "B":
        if mode == "+1":
            return -(1j * n / s2m) * np.array([-1j * p3, p3, 1j * pr])
        if mode == "0":
            return (1j * n / (2 * m)) * np.array([p2, -p1, 0.0])
        return (1j * n / s2m) * np.array([1j * p3, p3, -1j * pl])
    if mode == "+1":
        return -(1j * n / s2m) * np.array(
            [ep - p1 * pr / (ep + m), 1j * ep - p2 * pr / (ep + m), -p3 * pr / (ep + m)]
        )
    if mode == "0":
        return (1j * n / (2 * m)) * np.array(
            [-p1 * p3 / (ep + m), -p2 * p3 / (ep + m), ep - p3 * p3 / (ep + m)]
        )
    return (1j * n / s2m) * np.array(
        [ep - p1 * pl / (ep + m), -1j * ep - p2 * pl / (ep + m), -p3 * pl / (ep + m)]
    )


def field_triplet(
    p: np.ndarray,
    mode: str,
    kind: str,
    energy_sign: int,
    m: float,
    scheme: NormalizationScheme = CONSTANT,
) -> FieldTriplet:
    """B or E 3-vector amplitude of one mode and frequency sign.

    Positive-frequency triplets are the closed forms; negative-frequency ones
    come from the field-strength tensor of the conjugated amplitude (the
    exp(+ipx) branch), which realizes the cross-mode relations

        B^(+)(p, +1) = + B^(-)(p, -1),   B^(+)(p, 0) = - B^(-)(p, 0),
        B^(+)(p, -1) = + B^(-)(p, +1),

    (and identically for E) with every undetermined phase equal to 1 under
    this construction.  `phase_relation` measures those ratios rather than
    assuming them.
    """
    _check_mass(m)
    p = np.asarray(p, dtype=np.float64)
    if mode not in TRIPLET_MODES:
        raise ValueError(f"field triplets exist for modes {TRIPLET_MODES}, got {mode!r}")
    if kind not in ("B", "E"):
        raise ValueError("kind must be 'B' or 'E'")
    if energy_sign not in (-1, +1):
        raise ValueError("energy_sign must be +1 or -1")
    if energy_sign == +1:
        vec = _printed_triplet(p, mode, kind, m, scheme(m))
    else:
        pol = polarization_vector(p, mode, m, scheme)
        conj = Polarization4(np.conj(pol.u), mode, p, float(m), scheme)
        f = ast_from_potential(conj, -1)
        vec = magnetic_from_ast(f) if kind == "B" else electric_from_ast(f)
    return FieldTriplet(vec, kind, mode, energy_sign)


def ast_from_potential(pol: Polarization4, energy_sign: int) -> ASTField:
    """Field-strength amplitude F^{mu nu} = (-/+ i / 2m)(p^mu u^nu - p^nu u^mu)
    of the plane wave u exp(-/+ ipx).  The time-like mode gives F = 0 exactly."""
    if energy_sign not in (-1, +1):
        raise ValueError("energy_sign must be +1 or -1")
    p4 = _four_momentum(pol)
    factor = -1j * energy_sign / (2.0 * pol.mass)
    return ASTField(factor * (np.outer(p4, pol.u) - np.outer(pol.u, p4)))


def electric_from_ast(f: ASTField | np.ndarray) -> np.ndarray:
    """E_i = F^{i0}."""
    arr = f.f if isinstance(f, ASTField) else np.asarray(f)
    return np.array([arr[1, 0], arr[2, 0], arr[3, 0]])


def magnetic_from_ast(f: ASTField | np.ndarray) -> np.ndarray:
    """B_i = -(1/2) eps_ijk F^{jk}."""
    arr = f.f if isinstance(f, ASTField) else np.asarray(f)
    return np.array([-arr[2, 3], -arr[3, 1], -arr[1, 2]])


def proca_residual(pol: Polarization4, energy_sign: int = +1) -> float:
    """Max-component residual of d_a F^{a mu} + (m/2) A^mu = 0 in momentum
    space, with F built from the potential:

        | -(1/2m)(p^2 u^mu - p^mu (p.u)) + (m/2) u^mu |_max.

    Vanishes (<= 1e-12 scaled) for the transverse modes; equals
    (m/2) max|u^mu| exactly for the time-like mode, which solves only the
    dispersion relation, not the coupled system -- its spin-0 signature.
    """
    if energy_sign not in (-1, +1):
        raise ValueError("energy_sign must be +1 or -1")
    p4 = _four_momentum(pol)
    m = pol.mass
    psq = minkowski_product(p4, p4)
    pu = minkowski_product(p4, pol.u)
    res = -(psq * pol.u - p4 * pu) / (2.0 * m) + (m / 2.0) * pol.u
    return float(np.max(np.abs(res)))


def normalization_change_check(pol: Polarization4) -> float:
    """Residual of the textbook-normalized system after A -> 2m A.

    Rescales u' = 2m u, takes F' = -/+ i (p /\\ u') with no 1/2m, and evaluates
    | -(p^2 u' - p (p.u')) + m^2 u' |_max: zero (<= 1e-12 scaled) for the
    transverse modes, m^2-patterned for the time-like one, confirming the two
    normalizations describe the same system.
    """
    p4 = _four_momentum(pol)
    m = pol.mass
    u2 = 2.0 * m * pol.u
    psq = minkowski_product(p4, p4)
    pu = minkowski_product(p4, u2)
    res = -(psq * u2 - p4 * pu) + m * m * u2
    return float(np.max(np.abs(res)))


def phase_relation(
    p: np.ndarray,
    mode: str,
    kind: str,
    m: float,
    scheme: NormalizationScheme = CONSTANT,
) -> complex:
    """Componentwise ratio kind^(+)(p, mode) / kind^(-)(p, -mode).

    The ratio must be constant across components (checked to 1e-10 relative);
    it has unit modulus, with sign +1 for modes "+1"/"-1" and -1 for "0".

    Raises
    ------
    DegenerateMode
        If either triplet vanishes (e.g. the "0" magnetic triplet on the
        z-axis), leaving the ratio undefined.
    """
    opposite = {"+1": "-1", "-1": "+1", "0": "0"}[mode]
    plus = field_triplet(p, mode, kind, +1, m, scheme).vec
    minus = field_triplet(p, opposite, kind, -1, m, scheme).vec
    norm_p, norm_m = np.linalg.norm(plus), np.linalg.norm(minus)
    if min(norm_p, norm_m) <= 1e-13 * max(norm_p, norm_m, 1e-300):
        raise DegenerateMode(f"{kind}({mode}) triplet vanishes at p = {p}")
    i = int(np.argmax(np.abs(minus)))
    ratio = complex(plus[i] / minus[i])
    if np.max(np.abs(plus - ratio * minus)) > 1e-10 * norm_p:
        raise DegenerateMode("componentwise ratio is not constant")
    return ratio


def massless_scaling(
    mode: str,
    scheme: NormalizationScheme,
    p: np.ndarray,
    masses: tuple[float, ...] = MASSLESS_SCAN_MASSES,
) -> float:
    """Log-log slope of |u(p, mode; m)| against m over a decade ladder.

    Slope -1 flags a 1/m divergence of the mode in the massless limit (the
    obstruction to setting m = 0 directly); slope 0 a finite limit.  The
    default ladder 1e-1 .. 1e-6 exposes the asymptote while staying clear of
    double-precision underflow in the 1/m^2 terms.
    """
    p = np.asarray(p, dtype=np.float64)
    if float(np.linalg.norm(p)) == 0.0:
        raise ZeroMomentum("massless scan requires |p| > 0")
    norms = [
        float(np.linalg.norm(polarization_vector(p, mode, m, scheme).u)) for m in masses
    ]
    slope = np.polyfit(np.log(np.asarray(masses)), np.log(np.asarray(norms)), 1)[0]
    return float(slope)


def ast_gauge_transform(
    f: ASTField, gauge_vector: np.ndarray, p: np.ndarray, energy: float
) -> ASTField:
    """Tensor gauge transform F -> F + dL: in momentum space

        F'^{mu nu} = F^{mu nu} - i (p^nu L^mu - p^mu L^nu),

    with 4-momentum (energy, p).  Shifts F by a rank <= 2 antisymmetric
    tensor; gauge vectors proportional to the 4-momentum act as the identity.
    This is the transformation freedom peculiar to the antisymmetric-tensor
    description, distinct from the potential gauge A -> A + d phi.
    """
    lam = np.asarray(gauge_vector, dtype=np.complex128)
    p4 = np.empty(4, dtype=np.complex128)
    p4[0] = energy
    p4[1:] = np.asarray(p, dtype=np.float64)
    delta = -1j * (np.outer(lam, p4) - np.outer(p4, lam))  # -i (p^nu L^mu - p^mu L^nu)
    return ASTField(f.f + delta)


def mode_gram(
    p: np.ndarray, m: float, scheme: NormalizationScheme = MASS
) -> np.ndarray:
    """Gram matrix g_{mu nu} u^mu(a) u^nu(b)* over the four modes.

    With N = m the pattern is diag(-m^2, -m^2, -m^2, +m^2) in the order
    ("+1", "-1", "0", "0_t"); all off-diagonal entries vanish.
    """
    us = [polarization_vector(p, mode, m, scheme).u for mode in MODES]
    g = np.empty((4, 4), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            g[a, b] = minkowski_product(us[a], np.conj(us[b]))
    return g
