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

Batches: momenta are (..., 3), masses (...,), polarization vectors (..., 4)
and field-strength tensors (..., 4, 4); mode, kind and the energy sign of a
triplet select a formula and stay scalar.  Each function is one array
expression over the leading axes, so a batch costs one call, and a single
momentum is its zero-batch case with numpy scalar results (`float` and
`complex` subclasses).  A check that fails for any member of a batch raises.

Pure functions over immutable values throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChiMaxwellError, DegenerateMode, NonpositiveMass, ZeroMomentum
from .planewaves import _momentum

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
    "four_momentum",
    "minkowski_product",
    "polarization_vector",
    "field_triplet",
    "ast_from_potential",
    "electric_from_ast",
    "magnetic_from_ast",
    "proca_residual",
    "normalization_change_check",
    "phase_relation",
    "massless_norms",
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
        return np.asarray(self.factor(m), dtype=np.float64)[()]


CONSTANT = NormalizationScheme("constant", lambda m: 1.0)
MASS = NormalizationScheme("mass", lambda m: m)
SQRT_MASS = NormalizationScheme("sqrt_mass", lambda m: np.sqrt(m))
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
    """Antisymmetric field-strength amplitude F^{mu nu} (..., 4, 4), complex."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.complex128)
        if f.shape[-2:] != (4, 4) or not np.array_equal(f, -np.swapaxes(f, -1, -2)):
            raise ValueError("F must be a 4x4 exactly antisymmetric array")
        object.__setattr__(self, "f", f)


def _stack(*components) -> np.ndarray:
    """Components of shape (...,), broadcast and stacked on a last axis."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def _scaled(factor, *components) -> np.ndarray:
    """factor (...,) times the components stacked on a last axis."""
    return np.expand_dims(factor, -1) * _stack(*components)


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^mu b^nu - a^nu b^mu over the last axis, shape (..., 4, 4)."""
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


def energy_of(p: np.ndarray, m: float) -> float:
    """Positive-root energy E_p = sqrt(|p|^2 + m^2)."""
    p = np.asarray(p, dtype=np.float64)
    return np.sqrt(np.einsum("...k,...k->...", p, p) + np.square(m))


def four_momentum(p: np.ndarray, energy: float) -> np.ndarray:
    """(energy, p) as a complex (..., 4) array, so that it mixes with u directly."""
    return _stack(energy, *np.moveaxis(np.asarray(p, dtype=np.float64), -1, 0)).astype(
        np.complex128)


def minkowski_product(a: np.ndarray, b: np.ndarray) -> complex:
    """a^0 b^0 - a.b over the last axis, with no conjugation (conjugate an
    argument explicitly)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2] \
        - a[..., 3] * b[..., 3]


def _four_momentum(pol: Polarization4) -> np.ndarray:
    """(E_p, p) of a mode."""
    return four_momentum(pol.p, energy_of(pol.p, pol.mass))


def _check_mass(m: float) -> None:
    m = np.asarray(m)
    if np.any(m <= 0.0):
        raise NonpositiveMass(
            "modes are defined for m > 0; probe m -> 0 with massless_scaling"
        )
    if not np.all(np.isfinite(m)):  # a NaN mass passes the test above, not this one
        raise ChiMaxwellError("modes are defined for a finite mass, not NaN or inf")


def _finite(compute, *args) -> np.ndarray:
    """compute(*args), a mode amplitude, rejected unless every value is
    finite: at a tiny mass its 1/m factors overflow double precision.  The
    overflow raises no warning, since the rejection reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute(*args)
    if not np.all(np.isfinite(values)):
        raise ChiMaxwellError("a mode amplitude overflows double precision "
                              "(the mass is too small for this momentum and scheme)")
    return values


def _check_sign(energy_sign: int) -> None:
    if not np.isin(energy_sign, (-1, +1)).all():
        raise ValueError("energy_sign must be +1 or -1")


def polarization_vector(
    p: np.ndarray, mode: str, m: float, scheme: NormalizationScheme = CONSTANT
) -> Polarization4:
    """Closed-form polarization 4-vector u^mu(p, mode) for mass m > 0.

    The three modes "+1", "-1", "0" are Minkowski-transverse (p.u = 0);
    "0_t" is proportional to the 4-momentum itself and is the spin-0 content
    of the 4-vector field.
    """
    _check_mass(m)
    p = _momentum(p)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = np.asarray(m, dtype=np.float64)
    u = _finite(_closed_form, p, mode, m, scheme(m))
    return Polarization4(u, mode, p, m[()], scheme)


def _closed_form(p: np.ndarray, mode: str, m, n) -> np.ndarray:
    """The polarization 4-vector u of a mode under the normalization n."""
    p1, p2, p3 = np.moveaxis(p, -1, 0)
    ep = energy_of(p, m)
    pr = p1 + 1j * p2
    pl = p1 - 1j * p2
    if mode == "+1":
        return _scaled(-(n / (math.sqrt(2) * m)), pr, m + p1 * pr / (ep + m),
                       1j * m + p2 * pr / (ep + m), p3 * pr / (ep + m))
    if mode == "-1":
        return _scaled(n / (math.sqrt(2) * m), pl, m + p1 * pl / (ep + m),
                       -1j * m + p2 * pl / (ep + m), p3 * pl / (ep + m))
    if mode == "0":
        return _scaled(n / m, p3, p1 * p3 / (ep + m), p2 * p3 / (ep + m),
                       m + p3 * p3 / (ep + m))
    return _scaled(n / m, ep, p1, p2, p3)


def _printed_triplet(p: np.ndarray, mode: str, kind: str, m, n) -> np.ndarray:
    """Positive-frequency closed forms of the B / E triplets."""
    p1, p2, p3 = np.moveaxis(p, -1, 0)
    pr = p1 + 1j * p2
    pl = p1 - 1j * p2
    ep = energy_of(p, m)
    s2m = 2.0 * math.sqrt(2) * m
    if kind == "B":
        if mode == "+1":
            return _scaled(-(1j * (n / s2m)), -1j * p3, p3, 1j * pr)
        if mode == "0":
            return _scaled(1j * (n / (2 * m)), p2, -p1, 0.0)
        return _scaled(1j * (n / s2m), 1j * p3, p3, -1j * pl)
    if mode == "+1":
        return _scaled(-(1j * (n / s2m)), ep - p1 * pr / (ep + m),
                       1j * ep - p2 * pr / (ep + m), -p3 * pr / (ep + m))
    if mode == "0":
        return _scaled(1j * (n / (2 * m)), -p1 * p3 / (ep + m), -p2 * p3 / (ep + m),
                       ep - p3 * p3 / (ep + m))
    return _scaled(1j * (n / s2m), ep - p1 * pl / (ep + m),
                   -1j * ep - p2 * pl / (ep + m), -p3 * pl / (ep + m))


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
    p = _momentum(p)
    if mode not in TRIPLET_MODES:
        raise ValueError(f"field triplets exist for modes {TRIPLET_MODES}, got {mode!r}")
    if kind not in ("B", "E"):
        raise ValueError("kind must be 'B' or 'E'")
    if energy_sign not in (-1, +1):
        raise ValueError("energy_sign must be +1 or -1")
    if energy_sign == +1:
        m = np.asarray(m, dtype=np.float64)
        vec = _finite(_printed_triplet, p, mode, kind, m, scheme(m))
    else:
        pol = polarization_vector(p, mode, m, scheme)
        conj = Polarization4(np.conj(pol.u), mode, p, pol.mass, scheme)
        f = ast_from_potential(conj, -1)
        vec = magnetic_from_ast(f) if kind == "B" else electric_from_ast(f)
    return FieldTriplet(vec, kind, mode, energy_sign)


def ast_from_potential(pol: Polarization4, energy_sign: int) -> ASTField:
    """Field-strength amplitude F^{mu nu} = (-/+ i / 2m)(p^mu u^nu - p^nu u^mu)
    of the plane wave u exp(-/+ ipx).  The time-like mode gives F = 0 exactly."""
    _check_sign(energy_sign)
    p4, u = _four_momentum(pol), pol.u
    sign, mass = np.asarray(energy_sign), np.asarray(pol.mass)
    return ASTField(_finite(lambda: (-1j * sign / (2.0 * mass))[..., None, None]
                            * _wedge(p4, u)))


def electric_from_ast(f: ASTField | np.ndarray) -> np.ndarray:
    """E_i = F^{i0}."""
    arr = f.f if isinstance(f, ASTField) else np.asarray(f)
    return arr[..., 1:, 0].copy()


def magnetic_from_ast(f: ASTField | np.ndarray) -> np.ndarray:
    """B_i = -(1/2) eps_ijk F^{jk}."""
    arr = f.f if isinstance(f, ASTField) else np.asarray(f)
    return -arr[..., (2, 3, 1), (3, 1, 2)]


def proca_residual(pol: Polarization4, energy_sign: int = +1) -> float:
    """Max-component residual of d_a F^{a mu} + (m/2) A^mu = 0 in momentum
    space, with F built from the potential:

        | -(1/2m)(p^2 u^mu - p^mu (p.u)) + (m/2) u^mu |_max.

    Vanishes (<= 1e-12 scaled) for the transverse modes; equals
    (m/2) max|u^mu| exactly for the time-like mode, which solves only the
    dispersion relation, not the coupled system -- its spin-0 signature.
    """
    _check_sign(energy_sign)
    p4, u = _four_momentum(pol), pol.u
    m = np.asarray(pol.mass)[..., None]
    psq = minkowski_product(p4, p4)[..., None]
    pu = minkowski_product(p4, u)[..., None]
    res = -(psq * u - p4 * pu) / (2.0 * m) + (m / 2.0) * u
    return np.max(np.abs(res), axis=-1)


def normalization_change_check(pol: Polarization4) -> float:
    """Residual of the textbook-normalized system after A -> 2m A.

    Rescales u' = 2m u, takes F' = -/+ i (p /\\ u') with no 1/2m, and evaluates
    | -(p^2 u' - p (p.u')) + m^2 u' |_max: zero (<= 1e-12 scaled) for the
    transverse modes, m^2-patterned for the time-like one, confirming the two
    normalizations describe the same system.
    """
    p4 = _four_momentum(pol)
    m = np.asarray(pol.mass)[..., None]
    u2 = 2.0 * m * pol.u
    psq = minkowski_product(p4, p4)[..., None]
    pu = minkowski_product(p4, u2)[..., None]
    res = -(psq * u2 - p4 * pu) + m * m * u2
    return np.max(np.abs(res), axis=-1)


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
    norm_p = np.linalg.norm(plus, axis=-1)
    norm_m = np.linalg.norm(minus, axis=-1)
    vanishes = np.minimum(norm_p, norm_m) <= 1e-13 * np.maximum(
        np.maximum(norm_p, norm_m), 1e-300)
    if np.any(vanishes):
        where = np.broadcast_to(np.asarray(p, dtype=np.float64), plus.shape)[vanishes]
        raise DegenerateMode(f"{kind}({mode}) triplet vanishes at p = {where[0]}")
    i = np.argmax(np.abs(minus), axis=-1)[..., None]
    ratio = np.take_along_axis(plus, i, -1)[..., 0] / np.take_along_axis(minus, i, -1)[..., 0]
    if np.any(np.max(np.abs(plus - ratio[..., None] * minus), axis=-1) > 1e-10 * norm_p):
        raise DegenerateMode("componentwise ratio is not constant")
    return ratio


def massless_norms(
    mode: str,
    scheme: NormalizationScheme,
    p: np.ndarray,
    masses: tuple[float, ...] = MASSLESS_SCAN_MASSES,
) -> np.ndarray:
    """|u(p, mode; m)| over the mass ladder: the norms `massless_scaling`
    fits, from one batched `polarization_vector` call.  p is one momentum,
    |p| > 0; a norm that overflows double precision (|u| ~ |p|/m, so
    |p| ~ 1e150 at m = 1e-6) raises ChiMaxwellError, without a warning."""
    p = _momentum(p)
    if np.linalg.norm(p) == 0.0:
        raise ZeroMomentum("massless scan requires |p| > 0")
    u = polarization_vector(p, mode, np.asarray(masses, dtype=np.float64), scheme).u
    return _finite(lambda: np.linalg.norm(u, axis=-1))


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
    double-precision underflow in the 1/m^2 terms.  The fit is over
    `massless_norms` of the same arguments.
    """
    norms = massless_norms(mode, scheme, p, masses)
    return float(np.polyfit(np.log(np.asarray(masses, dtype=np.float64)), np.log(norms), 1)[0])


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
    # -i (p^nu L^mu - p^mu L^nu)
    return ASTField(f.f - 1j * _wedge(lam, four_momentum(p, energy)))


def mode_gram(
    p: np.ndarray, m: float, scheme: NormalizationScheme = MASS
) -> np.ndarray:
    """Gram matrix g_{mu nu} u^mu(a) u^nu(b)* over the four modes, (..., 4, 4).

    With N = m the pattern is diag(-m^2, -m^2, -m^2, +m^2) in the order
    ("+1", "-1", "0", "0_t"); all off-diagonal entries vanish.
    """
    us = np.stack([polarization_vector(p, mode, m, scheme).u for mode in MODES], axis=-2)
    return minkowski_product(us[..., :, None, :], np.conj(us[..., None, :, :]))
