"""Momentum-space plane-wave families of the scalar-extended photon system.

The complex field combination psi = E - iB turns the two curl equations into
a single first-order system.  In momentum space the second-order (dispersion)
operator factorizes algebraically:

    (E^2 - p^2) psi = (E I - S.p)(E I + S.p) psi - p (p.psi)        (identity)

which holds for EVERY (E, p, psi), on-shell or not.  The standard solution
family imposes

    (E I + S.p) psi = 0,     p.psi = 0,

but the factorization is equally annihilated by the one-parameter extension

    (E I + S.p) psi = p chi,     p.psi = E chi,

for an arbitrary scalar amplitude chi, because (S.p) p = 0 identically.
Splitting psi and chi into real and imaginary parts under the operator map
E -> i d/dt, p -> -i grad reproduces the coordinate-space system solved by
`chi_solver` (curl equations sourced by grad chi, divergences by d/dt chi).

Contracting p with the extended first equation and using (S.p) p = 0 forces
(E^2 - p^2) chi = 0: a nonzero chi exists only on the massless shell.

Conventions: natural units c = hbar = 1; helicity eigenvectors are built by
the explicit rotation R_z(phi) R_y(theta) from the z-frame eigenvectors with
phi = atan2(py, px) (phi = 0 on the z-axis), so all phases are deterministic.

Batches: momenta and psi are (..., 3); energies, masses, energy signs,
helicities and chi are (...,).  Each function is one array expression over
those leading axes, so a batch of states costs one call, and a single state
is its zero-batch case: residuals come back as numpy scalars (`float` and
`complex` subclasses) and `on_shell` as a `bool`.  A check that fails for any
member of a batch raises.  Everything here is pure and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, ZeroMomentum
from .spin_algebra import spin_dot_p

__all__ = [
    "MomentumState",
    "RSVector",
    "helicity_eigenvector",
    "factorization_residual",
    "standard_solution_residual",
    "generalized_solution_residual",
    "build_generalized_planewave",
    "chi_onshell_residual",
]


@dataclass(frozen=True)
class MomentumState:
    """Kinematic record (E, p, m); natural units.  E and m are (...,), p is
    (..., 3)."""

    energy: float
    p: np.ndarray
    mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.p.shape[-1:] != (3,):
            raise ValueError("p must be a 3-vector")

    def on_shell(self) -> bool:
        """|E^2 - p^2 - m^2| <= 1e-12 max(1, E^2): a bool for one state, and
        over a batch the same as nested lists (`ndarray.tolist`)."""
        e2 = np.square(self.energy)
        gap = e2 - _dot(self.p, self.p) - np.square(self.mass)
        return (np.abs(gap) <= 1e-12 * np.maximum(1.0, e2)).tolist()


@dataclass(frozen=True)
class RSVector:
    """Complex field amplitude psi = E - iB, (..., 3), plus the scalar
    amplitude chi, (...,)."""

    psi: np.ndarray
    chi: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=np.complex128))
        object.__setattr__(self, "chi", np.asarray(self.chi, dtype=np.complex128)[()])
        if self.psi.shape[-1:] != (3,):
            raise ValueError("psi must be a complex 3-vector")

    @property
    def e_field(self) -> np.ndarray:
        return self.psi.real.copy()

    @property
    def b_field(self) -> np.ndarray:
        return -self.psi.imag.copy()


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b over the last axis, without conjugation."""
    return np.einsum("...k,...k->...", a, b)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 3x3 matrices m applied to the 3-vectors v, member by member."""
    return np.einsum("...jk,...k->...j", m, v)


# z-frame eigenvectors; row h holds helicity h, so row -1 is the last one
_BASE_Z = np.array([
    [0.0, 0.0, 1.0],
    -np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0),
    np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0),
], dtype=np.complex128)
_BASE_Z.flags.writeable = False


def helicity_eigenvector(p: np.ndarray, helicity: int) -> np.ndarray:
    """Unit eigenvector of S.p_hat with eigenvalue `helicity` in {+1, -1, 0}.

    Built by rotating the z-frame eigenvectors with R_z(phi) R_y(theta);
    the azimuthal branch is atan2, with phi = 0 whenever px = py = 0.
    """
    p = np.asarray(p, dtype=np.float64)
    norm = np.linalg.norm(p, axis=-1)
    if np.any(norm == 0.0):
        raise ZeroMomentum("helicity basis undefined at p = 0")
    if not np.isin(helicity, (-1, 0, 1)).all():
        raise ValueError("helicity must be one of -1, 0, +1")
    theta = np.arccos(np.clip(p[..., 2] / norm, -1.0, 1.0))
    phi = np.arctan2(p[..., 1], p[..., 0])
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    zero = np.zeros_like(ct)
    # R_z(phi) R_y(theta), entry by entry
    rot = np.stack([cp * ct, -sp, cp * st, sp * ct, cp, sp * st, -st, zero, ct], axis=-1)
    rot = rot.reshape(np.shape(ct) + (3, 3))
    return _apply(rot, _BASE_Z[np.asarray(helicity, dtype=np.intp)])


def factorization_residual(state: MomentumState, v: RSVector) -> float:
    """Max-component residual of the factorization identity

        (E^2 - p^2) psi  vs  (E I - S.p)(E I + S.p) psi - p (p.psi).

    An operator identity, not an equation of motion: bounded by
    1e-12 * (1 + E^2 + |p|^2) * |psi| for arbitrary, including off-shell,
    inputs.  chi plays no role here.
    """
    e = np.asarray(state.energy, dtype=np.float64)[..., None]
    p, psi = state.p, v.psi
    sp = spin_dot_p(p)
    lhs = (e * e - _dot(p, p)[..., None]) * psi
    e_eye = e[..., None] * np.eye(3)
    rhs = _apply(e_eye - sp, _apply(e_eye + sp, psi)) - p * _dot(p, psi)[..., None]
    return np.max(np.abs(lhs - rhs), axis=-1)


def standard_solution_residual(state: MomentumState, v: RSVector) -> tuple[float, float]:
    """(|(E I + S.p) psi|, |p.psi|) -- both vanish on the homogeneous
    transverse family."""
    e = np.asarray(state.energy, dtype=np.float64)[..., None]
    p, psi = state.p, v.psi
    first = np.linalg.norm(e * psi + _apply(spin_dot_p(p), psi), axis=-1)
    second = np.abs(_dot(p, psi))
    return first, second


def generalized_solution_residual(state: MomentumState, v: RSVector) -> tuple[float, float]:
    """(|(E I + S.p) psi - p chi|, |p.psi - E chi|).

    With chi = 0 this equals `standard_solution_residual` bit for bit.
    """
    e = np.asarray(state.energy, dtype=np.float64)
    p, psi, chi = state.p, v.psi, v.chi
    first = np.linalg.norm(e[..., None] * psi + _apply(spin_dot_p(p), psi)
                           - p * np.asarray(chi)[..., None], axis=-1)
    second = np.abs(_dot(p, psi) - e * chi)
    return first, second


def build_generalized_planewave(
    p: np.ndarray,
    energy_sign: int,
    transverse_amplitude: complex,
    chi: complex,
) -> tuple[MomentumState, RSVector]:
    """Construct an exact solution of the chi-extended pair on |E| = |p|.

    Returns E = energy_sign * |p| and

        psi = a * e_h(p_hat) + (p / E) * chi,

    where e_h is the helicity eigenvector with (S.p_hat) e_h = -energy_sign e_h
    (the homogeneous transverse mode) and the longitudinal part carries chi.
    The residual pair of the output is <= 1e-13 (scaled).
    """
    p = np.asarray(p, dtype=np.float64)
    norm = np.linalg.norm(p, axis=-1)
    if np.any(norm == 0.0):
        raise ZeroMomentum("plane-wave construction requires |p| > 0")
    sign = np.asarray(energy_sign)
    if not np.isin(sign, (-1, +1)).all():
        raise ValueError("energy_sign must be +1 or -1")
    energy = sign * norm
    a = np.asarray(transverse_amplitude, dtype=np.complex128)[..., None]
    chi = np.asarray(chi, dtype=np.complex128)
    psi = a * helicity_eigenvector(p, -sign) + (p / energy[..., None]) * chi[..., None]
    return MomentumState(energy, p, 0.0), RSVector(psi, chi)


def chi_onshell_residual(state: MomentumState, v: RSVector) -> float:
    """|(E^2 - p^2) chi| for a generalized solution: a nonzero chi forces the
    massless dispersion relation.

    Raises
    ------
    PreconditionViolated
        If v is not a generalized solution within 1e-12 (scaled).
    """
    e, p = state.energy, state.p
    scale = (1.0 + np.abs(e) + np.linalg.norm(p, axis=-1)) * np.maximum(
        np.linalg.norm(v.psi, axis=-1) + np.abs(v.chi), 1e-300
    )
    r1, r2 = generalized_solution_residual(state, v)
    if np.any(np.maximum(r1, r2) > 1e-12 * scale):
        raise PreconditionViolated("input does not solve the chi-extended pair")
    return np.abs((e * e - _dot(p, p)) * v.chi)
