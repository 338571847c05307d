"""Spin-1 matrix algebra on complex 3-vectors.

Convention
----------
The spin matrices act on 3-component fields with entries

    (S_i)^{jk} = i eps^{jik}     (equivalently  -i eps^{ijk}),

so (S.p) v = i p x v and the contraction (S.p) p vanishes identically --
the matrix image of "curl grad = 0".  Under this convention

    S_z = [[0, -i, 0],
           [i,  0, 0],
           [0,  0, 0]],

[S_i, S_j] = i eps_ijk S_k, each S_i is Hermitian, and the helicity +1 / -1
eigenvectors of S_z are (1, +i, 0)/sqrt(2) and (1, -i, 0)/sqrt(2).

Other texts transpose the matrices; exactly one convention is exported here
and everything downstream (plane-wave builders, the spectral solver's field
initializers) uses it.

Batches
-------
Every identity holds separately for each momentum, so the functions take
leading batch axes: momenta and psi are (..., 3), pt is (...,), and results
carry the batch shape.  A single momentum is the zero-batch case of the same
expression and returns plain numpy scalars (`float` subclasses); a
precondition that fails for any member of a batch raises.

All functions are pure and every returned array is freshly allocated, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated

__all__ = [
    "EPSILON",
    "levi_civita",
    "build_spin_matrices",
    "spin_dot_p",
    "annihilation_residual",
    "product_identity_residual",
    "dirac_chain_residual",
    "singularity_report",
]

_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


def levi_civita(i: int, j: int, k: int) -> int:
    """Totally antisymmetric symbol eps_ijk for 0-based indices, in {-1, 0, +1}."""
    return (j - i) * (k - j) * (k - i) // 2


# eps_ijk and (S_i)^{jk} = i eps^{jik}, built once; read-only, so callers get copies
EPSILON = np.array([[[levi_civita(i, j, k) for k in range(3)] for j in range(3)]
                    for i in range(3)], dtype=np.float64)
EPSILON.flags.writeable = False
_SPIN = 1j * EPSILON.transpose(1, 0, 2)
_SPIN.flags.writeable = False


def build_spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) as fresh 3x3 complex arrays, (S_i)^{jk} = i eps^{jik}."""
    return tuple(m.copy() for m in _SPIN)


def spin_dot_p(p: np.ndarray) -> np.ndarray:
    """Helicity operator S.p = sum_i p_i S_i, shape (..., 3, 3).

    Hermitian with spectrum {+|p|, 0, -|p|}; acts as (S.p) v = i p x v.
    """
    p = np.asarray(p, dtype=np.float64)[..., None, None]
    sx, sy, sz = _SPIN
    return p[..., 0, :, :] * sx + p[..., 1, :, :] * sy + p[..., 2, :, :] * sz


# eps^{ikl} (S_k)^{jm} with l first and (i, j, m) flattened, so that
# [S x p] is one matrix product; each entry is 0 or +-i
_CROSS = np.einsum("ikl,kjm->lijm", EPSILON, _SPIN).reshape(3, 27)
_CROSS.flags.writeable = False


def _s_cross_p(p: np.ndarray) -> np.ndarray:
    """[S x p]^{i,jm} = eps^{ikl} (S_k)^{jm} p_l, shape (..., 3, 3, 3).

    Computed as p @ _CROSS.  Each entry, i (delta^{ij} p_m - delta^{im} p_j),
    gets at most one nonzero term, so the product is exact; only the sign of
    a zero part may differ from another order of summation, which the
    absolute values every caller takes do not see."""
    p = np.asarray(p, dtype=np.float64)
    return (p @ _CROSS).reshape(p.shape[:-1] + (3, 3, 3))


def annihilation_residual(p: np.ndarray) -> float:
    """Norm of (S.p) p, which vanishes identically: eps^{jik} p^i p^k = 0.

    Bounded by 1e-14 * |p|^2 for all inputs (exact zero in IEEE arithmetic,
    since each component is a difference of identical products).
    """
    p = np.asarray(p, dtype=np.float64)
    return np.linalg.norm(np.einsum("...jk,...k->...j", spin_dot_p(p), p), axis=-1)


def product_identity_residual(axis, p: np.ndarray) -> float:
    """Entrywise check of the spin-1 product reduction

        [S^i (S.p)]^{jm} = p^i I^{jm} - i [S x p]^{i,jm} - p^m delta^{ij},

    where [S x p]^{i,jm} = eps^{ikl} (S_k)^{jm} p_l.  Returns the maximum
    absolute entry of LHS - RHS; bounded by 1e-13 * (1 + |p|).
    """
    i = _AXES[axis]
    p = np.asarray(p, dtype=np.float64)
    lhs = _SPIN[i] @ spin_dot_p(p)
    rhs = p[..., i, None, None] * np.eye(3) - 1j * _s_cross_p(p)[..., i, :, :]
    rhs[..., i, :] -= p
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


def dirac_chain_residual(
    p: np.ndarray, pt: float, psi: np.ndarray
) -> tuple[float, float, float]:
    """Residuals of the three equations obtained from {pt I + S.p} psi = 0
    by left-multiplying with S_x, S_y, S_z and reducing the products with the
    product identity:

        {p_x + S_x pt - i S_y p_z + i S_z p_y} psi - (p.psi) e_x = 0,

    and cyclic for y, z.  Each residual is bounded by 1e-11 whenever psi
    satisfies the first-order equation and transversality p.psi = 0, showing
    the derived set carries no information beyond those two conditions.

    Raises
    ------
    PreconditionViolated
        If psi fails {pt I + S.p} psi = 0 or p.psi = 0 beyond 1e-12 (scaled).
    """
    p = np.asarray(p, dtype=np.float64)
    pt = np.asarray(pt, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.complex128)

    scale = 1e-12 * (1.0 + np.abs(pt) + np.linalg.norm(p, axis=-1)) * np.maximum(
        np.linalg.norm(psi, axis=-1), 1e-300)
    first_order = pt[..., None] * psi + np.einsum("...jk,...k->...j", spin_dot_p(p), psi)
    if np.any(np.linalg.norm(first_order, axis=-1) > scale):
        raise PreconditionViolated("psi does not solve {pt I + S.p} psi = 0")
    p_dot_psi = np.einsum("...k,...k->...", p, psi)
    if np.any(np.abs(p_dot_psi) > scale):
        raise PreconditionViolated("psi is not transverse: p.psi != 0")

    # row i: p^i psi + pt S_i psi - i [S x p]^i psi - (p.psi) e_i
    vec = (p[..., :, None] * psi[..., None, :]
           + pt[..., None, None] * np.einsum("ijk,...k->...ij", _SPIN, psi)
           - 1j * np.einsum("...ijk,...k->...ij", _s_cross_p(p), psi))
    vec -= p_dot_psi[..., None, None] * np.eye(3)
    return tuple(np.moveaxis(np.linalg.norm(vec, axis=-1), -1, 0))


def singularity_report() -> tuple[float, float, float]:
    """(|det Sx|, |det Sy|, |det Sz|) -- all zero: the spin-1 matrices are
    singular (rank 2), so inverting them is never legitimate."""
    return tuple(float(abs(np.linalg.det(m))) for m in _SPIN)
