"""Periodic pseudo-spectral time-domain solver for the scalar-extended
Maxwell system.

Evolved equations (natural units, c = 1 internally; unit conversion happens
at the CLI boundary):

    dE/dt =  c curl B - c grad Re(chi)
    dB/dt = -c curl E + c grad Im(chi)
    d2(chi)/dt2 = c^2 laplacian(chi)        (each part independently)

with the divergence pair treated as monitored constraints, never enforced:

    div E + (1/c) d/dt Re(chi) = 0
    div B - (1/c) d/dt Im(chi) = 0

The wave equation for chi is not an extra postulate: taking the divergence
of the curl equations and the time derivative of the constraints forces it,
and conversely it makes the constraints invariants of the semi-discrete
flow.  Projecting the constraints away would mask exactly the consistency
structure the diagnostics are meant to exhibit, so they are only measured.

Discretization: all spatial derivatives are exact Fourier multipliers on the
periodic grid, so the discrete curl of the discrete gradient vanishes to
machine precision ("rot grad = 0" survives discretization verbatim), and a
plane wave propagates with no spatial dispersion error.  The state evolves
as the spectra of the paper's variables psi = E - iB and chi (held as Re chi
and Im chi), where dpsi/dt = i curl psi - grad chi is (E + S.p) psi = p chi.
Each bin holds psi in the S.k^ eigenbasis of `planewaves.helicity_triad`:
helicity +1 and -1 (the photon) and eigenvalue 0 (k^.psi, where chi
enters).  Time stepping is classical RK4 under the bound
dt <= 0.5 dx / (c sqrt(dims)), which sits well inside the RK4 imaginary-axis
stability interval for the largest grid wavenumber.  The operator acts bin
by bin and is diagonal on the helicity channels, so `run` takes the steps
between two outputs as one multiply by a power of the RK4 stability
polynomial (see _Propagator).  The system is linear, so no dealiasing is
needed.

Real chi is the default (no magnetic sources, div B stays zero); the
imaginary part -- magnetic-source mode -- is enabled by chi_mode="complex".

A state is immutable between steps: `step` and `run` return fresh arrays and
never write to their inputs, so snapshots handed to diagnostics or IO may be
read concurrently with further stepping.  Only the spectra a run keeps for
itself are advanced in place.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import CFLViolation, ChiMaxwellError, InconsistentScenario
from .planewaves import helicity_eigenvector, helicity_triad

__all__ = [
    "C_LIGHT",
    "Grid",
    "FieldState",
    "Diagnostics",
    "SpectralSpace",
    "cfl_bound",
    "init_state",
    "step",
    "diagnostics",
    "run",
    "save_snapshot",
    "load_snapshot",
    "write_diagnostics_csv",
]

C_LIGHT = 1.0

SNAPSHOT_FIELDS = ("e", "b", "chi_re", "chi_im", "chi_re_t", "chi_im_t")
# The residuals of a Diagnostics sample, each the field `<name>_residual`.
RESIDUALS = ("gauss_e", "gauss_b", "curl_j", "continuity")
_NEGATIVE_ZERO = np.uint64(1 << 63)  # the bits of -0.0


@dataclass(frozen=True)
class Grid:
    """Periodic grid: n points per axis (a power of two in [8, 2**1024), so
    dx = L / n is a float), box length L in [1e-100, 1e100], which keeps the
    volume and every wavenumber squared finite and nonzero, and 1 or 3
    spatial dimensions (1-D varies along z)."""

    n: int
    length: float
    dims: int = 3

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0 or self.n >= 2**1024:
            raise ValueError("n must be a power of two with 8 <= n < 2**1024")
        if self.dims not in (1, 3):
            raise ValueError("dims must be 1 or 3")
        if not 1e-100 <= self.length <= 1e100:
            raise ValueError(f"box length must lie in [1e-100, 1e100], got {self.length!r}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dims

    @property
    def volume(self) -> float:
        return self.length**self.dims


@dataclass(frozen=True)
class FieldState:
    """Grid snapshot of (E, B, Re chi, Im chi, their time derivatives) at t."""

    grid: Grid
    t: float
    e: np.ndarray        # (3, *grid.shape)
    b: np.ndarray        # (3, *grid.shape)
    chi_re: np.ndarray   # (*grid.shape)
    chi_im: np.ndarray
    chi_re_t: np.ndarray
    chi_im_t: np.ndarray


@dataclass(frozen=True)
class Diagnostics:
    """Constraint residuals (grid RMS) and total energy at time t.  The two
    identity fields, curl_j_residual and continuity_residual, are always
    exactly 0.0: no state can violate them (see `diagnostics`)."""

    t: float
    gauss_e_residual: float
    gauss_b_residual: float
    curl_j_residual: float
    continuity_residual: float
    energy: float


class SpectralSpace:
    """Fourier multipliers (grad, div, curl, laplacian, Poisson) for a Grid.

    The Nyquist bin of every axis is zeroed in the derivative multipliers
    (the odd-derivative multiplier has no consistent sign there), and the
    Laplacian symbol is built from the same zeroed arrays.  This keeps the
    discrete identities exact -- div grad = laplacian, curl grad = 0, and
    div curl = 0 hold bin by bin -- at the price of the Nyquist shell not
    propagating.  Initial data must be band-limited below it: |k_a| < n/2.

    `fwd` returns mean-normalized coefficients (norm="forward"), whose squares
    Parseval sums as they are; n is a power of two, so that exact 1/n leaves
    every result bit-identical to scaling in `inv` instead.  `fwd` takes a
    scalar or a (3, *shape) vector field and returns its spectrum, of shape
    `half` or (3, *half): each component is one `np.fft.rfftn` call whose
    stages all run in that component's row of the result.  `inv` takes a
    scalar spectrum and returns a fresh field, leaving the spectrum as it
    was.  `inv_in_place` writes the field into `out` (a fresh array when
    none is given) and uses the spectrum as its scratch, so a caller that
    holds a temporary spectrum pays no copy: in numpy's own `irfftn` order,
    an in-place `np.fft.ifft` along each axis but the last, then one
    `np.fft.irfftn` along the last, so the bits are those of `irfftn`.  A
    field or spectrum that is all zero (+0.0 or -0.0) costs no FFT: its
    transform is +0.0 throughout.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.axes = tuple(range(-grid.dims, 0))
        n = grid.n
        kfull = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
        kfull[n // 2] = 0.0
        khalf = kfull[: n // 2 + 1]  # rfftfreq, with the Nyquist bin zeroed
        self.k = ([kfull.reshape(n, 1, 1), kfull.reshape(1, n, 1), khalf.reshape(1, 1, -1)]
                  if grid.dims == 3 else [np.zeros(1), np.zeros(1), khalf])
        self.k2 = self.k[0] ** 2 + self.k[1] ** 2 + self.k[2] ** 2
        self.half = (*grid.shape[:-1], n // 2 + 1)  # the shape of a spectrum

    def fwd(self, f: np.ndarray) -> np.ndarray:
        out = np.empty((*f.shape[:f.ndim - self.grid.dims], *self.half), dtype=np.complex128)
        # One FFT per component: with numpy 2.4's pocketfft, three 64^3
        # calls took less time than one batched (3, ...) call, same bits.
        for row, c in zip(out, f) if f.ndim > self.grid.dims else [(out, f)]:
            if c.any():
                np.fft.rfftn(c, axes=self.axes, norm="forward", out=row)
            else:
                row.fill(0.0)
        return out

    def inv(self, fh: np.ndarray) -> np.ndarray:
        if not fh.any():
            return np.zeros(self.grid.shape)
        return self.inv_in_place(fh.copy())

    def inv_in_place(self, fh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.grid.shape)
        if not fh.any():
            out.fill(0.0)
            return out
        for axis in self.axes[:-1]:
            np.fft.ifft(fh, axis=axis, norm="forward", out=fh)
        return np.fft.irfftn(fh, s=self.grid.shape[-1:], axes=self.axes[-1:],
                             norm="forward", out=out)

    def grad(self, f: np.ndarray) -> np.ndarray:
        fh = self.fwd(f)
        out = np.empty((3, *self.grid.shape))
        for ka, row in zip(self.k, out):
            self.inv_in_place(1j * ka * fh, row)
        return out

    def div(self, v: np.ndarray) -> np.ndarray:
        k, vh = self.k, self.fwd(v)
        return self.inv_in_place(1j * (k[0] * vh[0] + k[1] * vh[1] + k[2] * vh[2]))

    def curl(self, v: np.ndarray) -> np.ndarray:
        k, vh = self.k, self.fwd(v)
        out = np.empty((3, *self.grid.shape))
        self.inv_in_place(1j * (k[1] * vh[2] - k[2] * vh[1]), out[0])
        self.inv_in_place(1j * (k[2] * vh[0] - k[0] * vh[2]), out[1])
        self.inv_in_place(1j * (k[0] * vh[1] - k[1] * vh[0]), out[2])
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.inv_in_place(-self.k2 * self.fwd(f))

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Zero-mean phi with laplacian(phi) = rhs (the k = 0 bin is dropped,
        so rhs must have zero mean for the solution to be exact)."""
        rhs_h = self.fwd(rhs)
        phi_h = np.divide(
            rhs_h, -self.k2, out=np.zeros_like(rhs_h), where=self.k2 > 0
        )
        return self.inv_in_place(phi_h)

    def coordinates(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays (x, y, z); 1-D grids vary along z."""
        n = self.grid.n
        x = np.arange(n) * self.grid.dx
        if self.grid.dims == 3:
            return [x.reshape(n, 1, 1), x.reshape(1, n, 1), x.reshape(1, 1, n)]
        return [np.zeros(1), np.zeros(1), x]


def cfl_bound(grid: Grid) -> float:
    """Largest admissible |dt| for the RK4 stepper: 0.5 dx / (c sqrt(dims))."""
    return 0.5 * grid.dx / (C_LIGHT * math.sqrt(grid.dims))


def _has_bool(value) -> bool:
    """Whether a bool sits in value at any depth of its lists."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b"
    if isinstance(value, (list, tuple)):
        return any(map(_has_bool, value))
    return isinstance(value, (bool, np.bool_))


def _number_array(value) -> np.ndarray | None:
    """value as an int, uint or float array, or None if it is not one: a
    bool (also one among numbers, which np.asarray would promote), a
    string, None, a ragged list or an int beyond int64."""
    if _has_bool(value):
        return None
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list
        return None
    return arr if arr.dtype.kind in "iuf" else None


def _numbers(raw: dict, name: str, default, count: int | None = None):
    """raw[name] (default if absent) as a float, or with count as a float64
    array of that many values; anything else raises ChiMaxwellError."""
    value = raw.get(name, default)
    arr = _number_array(value)
    if arr is not None and count is None and arr.ndim == 0:
        return float(arr)
    if arr is not None and count is not None and arr.ndim <= 1 and arr.size == count:
        return arr.astype(np.float64).reshape(count)
    what = "a number" if count is None else f"{count} number(s)"
    raise ChiMaxwellError(f"scenario param {name!r} takes {what}, got {value!r}")


def _wave_vector(grid: Grid, raw: dict) -> np.ndarray:
    """The 3-vector of the integer mode numbers k, |k_a| < n/2 (1-D grids vary along z)."""
    modes = _numbers(raw, "k", [0, 0, 1] if grid.dims == 3 else [1], grid.dims)
    if not np.all(np.isfinite(modes) & (modes == np.round(modes))):
        raise ChiMaxwellError(f"mode numbers k must be integers, got {raw['k']!r}")
    if not np.all(np.abs(modes) < grid.n / 2):
        raise ChiMaxwellError(f"mode numbers k must lie below the band limit "
                              f"|k_a| < n/2 = {grid.n // 2}, got {raw['k']!r}")
    kvec = 2.0 * np.pi * modes / grid.length
    return np.array([0.0, 0.0, kvec[0]]) if grid.dims == 1 else kvec


def _plane_phase(space: SpectralSpace, kvec: np.ndarray) -> np.ndarray:
    x, y, z = space.coordinates()
    return np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z))


# Each builder reads its params, then writes the fields it defines into
# `fields` (the six zero arrays of _initial_fields), each one as soon as it
# is computed: the order in which the grids are freed sets the peak RSS.

def _vacuum_planewave(space: SpectralSpace, raw: dict, fields: dict) -> None:
    """Transverse circularly polarized wave: k, helicity, amplitude."""
    kvec = _wave_vector(space.grid, raw)
    amplitude = _numbers(raw, "amplitude", 1.0)
    helicity = _numbers(raw, "helicity", -1)
    if helicity not in (1.0, -1.0):
        raise ChiMaxwellError(f"helicity must be +1 or -1, got {raw['helicity']!r}")
    pol = helicity_eigenvector(kvec, int(helicity))
    phase = _plane_phase(space, kvec)
    # Component by component: a (3, *shape) complex temporary here raised
    # the peak RSS of later runs in the same process.
    psi = [amplitude * c * phase for c in pol]
    fields["e"] = np.stack([c.real for c in psi])
    fields["b"] = np.stack([-c.imag for c in psi])


def _chi_gaussian(space: SpectralSpace, raw: dict, fields: dict) -> None:
    """Band-limited periodized Gaussian chi, d/dt chi = chi / w without its mean and E = i k
    (d/dt chi)^ / |k|^2, from their closed Fourier series: width, amplitude, center."""
    grid = space.grid
    width = _numbers(raw, "width", grid.length / 16.0)
    amplitude = _numbers(raw, "amplitude", 1.0)
    center = _numbers(raw, "center", [grid.length / 2.0] * grid.dims, grid.dims)
    if not width > 0.0:
        raise ChiMaxwellError(f"width must be positive, got {width!r}")
    centers = [0.0, 0.0, center[0]] if grid.dims == 1 else list(center)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    chi = amplitude * np.float64(width * math.sqrt(2.0 * np.pi) / grid.length) ** grid.dims
    for a in range(3 - grid.dims, 3):
        factor = np.exp(-0.5 * (k * width) ** 2 - 1j * k * centers[a])
        factor[grid.n // 2] = 0.0  # the Nyquist bin
        chi = chi * factor[: space.k[a].size].reshape(space.k[a].shape)
    chi_t = (1.0 / width) * chi  # a subnormal width overflows: 0 * inf is a NaN the gate rejects
    chi_t.flat[0] = 0.0  # the mean of d/dt chi is dropped
    potential = np.divide(chi_t, space.k2, out=np.zeros_like(chi_t), where=space.k2 > 0)
    space.inv_in_place(chi, fields["chi_re"])
    space.inv_in_place(chi_t, fields["chi_re_t"])
    del chi, chi_t
    for a in range(3 - grid.dims, 3):
        space.inv_in_place(1j * space.k[a] * potential, fields["e"][a])


def _chi_planewave(space: SpectralSpace, raw: dict, fields: dict) -> None:
    """chi = A cos(k.x) with the traveling-wave d/dt chi and the
    longitudinal E = A k^ cos(k.x): k (nonzero), amplitude."""
    kvec = _wave_vector(space.grid, raw)
    if not np.any(kvec):
        raise ChiMaxwellError("chi_planewave requires a nonzero mode")
    amplitude = _numbers(raw, "amplitude", 1.0)
    phase = _plane_phase(space, kvec)
    fields["chi_re"] = amplitude * phase.real
    # d/dt cos(k.x - |k| t) at t = 0
    fields["chi_re_t"] = amplitude * float(np.linalg.norm(kvec)) * phase.imag
    for a in np.flatnonzero(kvec):
        np.multiply(amplitude * (kvec[a] / np.linalg.norm(kvec)), phase.real, out=fields["e"][a])


def _custom(space: SpectralSpace, raw: dict, fields: dict) -> None:
    """Any of the fields as arrays of numbers; one left out stays zero."""
    for name, zero in fields.items():
        if raw.get(name) is None:
            continue
        value = _number_array(raw[name])
        if value is None:
            raise ChiMaxwellError(f"custom field {name!r} must be an array of numbers")
        if value.shape != zero.shape:
            raise ChiMaxwellError(f"custom field {name!r} has shape "
                                  f"{value.shape}, expected {zero.shape}")
        fields[name] = value.astype(np.float64)


_SCENARIOS = {"vacuum_planewave": _vacuum_planewave, "chi_gaussian": _chi_gaussian,
              "chi_planewave": _chi_planewave, "custom": _custom}


def init_state(grid: Grid, scenario: dict, chi_mode: str = "real") -> FieldState:
    """Build initial data for a named scenario.

    scenario = {"type": <name>, "params": {...}}; each type is one builder
    in the _SCENARIOS table, which reads and checks its own params:

    * "vacuum_planewave": params k (integer mode numbers), helicity (+1/-1,
      default -1), amplitude.  Transverse circularly polarized wave, chi = 0.
    * "chi_gaussian": params width, amplitude, center.  Real chi, the
      band-limited periodized Gaussian, with a mean-free d/dt chi and the
      longitudinal E that meets the electric constraint bin by bin, all
      three from their closed Fourier series; B = 0.
    * "chi_planewave": params k, amplitude.  chi(x, 0) = A cos(k.x) with the
      traveling-wave time derivative and E = A k^ cos(k.x).
    * "custom": params e, b, chi_re, chi_im, chi_re_t, chi_im_t as arrays
      (missing entries are zero).

    Params take numbers only, never a bool or a string, and mode numbers
    |k_a| < n/2 (the band limit); a malformed one raises ChiMaxwellError.
    Every returned state satisfies both divergence constraints at t = 0: the
    gate reads the residuals of its t = 0 diagnostics sample, and data
    violating them beyond 1e-8 or not finite raises InconsistentScenario, as
    does any nonzero Im chi under chi_mode="real".
    """
    return _start(grid, scenario, chi_mode)[0]


def _start(grid: Grid, scenario: dict, chi_mode: str):
    """(state, propagator, spectra, sample) at t = 0, built, transformed
    once and gated: the one start-up path of init_state and run."""
    if chi_mode not in ("real", "complex"):
        raise ChiMaxwellError("chi_mode must be 'real' or 'complex'")
    _check_room(grid, 1)  # one state bounds a run's memory from below
    prop = _Propagator(grid)
    # The builder's grids (a phase, the spectra it inverts) are gone by the time the
    # state is transformed.  Non-finite data raises no warning here: the gate below
    # rejects it, as it does the overflow of 1 / width for a subnormal chi_gaussian width.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        state = _initial_fields(prop.space, scenario, chi_mode)
        spectra = prop.spectra(state)
        sample = prop.diagnostics(spectra, 0.0)
    ge, gb = sample.gauss_e_residual, sample.gauss_b_residual
    # Written so that a NaN residual (non-finite input data) is rejected too.
    if not (ge <= 1e-8 and gb <= 1e-8):
        raise InconsistentScenario(
            f"initial data violates the divergence constraints "
            f"(gauss_e={ge:.3e}, gauss_b={gb:.3e}; each must be <= 1e-8)"
        )
    return state, prop, spectra, sample


def _initial_fields(space: SpectralSpace, scenario, chi_mode: str) -> FieldState:
    """The t = 0 fields of a scenario, before the constraint gate: six zero
    fields, overwritten by the scenario's builder where it defines them."""
    if not isinstance(scenario, dict):
        raise ChiMaxwellError("scenario must be an object with 'type' and 'params'")
    kind, raw = scenario.get("type"), scenario.get("params", {})
    if not isinstance(raw, dict):
        raise ChiMaxwellError("scenario params must be an object")
    build = _SCENARIOS.get(kind) if isinstance(kind, str) else None
    if build is None:
        raise ChiMaxwellError(f"unknown scenario type {kind!r}")
    shape = space.grid.shape
    fields = {name: np.zeros((3, *shape) if name in ("e", "b") else shape)
              for name in SNAPSHOT_FIELDS}
    build(space, raw, fields)
    if chi_mode == "real" and (np.any(fields["chi_im"] != 0.0)
                               or np.any(fields["chi_im_t"] != 0.0)):
        raise InconsistentScenario(
            "Im(chi) is nonzero; magnetic-source mode needs chi_mode='complex'"
        )
    return FieldState(space.grid, 0.0, **fields)


def _check_cfl(grid: Grid, dt: float) -> None:
    bound = cfl_bound(grid)
    if not abs(dt) <= bound * (1.0 + 1e-12):  # written so that a NaN dt is rejected too
        raise CFLViolation(f"|dt| = {abs(dt):.6g} exceeds the bound {bound:.6g}")


class _Propagator:
    """s RK4 steps as one jump of the spectra of psi = E - iB, Re chi and Im chi.

    Per bin (p = k, E = i d/dt) the operator is (E + S.p) psi = p chi, that
    is dpsi/dt = -k x psi - i k chi, with chi = Re chi + i Im chi.  psi is
    held on the bin's `planewaves.helicity_triad` (th^, ph^, k^) as the
    eigen-amplitudes of S.k^, with e+ and e- the `helicity_eigenvector`s on
    that triad (so projecting on it is two plane rotations):

        h+ = th^.psi - i ph^.psi  (helicity +1, h+ = -sqrt(2) e+^dagger psi)
        h- = th^.psi + i ph^.psi  (helicity -1, h- =  sqrt(2) e-^dagger psi)
        l  = k^.psi               (eigenvalue 0, where chi enters)

    -k^ x = i (S.k^) turns h+ by e^{i|k|t} and h- by e^{-i|k|t}; each part
    of chi, (R, R_t) of Re chi and (I, I_t) of Im chi, rotates as (f, f_t)
    at frequency |k|, and l - i (R_t + i I_t)/|k| stays fixed.  So s steps
    multiply by rho = r(i theta)^s, r(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    theta = |k| dt, C = Re rho, Sn = Im rho:

        h+  <- rho h+,  h- <- conj(rho) h-
        f   <- C f + (Sn/|k|) f_t                    (f = R and f = I)
        f_t <- -|k| Sn f + C f_t
        l   <- l + (i dR - dI)/|k|,  dR, dI the changes of R_t and I_t

    At k = 0, rho = 1, psi and f_t stay put and f <- f + s dt f_t.

    The spectra live on rfftn half-grids, stacked as one (2, 5, *half)
    array whose two halves are psi and its partner E + iB, packed alike:
    (h+, h-, l, R, R_t) of psi, then (h+, h-, l, I, I_t) of the partner,
    which turns the other way (rho and conj(rho) swap) and takes
    l_c += (i dR + dI)/|k|.  `spectra` packs each half through `_project`
    (`_pack`), and a zero B only once: both halves are then E, bit for bit.
    `state` unpacks E from the sum of the halves and B from their
    difference through its transpose, `_unproject`, one component at a
    time, each a temporary that `SpectralSpace.inv_in_place` transforms in
    place into its row of the state; the chi slots, which the run keeps, go
    through the copying `inv`.  Real fields stay exactly real, and a zero
    one exactly zero: a real-chi run never rotates (I, I_t).  `jump` works
    in place: a run's spectra are its own, and every state handed out is a
    fresh transform of them.
    """

    def __init__(self, grid: Grid):
        self.space = SpectralSpace(grid)
        (self.cphi, self.sphi, self.cos_t, self.sin_t,
         self.kabs, self.inv_k) = helicity_triad(*self.space.k)
        # The real and imaginary parts of the k = 0 and Nyquist columns of
        # the last axis in a spectrum's float64 view (see _mean_sq).
        self.edges = [0, 1, grid.n, grid.n + 1]

    def _project(self, v):
        """(th^.v, ph^.v, k^.v) of a vector spectrum v of shape (3, ...)."""
        u = self.cphi * v[0] + self.sphi * v[1]  # the in-plane radial part
        return (self.cos_t * u - self.sin_t * v[2], self.cphi * v[1] - self.sphi * v[0],
                self.sin_t * u + self.cos_t * v[2])

    def _unproject(self, v_th, v_ph, v_k):
        """The Cartesian components z, x, y, one at a time, of the vector
        spectrum with triad components (v_th, v_ph, v_k): the transpose of
        _project, so a caller can transform each before the next exists."""
        yield self.cos_t * v_k - self.sin_t * v_th
        u = self.cos_t * v_th + self.sin_t * v_k  # the in-plane radial part
        yield self.cphi * u - self.sphi * v_ph
        yield self.sphi * u + self.cphi * v_ph

    def _pack(self, v, half) -> None:
        """Write the triad amplitudes h+- = th^.v -+ i ph^.v and l = k^.v of
        the vector spectrum v into half[:3]; v may be half[:3] itself."""
        th, iph, half[2] = self._project(v)
        iph *= 1j
        np.subtract(th, iph, out=half[0])
        np.add(th, iph, out=half[1])

    def spectra(self, state: FieldState) -> np.ndarray:
        """The (2, 5, *half) pair of a state (see the class): the halves are
        psi = E - iB and its partner E + iB, each packed on the triad by
        `_pack`, then the rfftn of each chi field.  A zero B costs no
        transform and one projection: psi = E - i0 is E bit for bit, and so
        is its partner E + i0 unless E holds a -0.0 (the sum makes it
        +0.0), so the partner's slots are a copy of psi's.  An E that holds
        a -0.0 takes the path of a nonzero B, whose zero spectrum then adds
        the +0.0."""
        fwd = self.space.fwd
        e = fwd(state.e)
        out = np.empty((2, 5, *e.shape[1:]), dtype=np.complex128)
        if state.b.any() or (e.view(np.uint64) == _NEGATIVE_ZERO).any():
            ib = fwd(state.b)
            ib *= 1j
            for half, combine in zip(out, (np.subtract, np.add)):
                # psi, then its partner, in the slots its triad components replace
                self._pack(combine(e, ib, out=half[:3]), half)
            del ib
        else:
            self._pack(e, out[0])
            out[1, :3] = out[0, :3]
        del e
        out[0, 3], out[0, 4] = fwd(state.chi_re), fwd(state.chi_re_t)
        out[1, 3], out[1, 4] = fwd(state.chi_im), fwd(state.chi_im_t)
        return out

    def state(self, spectra, t: float) -> FieldState:
        """Real-space state at time t from the pair of spectra, field by
        field: E = (psi + partner)/2 from the sums of the two halves' triad
        components, B = i (psi - partner)/2 from their differences, each
        unprojected and transformed in place one component at a time, and
        each chi field from a copy of its own slot."""
        (hp, hm, ell, _, _), (hp_c, hm_c, ell_c, _, _) = spectra
        e, b = np.empty((3, *self.space.grid.shape)), np.empty((3, *self.space.grid.shape))
        for out, combine, scale in ((e, np.add, 1.0), (b, np.subtract, 1j)):
            p, m = combine(hp, hp_c), combine(hm, hm_c)
            # th^.v = (h+ + h-)/2 and ph^.v = i (h+ - h-)/2 on either half: E's triad
            # is ((p + m)/4, i (p - m)/4, (l + l_c)/2) with p = h+ + h+_c, m = h- + h-_c,
            # and B's is i times the same with differences in place of the sums
            triad = (p + m, np.subtract(p, m, out=p), combine(ell, ell_c))
            del m
            for v, factor in zip(triad, (0.25, 0.25j, 0.5)):
                v *= factor * scale
            for a, v in zip((2, 0, 1), self._unproject(*triad)):
                self.space.inv_in_place(v, out[a])
        # Zero fields are rows of one unwritten block: no pages, unlike one zero array each.
        slots = (spectra[0, 3], spectra[1, 3], spectra[0, 4], spectra[1, 4])
        nonzero = [slot.any() for slot in slots]
        zero = iter(np.zeros((nonzero.count(False), *self.space.grid.shape)))
        chi = [self.space.inv(slot) if nz else next(zero) for slot, nz in zip(slots, nonzero)]
        return FieldState(self.space.grid, t, e, b, *chi)

    def factors(self, s: int, dt: float) -> tuple[np.ndarray, ...]:
        """(rho, C, Sn/|k|, |k| Sn) for s steps of length dt; Sn/|k| takes
        its k -> 0 limit s dt in the k = 0 bin."""
        theta = self.kabs * dt
        th2 = theta * theta
        rho = ((1.0 - th2 / 2.0 + th2 * th2 / 24.0)
               + 1j * theta * (1.0 - th2 / 6.0)) ** s
        c, sn = rho.real.copy(), rho.imag
        return rho, c, np.where(self.kabs > 0, sn * self.inv_k, s * dt), self.kabs * sn

    def jump(self, spectra, factors) -> None:
        """Advance the pair in place by the steps `factors` was built for:
        one phase multiply per helicity channel, then per chi part the
        (f, f_t) rotation and its kick to l and l_c, with two temporaries.
        A part whose f and f_t are all zero is skipped."""
        rho, c, sn_over_k, k_sn = factors
        rho_c = rho.conj()
        for (hp, hm, *_), (turn_p, turn_m) in zip(spectra, ((rho, rho_c), (rho_c, rho))):
            hp *= turn_p
            hm *= turn_m
        ell, ell_c = spectra[:, 2]
        for part, (f, f_t) in enumerate(spectra[:, 3:]):
            if not (f.any() or f_t.any()):
                continue  # the system is linear: the part stays zero and kicks nothing
            f_t_new = c * f_t
            tmp = k_sn * f
            f_t_new -= tmp
            f *= c
            f += np.multiply(sn_over_k, f_t, out=tmp)
            np.subtract(f_t_new, f_t, out=tmp)
            tmp *= self.inv_k
            f_t[...] = f_t_new
            if part == 0:  # l and l_c += i dR/|k|
                tmp *= 1j
                ell += tmp
            else:  # l -= dI/|k|, l_c += dI/|k|
                ell -= tmp
            ell_c += tmp

    def _mean_sq(self, *spectra: np.ndarray) -> float:
        """Grid mean of |f|^2, summed over the fields whose (mean-normalized,
        C-contiguous) half-grid spectra are given.  By Parseval a column
        other than k = 0 and Nyquist on the last axis stands for itself and
        its mirror -k: with s the sum of squares over all bins and e that
        over those two columns, the mean is s + (s - e), in that order, so
        it overflows no sooner than the real-space sum, and to inf (not to
        inf - inf).  Two dot products over the float64 view, and no
        temporary but the edge columns."""
        total = 0.0
        for f in spectra:
            x = f.view(np.float64)
            edges = x[..., self.edges]
            s, e = float(np.vdot(x, x)), float(np.vdot(edges, edges))
            total += s + (s - e) if s < math.inf else s
        return total

    def diagnostics(self, spectra, t: float) -> Diagnostics:
        """The diagnostics of the state the pair describes, read off its spectra
        by Parseval, with no FFT: i |k| (l + l_c)/2 + R_t is the spectrum of
        div E + d/dt Re chi, i |k| (l_c - l)/2 - i I_t (read without its exact
        factor i) that of i (div B - d/dt Im chi).  The triad is orthonormal, so
        |psi|^2 = (|h+|^2 + |h-|^2)/2 + |l|^2, and |chi|^2 sums as |R|^2 + |I|^2.
        curl_j and continuity are identities, 0.0 by construction (see
        `diagnostics`), so only the Gauss residuals and the energy are read."""
        (hp, hm, ell, re, re_t), (hp_c, hm_c, ell_c, im, im_t) = spectra
        ge = math.sqrt(self._mean_sq(0.5j * (self.kabs * (ell + ell_c)) + re_t))
        gb = math.sqrt(self._mean_sq(0.5 * (self.kabs * (ell_c - ell)) - im_t))
        energy = 0.25 * (0.5 * self._mean_sq(hp, hm, hp_c, hm_c) + self._mean_sq(ell, ell_c)
                         + 2.0 * self._mean_sq(re, im)) * self.space.grid.volume
        return Diagnostics(t, ge, gb, 0.0, 0.0, energy)


def step(state: FieldState, dt: float) -> FieldState:
    """Advance one RK4 step of length dt (dt may be negative: the scheme is
    reversible to its accuracy order).  Raises CFLViolation beyond the bound."""
    _check_cfl(state.grid, dt)
    prop = _Propagator(state.grid)
    spectra = prop.spectra(state)
    prop.jump(spectra, prop.factors(1, dt))
    return prop.state(spectra, state.t + dt)


def diagnostics(state: FieldState) -> Diagnostics:
    """Constraint residuals (grid RMS), discrete identity checks, and energy.

    Everything is read off the state's spectra by Parseval: one rfftn per
    nonzero field component here (ten at most), and none for the samples
    `run` takes, which come straight from the propagator's spectra.

    With the current-density reading j ~ grad Re(chi), rho ~ -(1/c^2) d/dt
    Re(chi), the two identities below are the curl-free and continuity
    equations of that pair.  Both hold for every state, so each is reported
    as exactly 0.0 and nothing is summed:

    * curl_j_residual     = RMS( i k x (i k Re(chi)) ): curl grad = 0, whose
      matrix image (S.p) p = 0 the generalized equations rest on; the
      Fourier sum would measure only the rounding of k_a (k_b R) - k_b (k_a R);
    * continuity_residual = RMS( (1/c^2) d/dt grad Re(chi) + grad rho ): the
      two terms are the same field with opposite signs.

    energy = (1/2) Integral (E^2 + B^2 + Re(chi)^2 + Im(chi)^2) dV, which the
    evolution conserves on the constraint surface.
    """
    prop = _Propagator(state.grid)
    return prop.diagnostics(prop.spectra(state), state.t)


def _check_room(grid: Grid, kept: int, written: int = 0,
                out_path: Path | None = None, beside: int = 0) -> None:
    """Reject `kept` states held in memory, or `written` outputs under
    out_path, that do not fit in physical memory or in the free space of
    out_path's file system.  A state holds 80 bytes (10 float64 fields) a
    cell; an output takes its snapshot's .bin rounded up to whole
    file-system blocks, plus one block for its .json sidecar, plus a file of
    up to `beside` bytes that a caller writes next to it, also rounded up."""
    state_bytes = 80 * int(grid.n) ** grid.dims
    if kept * state_bytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ChiMaxwellError(f"{kept} kept {grid.dims}-D n={grid.n} state(s) "
                              f"exceed the physical memory")
    if out_path is None:
        return
    existing = out_path
    while not existing.exists():  # out_path itself is made later
        existing = existing.parent
    block = os.statvfs(existing).f_bsize
    output_bytes = -(-state_bytes // block) * block + block + -(-beside // block) * block
    if written * output_bytes > shutil.disk_usage(existing).free:
        what = "snapshots and profiles" if beside else "snapshots"
        raise ChiMaxwellError(f"{written} {what} of a {grid.dims}-D n={grid.n} state "
                              f"exceed the free space of {existing}")


def _schedule(grid: Grid, t_end: float, dt: float | None,
              output_every: int) -> tuple[int, float, int, int]:
    """(n_steps, dt_eff, every, outputs) of a run (see `run`): dt defaults to
    the CFL bound, n_steps = ceil(t_end / dt) and dt_eff = t_end / n_steps,
    checked against the CFL bound, then the steps between two outputs, and
    the number of outputs, t = 0 included."""
    if output_every < 0:
        raise ChiMaxwellError(f"output_every must be >= 0, got {output_every!r}")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ChiMaxwellError("t_end must be positive and finite")
    if dt is None:
        dt = cfl_bound(grid)
    elif not dt > 0:
        raise ChiMaxwellError("dt must be positive")
    steps = t_end / dt - 1e-9
    if not steps <= 2**53:  # inf too: beyond 2**53, t_end / dt is no exact count of steps
        raise ChiMaxwellError(f"t_end / dt asks for {steps:.3g} steps, more than 2**53")
    n_steps = max(1, math.ceil(steps))
    dt_eff = t_end / n_steps
    _check_cfl(grid, dt_eff)
    every = min(output_every, n_steps) if output_every > 0 else n_steps
    return n_steps, dt_eff, every, 1 + -(-n_steps // every)


def run(
    grid: Grid,
    scenario: dict,
    t_end: float,
    dt: float | None = None,
    output_every: int = 0,
    chi_mode: str = "real",
    out_dir: str | Path | None = None,
    keep_snapshots: bool = True,
) -> tuple[FieldState, list[Diagnostics], list[FieldState]]:
    """Evolve a scenario to t_end, recording diagnostics and snapshots.

    dt defaults to the CFL bound; the actual step is t_end / n_steps, with
    n_steps = ceil(t_end / dt), so the run lands on t_end exactly.
    output_every = k records every k-th step (plus t = 0 and the final step);
    output_every = 0 records endpoints only.  Deterministic given inputs.
    The steps between two outputs are taken as one jump of the propagator
    (see _Propagator), so the cost grows with the number of outputs.  The
    initial state is transformed once; every sample comes from the
    propagator's spectra, and a state returns to real space only when it is
    kept or written.  An all-zero field is never transformed (see
    SpectralSpace), nor a zero chi part advanced: a vacuum wave costs no chi
    work, and a real-chi run neither transforms nor advances Im chi.

    When out_dir is given, snapshots (.bin + .json sidecar) and a
    diagnostics.csv time series are written there, which is made only once
    the t = 0 data has passed its gate.  keep_snapshots=False
    drops intermediate snapshots from the returned list (initial and final
    states are always kept) -- useful for dense diagnostics on large grids.
    Before anything is built, a run whose kept states exceed physical
    memory, or whose snapshots exceed the free space under out_dir, raises
    ChiMaxwellError.
    """
    n_steps, dt_eff, every, outputs = _schedule(grid, t_end, dt, output_every)
    out_path = Path(out_dir) if out_dir is not None else None
    _check_room(grid, outputs if keep_snapshots else 2, outputs, out_path)

    state0, prop, spectra, sample0 = _start(grid, scenario, chi_mode)

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    diags: list[Diagnostics] = []
    snapshots: list[FieldState] = []

    def record(pair, index: int) -> None:
        t = index * dt_eff
        diags.append(sample0 if index == 0 else prop.diagnostics(pair, t))
        keep = keep_snapshots or index in (0, n_steps)
        if not (keep or out_path is not None):
            return  # a sample that is neither kept nor written stays spectral
        state = state0 if index == 0 else prop.state(pair, t)
        if keep:
            snapshots.append(state)
        if out_path is not None:
            save_snapshot(state, out_path / f"snapshot_{index:06d}")

    record(spectra, 0)
    factors = prop.factors(every, dt_eff)
    for i in range(every, n_steps + 1, every):
        prop.jump(spectra, factors)
        record(spectra, i)
    if n_steps % every:  # a shorter last jump lands on t_end
        prop.jump(spectra, prop.factors(n_steps % every, dt_eff))
        record(spectra, n_steps)

    if out_path is not None:
        write_diagnostics_csv(out_path / "diagnostics.csv", diags)
    return snapshots[-1], diags, snapshots


def _snapshot_header(grid: Grid, t: float) -> dict:
    """The chimaxwell-snapshot-v1 sidecar of a state on grid at time t."""
    return {
        "format": "chimaxwell-snapshot-v1",
        "time": t,
        "grid": {"n": grid.n, "length": grid.length, "dims": grid.dims},
        "fields": list(SNAPSHOT_FIELDS),
        "components": {"e": 3, "b": 3, "chi_re": 1, "chi_im": 1, "chi_re_t": 1, "chi_im_t": 1},
        "dtype": "float64",
        "endianness": "little",
        "order": "C",
    }


def _json_text(name: str, payload: dict) -> str:
    """payload as strict JSON, indented with sorted keys: the serializer of
    every JSON file written.  A value JSON cannot hold (NaN, inf) raises
    ChiMaxwellError prefixed with name, so a caller can fail before writing."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ChiMaxwellError(f"{name}: {exc}") from exc


def save_snapshot(state: FieldState, path_base: str | Path) -> None:
    """Write <base>.bin (flat little-endian float64, C order, fields in
    SNAPSHOT_FIELDS order) plus a <base>.json sidecar with the layout."""
    base = Path(path_base)
    # Serialized first, so a non-finite time fails before any file is written.
    text = _json_text("snapshot header", _snapshot_header(state.grid, state.t))
    parts = [np.ascontiguousarray(getattr(state, name), dtype="<f8").ravel()
             for name in SNAPSHOT_FIELDS]
    np.concatenate(parts).tofile(base.with_suffix(".bin"))
    base.with_suffix(".json").write_text(text)


def load_snapshot(path_base: str | Path) -> FieldState:
    """Inverse of save_snapshot; bit-faithful round trip.

    Reads only the layout save_snapshot writes: a sidecar that differs from
    the v1 header of its own grid and time in any key or value (another
    format, field order or component count, dtype, endianness or order; a
    missing key or an extra one), or whose time is not a finite number, raises
    ChiMaxwellError naming the .json file, and so does a .bin whose size does
    not match the header."""
    base = Path(path_base)
    json_path = base.with_suffix(".json")
    text = json_path.read_text()
    try:
        header = json.loads(text)
        grid = Grid(**header["grid"])
        t = float(header["time"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ChiMaxwellError(f"{json_path}: not a chimaxwell-snapshot-v1 header: "
                              f"{exc}") from exc
    if (not math.isfinite(t) or isinstance(header["time"], bool)
            or header != _snapshot_header(grid, t)):
        raise ChiMaxwellError(f"{json_path}: not a chimaxwell-snapshot-v1 header "
                              "with a finite time")
    bin_path = base.with_suffix(".bin")
    raw = np.fromfile(bin_path, dtype="<f8")
    expected = math.prod(grid.shape) * sum(header["components"].values())
    if raw.size != expected:
        raise ChiMaxwellError(f"{bin_path} holds {raw.size} float64 values; "
                              f"its header implies {expected}")
    # Rows e_x, e_y, e_z, b_x, b_y, b_z, chi_re, chi_im, chi_re_t, chi_im_t.
    rows = raw.reshape(-1, *grid.shape)
    return FieldState(grid, t, rows[0:3], rows[3:6], *rows[6:])


def write_diagnostics_csv(path: str | Path, diags: list[Diagnostics]) -> None:
    """CSV time series: t, gauss_e, gauss_b, curl_j, continuity, energy.
    Floats are written with repr for exact round trips."""
    lines = [",".join(["t", *RESIDUALS, "energy"])]
    lines += [",".join(repr(float(v)) for v in astuple(d)) for d in diags]
    Path(path).write_text("\n".join(lines) + "\n")
