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
as the spectra of the paper's variables psi = E - iB and complex chi, where
dpsi/dt = i curl psi - grad chi is the operator of (E + S.p) psi = p chi.
Time stepping is classical RK4 under the bound dt <= 0.5 dx / (c sqrt(dims)),
which sits well inside the RK4 imaginary-axis stability interval for the
largest grid wavenumber.  The operator acts bin by bin, so `run` takes the
steps between two outputs as one multiply by a power of the RK4 stability
polynomial (see _Propagator).  The system is linear, so no dealiasing is
needed.

Real chi is the default (no magnetic sources, div B stays zero); the
imaginary part -- magnetic-source mode -- is enabled by chi_mode="complex".

A state is immutable between steps: `step` and `run` return fresh arrays and
never write to their inputs, so snapshots handed to diagnostics or IO may be
read concurrently with further stepping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CFLViolation, ChiMaxwellError, InconsistentScenario
from .planewaves import helicity_eigenvector

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


@dataclass(frozen=True)
class Grid:
    """Periodic grid: n points per axis (power of two, n >= 8), box length L,
    1 or 3 spatial dimensions.  The 1-D case varies along z."""

    n: int
    length: float
    dims: int = 3

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two with n >= 8")
        if self.dims not in (1, 3):
            raise ValueError("dims must be 1 or 3")
        if not self.length > 0:
            raise ValueError("box length must be positive")

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
    """Constraint / identity residuals (grid RMS) and total energy at time t."""

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
    propagating.  Initial data should be band-limited below it.
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

    def fwd(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(f, axes=self.axes)

    def inv(self, fh: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(fh, s=self.grid.shape, axes=self.axes)

    def grad(self, f: np.ndarray) -> np.ndarray:
        fh = self.fwd(f)
        return np.stack([self.inv(1j * ka * fh) for ka in self.k])

    def div(self, v: np.ndarray) -> np.ndarray:
        k, vh = self.k, [self.fwd(v[a]) for a in range(3)]
        return self.inv(1j * (k[0] * vh[0] + k[1] * vh[1] + k[2] * vh[2]))

    def curl(self, v: np.ndarray) -> np.ndarray:
        k, vh = self.k, [self.fwd(v[a]) for a in range(3)]
        return np.stack([self.inv(1j * (k[1] * vh[2] - k[2] * vh[1])),
                         self.inv(1j * (k[2] * vh[0] - k[0] * vh[2])),
                         self.inv(1j * (k[0] * vh[1] - k[1] * vh[0]))])

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.inv(-self.k2 * self.fwd(f))

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Zero-mean phi with laplacian(phi) = rhs (the k = 0 bin is dropped,
        so rhs must have zero mean for the solution to be exact)."""
        rhs_h = self.fwd(rhs)
        phi_h = np.divide(
            rhs_h, -self.k2, out=np.zeros_like(rhs_h), where=self.k2 > 0
        )
        return self.inv(phi_h)

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


def _rms(f: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(f) ** 2)))


def _mode_kvec(grid: Grid, modes) -> np.ndarray:
    """Physical wavevector 2 pi m / L from integer mode numbers."""
    modes = np.atleast_1d(np.asarray(modes, dtype=np.float64))
    if grid.dims == 1:
        if modes.size != 1:
            raise ChiMaxwellError("1-D scenarios take a single integer mode number")
        return np.array([0.0, 0.0, 2.0 * np.pi * modes[0] / grid.length])
    if modes.size != 3:
        raise ChiMaxwellError("3-D scenarios take three integer mode numbers")
    return 2.0 * np.pi * modes / grid.length


def _plane_phase(space: SpectralSpace, kvec: np.ndarray) -> np.ndarray:
    x, y, z = space.coordinates()
    return np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z)) * np.ones(
        space.grid.shape
    )


def init_state(grid: Grid, scenario: dict, chi_mode: str = "real") -> FieldState:
    """Build initial data for a named scenario.

    scenario = {"type": <name>, "params": {...}} with types:

    * "vacuum_planewave": params k (integer mode numbers), helicity (+1/-1,
      default -1), amplitude.  Transverse circularly polarized wave, chi = 0.
    * "chi_gaussian": params width, amplitude, center.  Real Gaussian chi
      with a mean-free d/dt chi; E is the spectral-Poisson gradient field
      that satisfies the electric constraint exactly; B = 0.
    * "chi_planewave": params k, amplitude.  chi(x, 0) = A cos(k.x) with the
      traveling-wave time derivative, E again from a spectral Poisson solve.
    * "custom": params e, b, chi_re, chi_im, chi_re_t, chi_im_t as arrays
      (missing entries are zero).

    Every returned state satisfies both divergence constraints at t = 0;
    data violating them beyond 1e-8 (grid RMS) or not finite raises
    InconsistentScenario, as does any nonzero Im chi under chi_mode="real".
    """
    if chi_mode not in ("real", "complex"):
        raise ChiMaxwellError("chi_mode must be 'real' or 'complex'")
    space = SpectralSpace(grid)
    shape = grid.shape
    params = dict(scenario.get("params", {}))
    kind = scenario.get("type")

    e = np.zeros((3, *shape))
    b = np.zeros((3, *shape))
    chi_re = np.zeros(shape)
    chi_im = np.zeros(shape)
    chi_re_t = np.zeros(shape)
    chi_im_t = np.zeros(shape)

    if kind == "vacuum_planewave":
        kvec = _mode_kvec(grid, params.get("k", [0, 0, 1] if grid.dims == 3 else [1]))
        helicity = int(params.get("helicity", -1))
        amplitude = float(params.get("amplitude", 1.0))
        pol = helicity_eigenvector(kvec, helicity)
        phase = _plane_phase(space, kvec)
        psi = amplitude * pol.reshape((3,) + (1,) * grid.dims) * phase
        e = psi.real.copy()
        b = (-psi.imag).copy()
    elif kind == "chi_gaussian":
        width = float(params.get("width", grid.length / 16.0))
        amplitude = float(params.get("amplitude", 1.0))
        center = params.get("center", [grid.length / 2.0] * grid.dims)
        coords = space.coordinates()
        centers = (
            [0.0, 0.0, center[0]] if grid.dims == 1 else list(map(float, center))
        )
        # Periodized (image-summed) Gaussian: smooth on the torus, so its
        # spectrum decays like exp(-k^2 w^2 / 2) with no boundary kink.
        bump = np.ones(shape)
        for a in range(3):
            if grid.dims == 1 and a < 2:
                continue
            profile = np.zeros_like(coords[a])
            for image in range(-2, 3):
                profile = profile + np.exp(
                    -((coords[a] - centers[a] + image * grid.length) ** 2)
                    / (2.0 * width * width)
                )
            bump = bump * profile
        bump = amplitude * bump
        chi_re = bump
        chi_re_t = (C_LIGHT / width) * (bump - float(np.mean(bump)))
        phi = space.solve_poisson(chi_re_t / C_LIGHT)
        e = -space.grad(phi)
    elif kind == "chi_planewave":
        kvec = _mode_kvec(grid, params.get("k", [0, 0, 1] if grid.dims == 3 else [1]))
        amplitude = float(params.get("amplitude", 1.0))
        knorm = float(np.linalg.norm(kvec))
        if knorm == 0.0:
            raise ChiMaxwellError("chi_planewave requires a nonzero mode")
        phase = _plane_phase(space, kvec)
        chi_re = amplitude * phase.real
        chi_re_t = amplitude * C_LIGHT * knorm * phase.imag  # d/dt cos(k.x - ckt) at t=0
        phi = space.solve_poisson(chi_re_t / C_LIGHT)
        e = -space.grad(phi)
    elif kind == "custom":
        def take(name, target):
            value = params.get(name)
            if value is None:
                return target
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != target.shape:
                raise ChiMaxwellError(f"custom field {name!r} has shape {arr.shape}, "
                                 f"expected {target.shape}")
            return arr.copy()

        e = take("e", e)
        b = take("b", b)
        chi_re = take("chi_re", chi_re)
        chi_im = take("chi_im", chi_im)
        chi_re_t = take("chi_re_t", chi_re_t)
        chi_im_t = take("chi_im_t", chi_im_t)
    else:
        raise ChiMaxwellError(f"unknown scenario type {kind!r}")

    if chi_mode == "real" and (np.any(chi_im != 0.0) or np.any(chi_im_t != 0.0)):
        raise InconsistentScenario(
            "Im(chi) is nonzero; magnetic-source mode needs chi_mode='complex'"
        )

    state = FieldState(grid, 0.0, e, b, chi_re, chi_im, chi_re_t, chi_im_t)
    ge, gb = _gauss_residuals(space, state)
    # Written so that a NaN residual (non-finite input data) is rejected too.
    if not (ge <= 1e-8 and gb <= 1e-8):
        raise InconsistentScenario(
            f"initial data violates the divergence constraints "
            f"(gauss_e={ge:.3e}, gauss_b={gb:.3e}; each must be <= 1e-8)"
        )
    return state


def _check_cfl(grid: Grid, dt: float) -> None:
    bound = cfl_bound(grid)
    if abs(dt) > bound * (1.0 + 1e-12):
        raise CFLViolation(f"|dt| = {abs(dt):.6g} exceeds the bound {bound:.6g}")


class _Propagator:
    """s RK4 steps as one jump of the spectra of psi = E - iB, chi and chi_t.

    Per bin (p = k, E = i d/dt) the operator is (E + S.p) psi = p chi, that
    is dpsi/dt = -k x psi - i k chi, where -k^ x = i (S.k^) squares to -1
    on the part psi_T of psi transverse to k^ = k/|k|; (chi, chi_t) rotate
    at frequency |k| and k^.psi - i chi_t/|k| stays fixed.  So s steps
    multiply by rho = r(i theta)^s, r(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    theta = |k| dt, C = Re rho, Sn = Im rho:

        chi   <- C chi + (Sn/|k|) chi_t
        chi_t <- -|k| Sn chi + C chi_t              (chi_t' below)
        psi   <- C psi_T - Sn k^ x psi + k^ (k^.psi + i (chi_t' - chi_t)/|k|)

    At k = 0, psi and chi_t stay put and chi <- chi + s dt chi_t.

    The full spectra live on two rfftn half-grids: psi, chi, chi_t, and
    those of their conjugates (E + iB, ...), which turn the other way
    (Sn -> -Sn).  Built from the real fields' rfftn, the pair keeps real
    fields exactly real, so a field that is zero stays exactly zero.
    """

    def __init__(self, grid: Grid):
        self.space = SpectralSpace(grid)
        self.kabs = np.sqrt(self.space.k2)
        self.inv_k = np.divide(1.0, self.kabs, out=np.zeros_like(self.kabs),
                               where=self.kabs > 0)
        self.khat = [ka * self.inv_k for ka in self.space.k]

    def spectra(self, state: FieldState):
        """((psi, chi, chi_t), (their conjugates)) spectra of a state."""
        e, b, re, im, re_t, im_t = (self.space.fwd(getattr(state, name))
                                    for name in SNAPSHOT_FIELDS)
        return ((e - 1j * b, re + 1j * im, re_t + 1j * im_t),
                (e + 1j * b, re - 1j * im, re_t - 1j * im_t))

    def state(self, spectra, t: float) -> FieldState:
        """Real-space state at time t from the pair of spectra (B = -Im psi)."""
        (psi, chi, chi_t), (psi_c, chi_c, chi_t_c) = spectra
        inv = self.space.inv
        return FieldState(
            self.space.grid, t, inv(0.5 * (psi + psi_c)), inv(0.5j * (psi - psi_c)),
            inv(0.5 * (chi + chi_c)), inv(-0.5j * (chi - chi_c)),
            inv(0.5 * (chi_t + chi_t_c)), inv(-0.5j * (chi_t - chi_t_c)))

    def factors(self, s: int, dt: float) -> tuple[np.ndarray, ...]:
        """(C, Sn, Sn/|k|, |k| Sn) for s steps of length dt; Sn/|k| takes
        its k -> 0 limit s dt in the k = 0 bin."""
        theta = self.kabs * dt
        th2 = theta * theta
        rho = ((1.0 - th2 / 2.0 + th2 * th2 / 24.0)
               + 1j * theta * (1.0 - th2 / 6.0)) ** s
        c, sn = rho.real.copy(), rho.imag.copy()
        return c, sn, np.where(self.kabs > 0, sn * self.inv_k, s * dt), self.kabs * sn

    def jump(self, spectra, factors):
        """The pair advanced by the steps `factors` was built for."""
        c, sn, sn_over_k, k_sn = factors
        kx, ky, kz = self.khat
        out = []
        for (psi, chi, chi_t), turn in zip(spectra, (sn, -sn)):
            chi_new = c * chi + sn_over_k * chi_t
            chi_t_new = c * chi_t - k_sn * chi
            long = kx * psi[0] + ky * psi[1] + kz * psi[2]
            # new longitudinal part less the C k^ (k^.psi) that C psi carries
            shift = (1.0 - c) * long + 1j * self.inv_k * (chi_t_new - chi_t)
            psi_new = np.empty_like(psi)
            psi_new[0] = c * psi[0] - turn * (ky * psi[2] - kz * psi[1]) + kx * shift
            psi_new[1] = c * psi[1] - turn * (kz * psi[0] - kx * psi[2]) + ky * shift
            psi_new[2] = c * psi[2] - turn * (kx * psi[1] - ky * psi[0]) + kz * shift
            out.append((psi_new, chi_new, chi_t_new))
        return tuple(out)


def step(state: FieldState, dt: float) -> FieldState:
    """Advance one RK4 step of length dt (dt may be negative: the scheme is
    reversible to its accuracy order).  Raises CFLViolation beyond the bound."""
    _check_cfl(state.grid, dt)
    prop = _Propagator(state.grid)
    spectra = prop.jump(prop.spectra(state), prop.factors(1, dt))
    return prop.state(spectra, state.t + dt)


def _gauss_residuals(space: SpectralSpace, state: FieldState) -> tuple[float, float]:
    ge = _rms(space.div(state.e) + state.chi_re_t / C_LIGHT)
    gb = _rms(space.div(state.b) - state.chi_im_t / C_LIGHT)
    return ge, gb


def diagnostics(state: FieldState) -> Diagnostics:
    """Constraint residuals (grid RMS), discrete identity checks, and energy.

    With the current-density reading j ~ grad Re(chi), rho ~ -(1/c^2) d/dt
    Re(chi), the two identities below are the curl-free and continuity
    equations of that pair; both are identically zero in the continuum and
    measure pure discretization roundoff here:

    * curl_j_residual     = RMS( curl grad Re(chi) )
    * continuity_residual = RMS( (1/c^2) d/dt grad Re(chi) + grad rho )

    energy = (1/2) Integral (E^2 + B^2 + Re(chi)^2 + Im(chi)^2) dV, which the
    evolution conserves on the constraint surface.
    """
    space = SpectralSpace(state.grid)
    c = C_LIGHT
    ge, gb = _gauss_residuals(space, state)
    current = space.grad(state.chi_re)
    curl_j = _rms(space.curl(current))
    d_current_dt = space.grad(state.chi_re_t)
    grad_rho = space.grad(-(state.chi_re_t / c)) / c
    continuity = _rms(d_current_dt / (c * c) + grad_rho)
    density = (
        np.sum(state.e**2, axis=0)
        + np.sum(state.b**2, axis=0)
        + state.chi_re**2
        + state.chi_im**2
    )
    energy = 0.5 * float(np.mean(density)) * state.grid.volume
    return Diagnostics(state.t, ge, gb, curl_j, continuity, energy)


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

    dt defaults to the CFL bound; the actual step is t_end / n_steps with
    n_steps = ceil(t_end / dt), so the run lands on t_end exactly.
    output_every = k records every k-th step (plus t = 0 and the final step);
    output_every = 0 records endpoints only.  Deterministic given inputs.
    The steps between two outputs are taken as one jump of the propagator
    (see _Propagator), so the cost grows with the number of outputs.

    When out_dir is given, snapshots (.bin + .json sidecar) and a
    diagnostics.csv time series are written there.  keep_snapshots=False
    drops intermediate snapshots from the returned list (initial and final
    states are always kept) -- useful for dense diagnostics on large grids.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ChiMaxwellError("t_end must be positive and finite")
    if dt is None:
        dt = cfl_bound(grid)
    elif not dt > 0:
        raise ChiMaxwellError("dt must be positive")
    n_steps = max(1, math.ceil(t_end / dt - 1e-9))
    dt_eff = t_end / n_steps
    _check_cfl(grid, dt_eff)

    state0 = init_state(grid, scenario, chi_mode=chi_mode)
    prop = _Propagator(grid)
    spectra = prop.spectra(state0)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    diags: list[Diagnostics] = []
    snapshots: list[FieldState] = []

    def record(state: FieldState, index: int) -> None:
        diags.append(diagnostics(state))
        if keep_snapshots or index in (0, n_steps):
            snapshots.append(state)
        if out_path is not None:
            save_snapshot(state, out_path / f"snapshot_{index:06d}")

    record(state0, 0)
    every = min(output_every, n_steps) if output_every > 0 else n_steps
    factors = prop.factors(every, dt_eff)
    for i in range(every, n_steps + 1, every):
        spectra = prop.jump(spectra, factors)
        record(prop.state(spectra, i * dt_eff), i)
    if n_steps % every:  # a shorter last jump lands on t_end
        spectra = prop.jump(spectra, prop.factors(n_steps % every, dt_eff))
        record(prop.state(spectra, n_steps * dt_eff), n_steps)

    if out_path is not None:
        write_diagnostics_csv(out_path / "diagnostics.csv", diags)
    return snapshots[-1], diags, snapshots


def save_snapshot(state: FieldState, path_base: str | Path) -> None:
    """Write <base>.bin (flat little-endian float64, C order, fields in
    SNAPSHOT_FIELDS order) plus a <base>.json sidecar with the layout."""
    base = Path(path_base)
    parts = [np.ascontiguousarray(getattr(state, name), dtype="<f8").ravel()
             for name in SNAPSHOT_FIELDS]
    np.concatenate(parts).tofile(base.with_suffix(".bin"))
    header = {
        "format": "chimaxwell-snapshot-v1",
        "time": state.t,
        "grid": {"n": state.grid.n, "length": state.grid.length, "dims": state.grid.dims},
        "fields": list(SNAPSHOT_FIELDS),
        "components": {"e": 3, "b": 3, "chi_re": 1, "chi_im": 1, "chi_re_t": 1, "chi_im_t": 1},
        "dtype": "float64",
        "endianness": "little",
        "order": "C",
    }
    base.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))


def load_snapshot(path_base: str | Path) -> FieldState:
    """Inverse of save_snapshot; bit-faithful round trip."""
    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    grid = Grid(**header["grid"])
    bin_path = base.with_suffix(".bin")
    raw = np.fromfile(bin_path, dtype="<f8")
    cells = int(np.prod(grid.shape))
    expected = cells * sum(header["components"][name] for name in header["fields"])
    if raw.size != expected:
        raise ChiMaxwellError(f"{bin_path} holds {raw.size} float64 values; "
                              f"its header implies {expected}")
    arrays = {}
    offset = 0
    for name in header["fields"]:
        comps = header["components"][name]
        count = comps * cells
        block = raw[offset:offset + count]
        shape = (3, *grid.shape) if comps == 3 else grid.shape
        arrays[name] = block.reshape(shape).copy()
        offset += count
    return FieldState(grid, float(header["time"]), **arrays)


def write_diagnostics_csv(path: str | Path, diags: list[Diagnostics]) -> None:
    """CSV time series: t, gauss_e, gauss_b, curl_j, continuity, energy.
    Floats are written with repr for exact round trips."""
    lines = ["t,gauss_e,gauss_b,curl_j,continuity,energy"]
    for d in diags:
        lines.append(",".join(repr(float(v)) for v in (
            d.t, d.gauss_e_residual, d.gauss_b_residual,
            d.curl_j_residual, d.continuity_residual, d.energy,
        )))
    Path(path).write_text("\n".join(lines) + "\n")
