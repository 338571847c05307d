"""The four benchmark workloads: inputs from a seed, one operation, one gate.

Each workload object is built in the measuring process after `chimaxwell`
is imported (that construction is the set-up the benchmark times).  Its
`op()` is the timed call into the library; `check(result)` is the
correctness gate, run after the clock stops; `cleanup(result)` releases what
the op left on disk.  An op counts only when `check` returns True.

Every gate compares against an independent oracle (a closed-form solution,
file sizes implied by a header, the report of an earlier op), never against
the output bits of a particular library version, so changes at roundoff
level and an exact integrator both pass.  Gates are written so that NaN
fails them: every comparison is `not (x <= tol)` or `np.isfinite`, never
`x > tol`.

The seed chooses mode numbers, helicity, Gaussian centres and RNG draws,
never the amount of work: grid sizes, step counts and output counts are
fixed here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from chimaxwell import chi_solver, cli, verify

TWO_PI = 2.0 * math.pi


def _finite_le(value, tol: float) -> bool:
    """True only for a finite value at most tol; NaN and inf give False."""
    value = float(value)
    return bool(np.isfinite(value)) and value <= tol


def _wavevectors(n: int, length: float) -> list[np.ndarray]:
    """Broadcastable (kx, ky, kz) on the 3-D rfft half-grid, built here
    rather than taken from the library so the oracle does not share the
    solver's tables."""
    kfull = TWO_PI * np.fft.fftfreq(n, d=length / n)
    khalf = TWO_PI * np.fft.rfftfreq(n, d=length / n)
    return [kfull.reshape(n, 1, 1), kfull.reshape(1, n, 1), khalf.reshape(1, 1, -1)]


def _periodic_gaussian(n: int, length: float, width: float,
                       centre: list[float]) -> np.ndarray:
    """Image-summed 3-D Gaussian on the periodic box (five images per axis)."""
    x = np.arange(n) * (length / n)
    profiles = [sum(np.exp(-((x - c + m * length) ** 2) / (2.0 * width * width))
                    for m in range(-2, 3))
                for c in centre]
    return np.einsum("i,j,k->ijk", *profiles)


def _free_wave(chi0: np.ndarray, chi_t0: np.ndarray, t: float,
               length: float) -> np.ndarray:
    """chi(t) of chi_tt = lap chi, mode by mode:
    chi_h cos(|k| t) + chi_t_h sin(|k| t) / |k|  (chi_h + t chi_t_h at k = 0)."""
    kx, ky, kz = _wavevectors(chi0.shape[0], length)
    kabs = np.sqrt(kx * kx + ky * ky + kz * kz)
    safe_k = np.where(kabs > 0, kabs, 1.0)
    sinc_t = np.where(kabs > 0, np.sin(kabs * t) / safe_k, t)
    out_h = np.fft.rfftn(chi0) * np.cos(kabs * t) + np.fft.rfftn(chi_t0) * sinc_t
    return np.fft.irfftn(out_h, s=chi0.shape)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2)))


def _spectral_div(v: np.ndarray, length: float) -> np.ndarray:
    """Divergence of a (3, n, n, n) field by Fourier multipliers."""
    k = _wavevectors(v.shape[-1], length)
    div_h = sum(1j * k[a] * np.fft.rfftn(v[a]) for a in range(3))
    return np.fft.irfftn(div_h, s=v.shape[1:])


class Propagate:
    """Stepping does >~95 % of the work, with only 2 diagnostics samples.
    This is the workload that shows a propagator change (ROADMAP item 2) and
    shows that diagnostics work does not matter.

    One op: chi_solver.run on a 3-D n=64 vacuum_planewave, default CFL dt,
    32 steps, output_every=0, keep_snapshots=False, no out_dir.  At 32 steps
    run's own time (stepping plus FFT pack/unpack) measured ~91 % of the op;
    95 % would take ~80 steps, ~10 s an op, too few ops for a steady median.
    """

    name = "propagate"
    N = 64
    STEPS = 32
    L2_TOL = 1e-6      # criterion 07
    GAUSS_TOL = 1e-8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # Every mode has |m|^2 = 2, so the RK4 phase error and the work are
        # the same for every seed; only direction and helicity change.
        modes = [m for m in np.ndindex(3, 3, 3)
                 if sum((c - 1) ** 2 for c in m) == 2]
        mode = [c - 1 for c in modes[int(rng.integers(len(modes)))]]
        self.helicity = int(rng.choice([-1, 1]))
        self.chi_solver = chi_solver
        self.grid = chi_solver.Grid(self.N, TWO_PI, dims=3)
        self.scenario = {"type": "vacuum_planewave",
                         "params": {"k": mode, "helicity": self.helicity,
                                    "amplitude": 1.0}}
        self.kvec = TWO_PI * np.array(mode, dtype=float) / self.grid.length
        self.t_end = self.STEPS * chi_solver.cfl_bound(self.grid)
        self.cells = self.N**3
        self.steps = self.STEPS

    def op(self):
        return self.chi_solver.run(self.grid, self.scenario, self.t_end,
                                   output_every=0, keep_snapshots=False)

    def check(self, result) -> bool:
        final, diags, snaps = result
        init = snaps[0]
        n, length = self.grid.n, self.grid.length
        x = np.arange(n) * (length / n)
        phase = np.exp(1j * (self.kvec[0] * x[:, None, None]
                             + self.kvec[1] * x[None, :, None]
                             + self.kvec[2] * x[None, None, :]))
        # The initial data must be the closed-form wave c e^{ik.x}: a
        # transverse, unit, helicity eigenvector (i k^ x c = h c).
        psi0 = init.e - 1j * init.b
        c = np.mean(psi0 * np.conj(phase), axis=(1, 2, 3))
        khat = self.kvec / np.linalg.norm(self.kvec)
        form = _rel_l2(psi0, c[:, None, None, None] * phase)
        transverse = abs(np.dot(khat, c))
        helical = float(np.linalg.norm(1j * np.cross(khat, c) - self.helicity * c))
        unit = abs(float(np.linalg.norm(c)) - 1.0)
        # psi = E - iB obeys dpsi/dt = i curl psi, so the wave turns by
        # e^{i h |k| t}.
        omega = self.helicity * float(np.linalg.norm(self.kvec))
        exact = c[:, None, None, None] * phase * np.exp(1j * omega * final.t)
        l2 = math.sqrt(float(np.sum((final.e - exact.real) ** 2
                                    + (final.b + exact.imag) ** 2))
                       / float(np.sum(exact.real**2 + exact.imag**2)))
        # Each value is gated on its own: max() drops a NaN that is not its
        # first argument.
        gauss = [float(np.sqrt(np.mean(_spectral_div(f, length) ** 2)))
                 for f in (final.e, final.b)]
        gauss += [v for d in diags for v in (d.gauss_e_residual, d.gauss_b_residual)]
        return (
            _finite_le(abs(final.t - self.t_end), 1e-12 * self.t_end)
            and _finite_le(form, 1e-12)
            and _finite_le(transverse, 1e-12)
            and _finite_le(helical, 1e-12)
            and _finite_le(unit, 1e-12)
            and _finite_le(l2, self.L2_TOL)
            and all(_finite_le(v, self.GAUSS_TOL) for v in gauss)
        )

    def cleanup(self, result) -> None:
        pass


class Monitor:
    """This is the diagnostics-bound case.  At 64^3 one step plus one sample
    measured ~130 ms RK4 + ~52 ms unpack + ~150 ms `diagnostics()`.  Nothing
    is written, so a "skip unpack unless writing" change (ROADMAP item 3)
    shows its gain here.

    One op: chi_solver.run on a 3-D n=64 chi_gaussian (width L/16,
    criterion 08's scenario), CFL dt, 6 steps, output_every=1,
    keep_snapshots=False, no out_dir: 7 diagnostics samples.
    """

    name = "monitor"
    N = 64
    STEPS = 6
    # Criterion 08's bounds on every sample.
    GAUSS_TOL, CURL_J_TOL, CONTINUITY_TOL = 1e-8, 1e-12, 1e-9
    # Final chi_re against the per-mode free-wave solution.  RK4 at the CFL
    # step leaves a relative L2 error of 7.96e-7 at seeds 0-2 (the same at
    # every centre; halving dt cuts it 14.5x, so it is truncation error).
    # The bound is 5x that; an exact integrator leaves ~1e-15.
    CHI_TOL = 4e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.chi_solver = chi_solver
        self.grid = chi_solver.Grid(self.N, TWO_PI, dims=3)
        self.width = self.grid.length / 16.0
        self.centre = [float(v) for v in rng.uniform(0.0, self.grid.length, 3)]
        self.scenario = {"type": "chi_gaussian",
                         "params": {"width": self.width, "amplitude": 1.0,
                                    "center": self.centre}}
        self.t_end = self.STEPS * chi_solver.cfl_bound(self.grid)
        self.cells = self.N**3
        self.steps = self.STEPS
        self._expected = None

    def op(self):
        return self.chi_solver.run(self.grid, self.scenario, self.t_end,
                                   output_every=1, keep_snapshots=False)

    def expected_chi(self) -> np.ndarray:
        """chi_re at t_end from the closed-form initial data, computed on the
        first check and kept."""
        if self._expected is None:
            g = self.grid
            chi0 = _periodic_gaussian(g.n, g.length, self.width, self.centre)
            chi_t0 = (chi0 - np.mean(chi0)) / self.width
            self._expected = _free_wave(chi0, chi_t0, self.t_end, g.length)
        return self._expected

    def check(self, result) -> bool:
        final, diags, _ = result
        if len(diags) != self.STEPS + 1:
            return False
        for d in diags:
            if not (_finite_le(d.gauss_e_residual, self.GAUSS_TOL)
                    and _finite_le(d.gauss_b_residual, self.GAUSS_TOL)
                    and _finite_le(d.curl_j_residual, self.CURL_J_TOL)
                    and _finite_le(d.continuity_residual, self.CONTINUITY_TOL)
                    and np.isfinite(d.energy)):
                return False
        err = _rel_l2(final.chi_re, self.expected_chi())
        return (_finite_le(abs(final.t - self.t_end), 1e-12 * self.t_end)
                and _finite_le(err, self.CHI_TOL))

    def cleanup(self, result) -> None:
        pass


class Simulate1D:
    """This is the only workload through `cli`, `save_snapshot` and
    `write_diagnostics_csv`.  Every output must be unpacked and written, so a
    no-unpack shortcut cannot help here.  The propagator is dispatch-bound on
    small arrays instead of bandwidth-bound.  Measured ~2.3 s/op: `run`
    1.29 s (stepping ~1.0 s, diagnostics 0.18 s, snapshots 0.07 s) and `cli`
    self time ~1.0 s, mostly profile CSVs.

    One op: cli.main(["simulate", ..., "--format", "csv"]) from a JSON
    config: a 1-D n=1024 chi_gaussian, t_end = L, output_every=16, which is
    2048 steps and 129 outputs.  Output goes to a per-op temporary directory
    that cleanup deletes.
    """

    name = "simulate_1d"
    N = 1024
    OUTPUT_EVERY = 16
    STEPS = 2048
    OUTPUTS = STEPS // OUTPUT_EVERY + 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cli = cli
        self.workdir = workdir
        length = TWO_PI
        config = {
            "grid": {"n": self.N, "L": length, "dims": 1},
            "scenario": {"type": "chi_gaussian",
                         "params": {"width": length / 16.0, "amplitude": 1.0,
                                    "center": [float(rng.uniform(0.0, length))]}},
            "t_end": length,
            "output_every": self.OUTPUT_EVERY,
        }
        self.config_path = workdir / "simulate_1d.json"
        self.config_path.write_text(json.dumps(config))
        self.cells = self.N
        self.steps = self.STEPS

    def op(self):
        out = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["simulate", "--config", str(self.config_path),
                                "--out", str(out), "--format", "csv"])
        return rc, out

    def check(self, result) -> bool:
        rc, out = result
        if rc != 0:
            return False
        rows = (out / "diagnostics.csv").read_text().splitlines()
        if len(rows) != self.OUTPUTS + 1:
            return False
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        if not np.all(np.isfinite(values)):
            return False
        headers = sorted(out.glob("snapshot_*.json"))
        if len(headers) != self.OUTPUTS:
            return False
        for header_path in headers:
            header = json.loads(header_path.read_text())
            g = header["grid"]
            count = sum(header["components"][f] for f in header["fields"]) * g["n"] ** g["dims"]
            data = np.fromfile(header_path.with_suffix(".bin"), dtype="<f8")
            if data.size != count or not np.all(np.isfinite(data)):
                return False
        if len(list(out.glob("profile_*.csv"))) != self.OUTPUTS:
            return False

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        return isinstance(summary, dict)

    def bytes_written(self, result) -> tuple[int, int]:
        """(all bytes under the op's directory, bytes of snapshot files)."""
        _, out = result
        sizes = {p.name: p.stat().st_size for p in out.iterdir()}
        return (sum(sizes.values()),
                sum(s for name, s in sizes.items() if name.startswith("snapshot_")))

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


class Verify:
    """This is the only workload for `spin_algebra`, `planewaves` and
    `polarization`.  It is pure Python over 3x3 arrays and bound by per-call
    overhead, the opposite regime from the solver.  Measured 0.9-1.5 s/op in
    one process.  That spread is why the medians must cover several ops.

    One op: verify.run_verification(seed, trials=1000).
    """

    name = "verify"
    TRIALS = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.verify = verify
        self.cells = 0
        self.steps = 0
        self.reference = None

    def op(self):
        return self.verify.run_verification(self.seed, self.TRIALS)

    def digest(self, report) -> str:
        text = json.dumps(report.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, report) -> bool:
        if not report.overall_pass or not report.checks:
            return False
        for c in report.checks:
            if not (c.passed and _finite_le(c.residual, c.tolerance)):
                return False
        digest = self.digest(report)
        if self.reference is None:
            self.reference = digest
        return digest == self.reference

    def cleanup(self, result) -> None:
        pass


WORKLOADS = {w.name: w for w in (Propagate, Monitor, Simulate1D, Verify)}
