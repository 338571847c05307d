"""Pseudo-spectral solver: constraints, oracles, reversibility, IO."""

import json
import weakref

import numpy as np
import pytest

from chimaxwell import chi_solver
from chimaxwell.chi_solver import (
    C_LIGHT,
    Diagnostics,
    FieldState,
    Grid,
    SpectralSpace,
    cfl_bound,
    diagnostics,
    init_state,
    load_snapshot,
    run,
    save_snapshot,
    step,
    write_diagnostics_csv,
)
from chimaxwell.errors import CFLViolation, ChiMaxwellError, InconsistentScenario
from chimaxwell.planewaves import helicity_eigenvector
from chimaxwell.spin_algebra import spin_dot_p

TWO_PI = 2.0 * np.pi


def vacuum_scenario(modes, helicity=-1, amplitude=1.0):
    return {"type": "vacuum_planewave",
            "params": {"k": modes, "helicity": helicity, "amplitude": amplitude}}


def gaussian_scenario(width, amplitude=1.0):
    return {"type": "chi_gaussian", "params": {"width": width, "amplitude": amplitude}}


def nan_field(shape):
    f = np.zeros(shape)
    f.flat[f.size // 2] = np.nan
    return f


def state_norm(state):
    return np.sqrt(np.mean(state.e**2 + state.b**2)
                   + np.mean(state.chi_re**2 + state.chi_im**2)
                   + np.mean(state.chi_re_t**2 + state.chi_im_t**2))


def state_distance(a, b):
    return np.sqrt(
        np.mean((a.e - b.e)**2 + (a.b - b.b)**2)
        + np.mean((a.chi_re - b.chi_re)**2 + (a.chi_im - b.chi_im)**2)
        + np.mean((a.chi_re_t - b.chi_re_t)**2 + (a.chi_im_t - b.chi_im_t)**2)
    )


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(12, 1.0, dims=1)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            Grid(4, 1.0, dims=1)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Grid(16, 1.0, dims=2)

    def test_cfl_formula(self):
        g = Grid(64, TWO_PI, dims=3)
        assert cfl_bound(g) == pytest.approx(0.5 * g.dx / (C_LIGHT * np.sqrt(3.0)))


class TestSpectralOperators:
    def band_limited_field(self, space, seed):
        # random field supported on low modes only
        rng = np.random.default_rng(seed)
        f = np.zeros(space.grid.shape)
        coords = space.coordinates()
        for _ in range(5):
            m = rng.integers(-4, 5, 3)
            kvec = 2 * np.pi * m / space.grid.length
            phase = kvec[0] * coords[0] + kvec[1] * coords[1] + kvec[2] * coords[2]
            f = f + rng.normal() * np.cos(phase + rng.uniform(0, TWO_PI))
        return f

    @pytest.mark.parametrize("dims", [1, 3])
    def test_rot_grad_is_machine_zero(self, dims):
        g = Grid(32 if dims == 3 else 256, TWO_PI, dims=dims)
        space = SpectralSpace(g)
        f = self.band_limited_field(space, 30 + dims)
        residual = np.sqrt(np.mean(np.abs(space.curl(space.grad(f)))**2))
        assert residual <= 1e-12

    def test_div_curl_is_machine_zero(self):
        g = Grid(32, TWO_PI, dims=3)
        space = SpectralSpace(g)
        v = np.stack([self.band_limited_field(space, 40 + i) for i in range(3)])
        assert np.sqrt(np.mean(space.div(space.curl(v))**2)) <= 1e-12

    def test_poisson_solve_inverts_laplacian(self):
        g = Grid(32, TWO_PI, dims=3)
        space = SpectralSpace(g)
        f = self.band_limited_field(space, 50)
        f -= f.mean()
        phi = space.solve_poisson(f)
        assert np.max(np.abs(space.laplacian(phi) - f)) <= 1e-11
        assert abs(phi.mean()) <= 1e-13

    def test_spectral_derivative_exact_for_single_mode(self):
        g = Grid(64, TWO_PI, dims=1)
        space = SpectralSpace(g)
        z = space.coordinates()[2]
        f = np.sin(3 * z)
        assert np.max(np.abs(space.grad(f)[2] - 3 * np.cos(3 * z))) <= 1e-12


class TestInitState:
    def test_vacuum_planewave_constraints(self):
        g = Grid(32, TWO_PI, dims=3)
        state = init_state(g, vacuum_scenario([0, 0, 1]))
        d = diagnostics(state)
        assert d.gauss_e_residual <= 1e-12
        assert d.gauss_b_residual <= 1e-12

    def test_gaussian_poisson_oracle(self):
        # independent check: div E must equal -(1/c) d/dt chi_re pointwise
        g = Grid(64, TWO_PI, dims=1)
        state = init_state(g, gaussian_scenario(TWO_PI / 16))
        space = SpectralSpace(g)
        lhs = space.div(state.e)
        rhs = -state.chi_re_t / C_LIGHT
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_custom_monopole_data_rejected(self):
        g = Grid(16, TWO_PI, dims=1)
        z = SpectralSpace(g).coordinates()[2]
        b = np.zeros((3, g.n))
        b[2] = np.sin(z)  # div B != 0 with Im chi = 0
        with pytest.raises(InconsistentScenario):
            init_state(g, {"type": "custom", "params": {"b": b}})

    def test_complex_chi_needs_flag(self):
        g = Grid(16, TWO_PI, dims=1)
        chi_im = 0.1 * np.ones(g.n)
        scenario = {"type": "custom", "params": {"chi_im": chi_im}}
        with pytest.raises(InconsistentScenario):
            init_state(g, scenario, chi_mode="real")
        state = init_state(g, scenario, chi_mode="complex")
        assert np.all(state.chi_im == 0.1)

    def test_unknown_scenario_type(self):
        with pytest.raises(ValueError):
            init_state(Grid(16, 1.0, dims=1), {"type": "nope"})

    @pytest.mark.parametrize("scenario, chi_mode", [
        ({"type": "custom", "params": {"e": nan_field((3, 16))}}, "real"),
        ({"type": "custom", "params": {"chi_im_t": nan_field(16)}}, "complex"),
        (vacuum_scenario([1], amplitude=float("nan")), "real"),
        (gaussian_scenario(5e-324), "real"),  # 2 width^2 underflows to 0
    ], ids=["nan-in-e", "nan-in-chi_im_t", "nan-amplitude", "tiny-width"])
    def test_non_finite_data_rejected(self, scenario, chi_mode):
        # a NaN residual must fail the constraint gate, not slip past it
        with pytest.raises(InconsistentScenario):
            init_state(Grid(16, TWO_PI, dims=1), scenario, chi_mode=chi_mode)

    @pytest.mark.parametrize("kind, params", [
        ("chi_gaussian", {"width": None}),
        ("chi_gaussian", {"amplitude": 2**64}),
        ("chi_gaussian", {"center": [[1.0], [2.0, 3.0]]}),
        ("chi_gaussian", {"center": {"z": 1.0}}),
        ("chi_planewave", {"k": [-2**63 - 1]}),
        ("vacuum_planewave", {"helicity": np.True_}),
        ("custom", {"e": [[0.0] * 16, [0.0] * 16, [0.0] * 15]}),
        ("custom", {"chi_re": [None] * 16}),
        ("custom", {"chi_re_t": [False] * 16}),
        ("custom", {"e": [[0.0] * 16, [0.0] * 16, [0.0] * 15 + [True]]}),
        ("custom", {"chi_re": [0.5] * 15 + [np.True_]}),
        ("custom", {"b": [np.zeros(16), np.zeros(16), np.zeros(16, dtype=bool)]}),
    ], ids=["none", "int-beyond-uint64", "ragged-center", "object-center",
            "int-below-int64", "numpy-bool-helicity", "ragged-custom-field",
            "custom-field-of-none", "custom-field-of-bools", "bool-deep-in-custom-field",
            "numpy-bool-among-custom-numbers", "bool-array-in-custom-field"])
    def test_params_take_numbers_only(self, kind, params):
        with pytest.raises(ChiMaxwellError, match="scenario param|custom field"):
            init_state(Grid(16, TWO_PI, dims=1), {"type": kind, "params": params})

    def test_numpy_inputs_from_python_callers_run(self):
        g = Grid(16, TWO_PI, dims=3)
        gaussian = init_state(g, gaussian_scenario(np.float64(TWO_PI / 8)))
        assert np.array_equal(gaussian.e, init_state(g, gaussian_scenario(TWO_PI / 8)).e)
        wave = init_state(g, vacuum_scenario(np.array([1, 0, 2], dtype=np.int64)))
        assert np.array_equal(wave.e, init_state(g, vacuum_scenario([1, 0, 2])).e)
        chi_re = np.full(g.shape, 0.25, dtype=np.float32)
        custom = init_state(g, {"type": "custom", "params": {"chi_re": chi_re}})
        assert custom.chi_re.dtype == np.float64 and np.all(custom.chi_re == 0.25)

    @pytest.mark.parametrize("dims", [1, 3])
    @pytest.mark.parametrize("kind, defined", [
        ("vacuum_planewave", {"e", "b"}),
        ("chi_gaussian", {"e", "chi_re", "chi_re_t"}),
        ("chi_planewave", {"e", "chi_re", "chi_re_t"}),
        ("custom", {"chi_re"}),
    ])
    def test_left_out_fields_are_positive_zero(self, kind, defined, dims):
        g = Grid(16, TWO_PI, dims=dims)
        params = {"custom": {"chi_re": np.full(g.shape, 0.5)},
                  "chi_gaussian": {"width": TWO_PI / 8}}.get(kind, {})
        state = init_state(g, {"type": kind, "params": params})
        for name in chi_solver.SNAPSHOT_FIELDS:
            f = getattr(state, name)
            assert f.dtype == np.float64
            assert f.shape == ((3, *g.shape) if name in ("e", "b") else g.shape)
            if name not in defined:
                assert not np.any(f.view(np.uint64)), name  # +0.0 bits only

    @pytest.mark.parametrize("dims, modes, amplitude", [
        (3, [1, 0, 2], 0.75), (3, [-1, 1, 1], 1.0), (1, [3], 1.25)])
    def test_chi_planewave_closed_form_at_t0(self, dims, modes, amplitude):
        # E = A k^ cos(k.x), d/dt chi = A |k| sin(k.x), B = 0, from the
        # coordinates directly rather than from the builder's phase.  The
        # builder writes E from the same cosine, with no transform, so E is
        # held to the bound of d/dt chi.
        g = Grid(16, TWO_PI, dims=dims)
        state = init_state(g, {"type": "chi_planewave",
                               "params": {"k": modes, "amplitude": amplitude}})
        k = 2.0 * np.pi * np.array(([0, 0] + modes) if dims == 1 else modes) / g.length
        x = np.arange(g.n) * g.dx
        if dims == 3:
            kx = (k[0] * x[:, None, None] + k[1] * x[None, :, None]
                  + k[2] * x[None, None, :])
        else:
            kx = k[2] * x
        knorm = np.sqrt(np.sum(k * k))
        for a in range(3):
            assert np.max(np.abs(state.e[a] - amplitude * (k[a] / knorm) * np.cos(kx))) <= 1e-15
        assert np.max(np.abs(state.chi_re - amplitude * np.cos(kx))) <= 1e-14
        assert np.max(np.abs(state.chi_re_t - amplitude * knorm * np.sin(kx))) <= 1e-15
        assert not np.any(state.b)


    @pytest.mark.parametrize("dims, n", [(1, 8), (1, 16), (3, 16)])
    def test_default_gaussian_passes_the_gate_on_coarse_grids(self, dims, n):
        # The default width L/16 is at most one cell here.  A Gaussian with
        # no Nyquist content meets the electric constraint bin by bin.
        g = Grid(n, TWO_PI, dims=dims)
        _, diags, _ = run(g, {"type": "chi_gaussian"}, 2 * cfl_bound(g))
        assert diags[0].gauss_e_residual <= 1e-15
        assert diags[0].gauss_b_residual == 0.0

    @pytest.mark.parametrize("dims, n, width, center", [
        (3, 32, TWO_PI / 8, [1.1, 2.7, 4.3]), (1, 64, TWO_PI / 10, [2.2])])
    def test_resolved_gaussian_matches_its_image_sum(self, dims, n, width, center):
        # chi is the Gaussian summed over 7 images per axis, sampled on the
        # grid; d/dt chi is (chi - mean) / width, and E the spectral
        # gradient field with div E = -d/dt chi, built here through
        # SpectralSpace's own Poisson solve and gradient.
        g = Grid(n, TWO_PI, dims=dims)
        amplitude = 0.8
        state = init_state(g, {"type": "chi_gaussian", "params": {
            "width": width, "amplitude": amplitude, "center": center}})
        space = SpectralSpace(g)
        centers = [0.0, 0.0, center[0]] if dims == 1 else center
        chi = amplitude * np.ones(g.shape)
        for x, c in list(zip(space.coordinates(), centers))[3 - dims:]:
            chi = chi * sum(np.exp(-(x - c + m * g.length) ** 2 / (2.0 * width**2))
                            for m in range(-3, 4))
        chi_t = (chi - np.mean(chi)) / width
        e = -space.grad(space.solve_poisson(chi_t))

        def max_relative(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        assert max_relative(state.chi_re, chi) <= 1e-13
        assert max_relative(state.chi_re_t, chi_t) <= 1e-13
        assert max_relative(state.e, e) <= 1e-13
        assert not np.any(state.b) and not np.any(state.chi_im) and not np.any(state.chi_im_t)

    @pytest.mark.parametrize("kind", ["vacuum_planewave", "chi_planewave"])
    @pytest.mark.parametrize("dims, modes", [
        (1, [8]), (1, [9]), (1, [-8]), (3, [8, 0, 0]), (3, [0, 9, 1]), (3, [1, -2, -8])])
    def test_mode_numbers_beyond_the_band_limit_rejected(self, kind, dims, modes):
        # |k_a| >= n/2 is a config error, not a constraint violation: k = n/2
        # would never move and k = n/2 + 1 would run as its alias.
        g = Grid(16, TWO_PI, dims=dims)
        with pytest.raises(ChiMaxwellError, match="band limit") as excinfo:
            init_state(g, {"type": kind, "params": {"k": modes}})
        assert not isinstance(excinfo.value, InconsistentScenario)
        top = [7] if dims == 1 else [7, -7, 7]  # the highest mode that propagates
        init_state(g, {"type": kind, "params": {"k": top}})


class TestStep:
    def test_cfl_violation_raised(self):
        g = Grid(16, TWO_PI, dims=1)
        state = init_state(g, vacuum_scenario([1]))
        with pytest.raises(CFLViolation):
            step(state, 10.0 * cfl_bound(g))

    def test_nan_dt_rejected(self):
        g = Grid(16, TWO_PI, dims=1)
        state = init_state(g, {"type": "chi_planewave", "params": {"k": [1]}})
        with pytest.raises(ChiMaxwellError):
            step(state, float("nan"))

    def test_uniform_static_fields_unchanged(self):
        g = Grid(16, TWO_PI, dims=3)
        e = np.ones((3, *g.shape)) * np.array([0.3, -0.2, 0.9])[:, None, None, None]
        b = np.ones((3, *g.shape)) * 0.5
        state = init_state(g, {"type": "custom", "params": {"e": e, "b": b}})
        out = step(state, cfl_bound(g))
        assert np.max(np.abs(out.e - e)) <= 1e-14
        assert np.max(np.abs(out.b - b)) <= 1e-14

    def test_time_reversal(self):
        # reversal error is RK4 amplitude loss ~ (k dt)^6 / 72 per step pair,
        # so the 1e-9 contract needs a step below the stability bound
        g = Grid(32, TWO_PI, dims=1)
        state = init_state(g, gaussian_scenario(TWO_PI / 10))
        dt = cfl_bound(g) / 8.0
        fwd = step(step(state, dt), dt)
        back = step(step(fwd, -dt), -dt)
        assert state_distance(back, state) <= 1e-9 * state_norm(state)
        assert back.t == pytest.approx(0.0, abs=1e-15)

    def test_linearity_of_evolution(self):
        g = Grid(16, TWO_PI, dims=1)
        s1 = init_state(g, vacuum_scenario([1]))
        s2 = init_state(g, {"type": "chi_planewave", "params": {"k": [2], "amplitude": 0.5}})
        a, b = 1.3, -0.6
        combo = FieldState(
            g, 0.0,
            a * s1.e + b * s2.e, a * s1.b + b * s2.b,
            a * s1.chi_re + b * s2.chi_re, a * s1.chi_im + b * s2.chi_im,
            a * s1.chi_re_t + b * s2.chi_re_t, a * s1.chi_im_t + b * s2.chi_im_t,
        )
        dt = cfl_bound(g)
        lhs = step(combo, dt)
        r1, r2 = step(s1, dt), step(s2, dt)
        assert np.max(np.abs(lhs.e - (a * r1.e + b * r2.e))) <= 1e-10
        assert np.max(np.abs(lhs.chi_re - (a * r1.chi_re + b * r2.chi_re))) <= 1e-10


def magnetic_chi_scenario(g):
    """A magnetic Gaussian (Im chi only) as custom data.  div B = +d/dt Im(chi):
    the Poisson-field E of a chi_gaussian, negated, is its B."""
    gm = init_state(g, {"type": "chi_gaussian",
                        "params": {"width": TWO_PI / 6, "amplitude": -0.4,
                                   "center": [1.0, 2.5, 4.0]}})
    return {"type": "custom",
            "params": {"b": -gm.e, "chi_im": gm.chi_re, "chi_im_t": gm.chi_re_t}}


def complex_chi_scenario(g):
    """Vacuum wave plus an electric Gaussian (Re chi) plus a magnetic one
    (Im chi), as custom data satisfying both divergence constraints."""
    vac = init_state(g, vacuum_scenario([1, 0, 2], helicity=1, amplitude=0.7))
    ge = init_state(g, gaussian_scenario(TWO_PI / 8))
    gm = magnetic_chi_scenario(g)["params"]
    return {"type": "custom", "params": {
        "e": vac.e + ge.e, "b": vac.b + gm["b"],
        "chi_re": ge.chi_re, "chi_re_t": ge.chi_re_t,
        "chi_im": gm["chi_im"], "chi_im_t": gm["chi_im_t"],
    }}


def reference_rk4(state, dt, n_steps):
    """Classical RK4 on the real fields in real space, built only from the
    SpectralSpace operators; returns the state after each step."""
    space = SpectralSpace(state.grid)

    def rhs(y):
        e, b, chi_re, chi_im, chi_re_t, chi_im_t = y
        return (space.curl(b) - space.grad(chi_re),
                -space.curl(e) + space.grad(chi_im),
                chi_re_t, chi_im_t,
                space.laplacian(chi_re), space.laplacian(chi_im))

    def axpy(a, x, y):
        return tuple(yi + a * xi for xi, yi in zip(x, y))

    y = tuple(getattr(state, name) for name in
              ("e", "b", "chi_re", "chi_im", "chi_re_t", "chi_im_t"))
    out = []
    for i in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(axpy(dt / 2, k1, y))
        k3 = rhs(axpy(dt / 2, k2, y))
        k4 = rhs(axpy(dt, k3, y))
        y = tuple(yi + dt / 6 * (a + 2 * b + 2 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
        out.append(FieldState(state.grid, i * dt, *y))
    return out


class TestPropagatorOracle:
    @pytest.mark.parametrize("output_every, build", [
        (0, complex_chi_scenario), (1, complex_chi_scenario), (4, complex_chi_scenario),
        (4, magnetic_chi_scenario),
    ], ids=["0", "1", "4", "magnetic-4"])
    def test_run_matches_reference_rk4(self, output_every, build):
        # output_every = 4 over 10 steps ends on a shorter 2-step jump
        g = Grid(16, TWO_PI, dims=3)
        scenario = build(g)
        n_steps = 10
        t_end = n_steps * cfl_bound(g)
        _, _, snaps = run(g, scenario, t_end, output_every=output_every,
                          chi_mode="complex")
        dt_eff = t_end / n_steps
        ref = reference_rk4(snaps[0], dt_eff, n_steps)
        expected = [i for i in range(1, n_steps + 1)
                    if (output_every and i % output_every == 0) or i == n_steps]
        assert [round(s.t / dt_eff) for s in snaps[1:]] == expected
        for snap in snaps[1:]:
            want = ref[round(snap.t / dt_eff) - 1]
            assert snap.t == want.t
            assert state_distance(snap, want) <= 1e-12 * state_norm(want)

    def test_two_steps_match_run(self):
        g = Grid(16, TWO_PI, dims=3)
        scenario = complex_chi_scenario(g)
        dt = cfl_bound(g)
        final, _, snaps = run(g, scenario, 2 * dt, dt, chi_mode="complex")
        stepped = step(step(snaps[0], dt), dt)
        assert stepped.t == pytest.approx(final.t, rel=1e-15)
        assert state_distance(stepped, final) <= 1e-13 * state_norm(final)


@pytest.fixture
def fft_inputs(monkeypatch):
    """Every array handed to np.fft.rfftn ("fwd") and np.fft.irfftn ("inv")."""
    seen = {"fwd": [], "inv": []}
    for key, name in (("fwd", "rfftn"), ("inv", "irfftn")):
        def recording(a, *args, _key=key, _fft=getattr(np.fft, name), **kwargs):
            seen[_key].append(a)
            return _fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return seen


def state_bits(state):
    return [state.t] + [getattr(state, name).tobytes() for name in chi_solver.SNAPSHOT_FIELDS]


def negative_zero_scenario(g):
    fields = {name: np.full((3, *g.shape) if name in ("e", "b") else g.shape, -0.0)
              for name in chi_solver.SNAPSHOT_FIELDS}
    return {"type": "custom", "params": fields}


class TestZeroFields:
    """A field that is zero costs no FFT and no jump arithmetic."""

    @pytest.mark.parametrize("dims", [1, 3])
    def test_only_an_all_zero_array_skips_the_fft(self, dims):
        space = SpectralSpace(Grid(16, TWO_PI, dims=dims))
        axes, shape = space.axes, space.grid.shape
        f = np.full(shape, -0.0)
        fh = space.fwd(f)
        assert fh.dtype == np.complex128 and fh.shape == np.fft.rfftn(f, axes=axes).shape
        assert not fh.view(np.uint64).any() and not space.inv(fh).view(np.uint64).any()
        f.flat[-1] = 1.0  # one nonzero cell
        assert np.array_equal(space.fwd(f), np.fft.rfftn(f, axes=axes, norm="forward"))
        fh.flat[1] = 1j  # one bin, with no real part
        assert np.array_equal(space.inv(fh), np.fft.irfftn(fh, s=shape, axes=axes,
                                                          norm="forward"))
        v = np.random.default_rng(dims).standard_normal((3, *shape))
        assert space.fwd(v).tobytes() == np.fft.rfftn(v, axes=axes, norm="forward").tobytes()
        v[0] = v[2] = 0.0  # the FFT of a zero component may hold a -0.0
        assert np.array_equal(space.fwd(v), np.fft.rfftn(v, axes=axes, norm="forward"))

    def test_vacuum_run_transforms_each_nonzero_component_once(self, fft_inputs):
        g = Grid(16, TWO_PI, dims=3)
        run(g, vacuum_scenario([1, 0, 2]), 4 * cfl_bound(g), output_every=0)
        # The builder writes the spectra, so nothing goes in; E and B come
        # out, and chi and d/dt chi, which are zero, never do
        assert len(fft_inputs["fwd"]) == 0
        assert len(fft_inputs["inv"]) == 6

    @pytest.mark.parametrize("dims", [1, 3])
    def test_real_chi_run_never_transforms_im_chi(self, fft_inputs, dims):
        g = Grid(16 if dims == 3 else 256, TWO_PI, dims=dims)
        run(g, gaussian_scenario(TWO_PI / 8), 6 * cfl_bound(g), output_every=2)
        # The builder writes the spectra, so no field is transformed forward,
        # and no inverse input is zero, so Im chi is never unpacked
        assert not fft_inputs["fwd"] and fft_inputs["inv"]
        assert all(np.any(a) for a in fft_inputs["inv"])

    @pytest.mark.parametrize("dims, build, chi_mode", [
        (3, lambda g: vacuum_scenario([1, 0, 2], helicity=1), "real"),
        (3, lambda g: gaussian_scenario(TWO_PI / 8), "real"),
        (1, lambda g: {"type": "chi_gaussian", "params": {"width": TWO_PI / 16,
                                                          "center": [2.0]}}, "real"),
        (3, complex_chi_scenario, "complex"),
        (1, negative_zero_scenario, "complex"),
    ], ids=["vacuum-3d", "gaussian-3d", "gaussian-1d", "complex-chi-custom",
            "negative-zero-custom"])
    def test_output_matches_transforming_every_field(self, monkeypatch, dims, build,
                                                     chi_mode):
        g = Grid(16 if dims == 3 else 256, TWO_PI, dims=dims)
        args = (g, build(g), 10 * cfl_bound(g))
        _, diags, snaps = run(*args, output_every=3, chi_mode=chi_mode)

        def every_fwd(space, f):
            return np.fft.rfftn(f, axes=space.axes, norm="forward")

        def every_inv(space, fh):
            return np.fft.irfftn(fh, s=space.grid.shape, axes=space.axes, norm="forward")

        monkeypatch.setattr(SpectralSpace, "fwd", every_fwd)
        monkeypatch.setattr(SpectralSpace, "inv", every_inv)
        _, want_diags, want_snaps = run(*args, output_every=3, chi_mode=chi_mode)
        assert repr(diags) == repr(want_diags)  # repr keeps the sign of a zero
        assert [state_bits(s) for s in snaps[1:]] == [state_bits(s) for s in want_snaps[1:]]
        # t = 0 is the builder's state, which neither patch reaches: the
        # builder inverts through inv_in_place, and leaves the x and y
        # components of a 1-D chi_gaussian's E as the +0.0 zeros it is given.
        # A closed-form builder also writes its own spectra, so only the
        # custom cases transform their t = 0 state through the patched fwd.
        for name in chi_solver.SNAPSHOT_FIELDS:
            assert np.array_equal(getattr(snaps[0], name), getattr(want_snaps[0], name))

    @pytest.mark.parametrize("dims, build, chi_mode", [
        (3, lambda g: vacuum_scenario([1, 0, 2], helicity=1), "real"),
        (3, lambda g: gaussian_scenario(TWO_PI / 8), "real"),
        (1, lambda g: {"type": "chi_gaussian", "params": {"width": TWO_PI / 16,
                                                          "center": [2.0]}}, "real"),
        (3, complex_chi_scenario, "complex"),
        (1, negative_zero_scenario, "complex"),
    ], ids=["vacuum-3d", "gaussian-3d", "gaussian-1d", "complex-chi-custom",
            "negative-zero-custom"])
    def test_output_matches_a_plain_inverse_into_the_row(self, monkeypatch, dims, build,
                                                        chi_mode):
        # inv_in_place runs irfftn's stages one by one in the spectrum it is
        # given; a plain irfftn of every spectrum, zero ones too, copied
        # into the row must give the same bits.
        g = Grid(16 if dims == 3 else 256, TWO_PI, dims=dims)
        args = (g, build(g), 10 * cfl_bound(g))
        _, diags, snaps = run(*args, output_every=3, chi_mode=chi_mode)

        def plain_inv(space, fh, out=None):
            out = np.empty(space.grid.shape) if out is None else out
            out[...] = np.fft.irfftn(fh, s=space.grid.shape, axes=space.axes, norm="forward")
            return out

        monkeypatch.setattr(SpectralSpace, "inv_in_place", plain_inv)
        _, want_diags, want_snaps = run(*args, output_every=3, chi_mode=chi_mode)
        assert repr(diags) == repr(want_diags)
        assert [state_bits(s) for s in snaps[1:]] == [state_bits(s) for s in want_snaps[1:]]
        # At t = 0 the builder's fields come through the patched inverse too;
        # the x and y components of a 1-D chi_gaussian's E are never
        # transformed and stay +0.0.  The spectra a closed-form builder
        # writes pass through no inverse, so for those cases the later
        # states compare the unpacks alone.
        for name in chi_solver.SNAPSHOT_FIELDS:
            assert np.array_equal(getattr(snaps[0], name), getattr(want_snaps[0], name))

    @pytest.mark.parametrize("dims, keep, counts", [
        (3, False, (0, 10)), (3, True, (0, 20)), (1, False, (0, 6)), (1, True, (0, 12)),
    ])
    def test_transform_counts_are_pinned(self, fft_inputs, dims, keep, counts):
        # One rfftn or irfftn call per nonzero component, however its stages
        # run.  No forward one: the builder writes the t = 0 spectra from
        # their closed forms.  Inverse ones: the builder's fields (Re chi,
        # its d/dt and E, 2 + 3, or 2 + 1 in 1-D, whose E has no x or y
        # component), and each state unpacked (E, Re chi and its d/dt; B is
        # exactly zero and costs none): of the 3 outputs after t = 0 only
        # the last, unless states are kept.
        g = Grid(16 if dims == 3 else 256, TWO_PI, dims=dims)
        run(g, gaussian_scenario(TWO_PI / 8), 6 * cfl_bound(g), output_every=2,
            keep_snapshots=keep)
        assert (len(fft_inputs["fwd"]), len(fft_inputs["inv"])) == counts

    @pytest.mark.parametrize("scenario", [vacuum_scenario([1, 0, 2]),
                                          gaussian_scenario(TWO_PI / 8), None],
                             ids=["vacuum", "gaussian", "violating-state-1e12"])
    def test_curl_j_is_exactly_zero(self, scenario):
        # curl grad = 0 holds for every state, so curl_j is 0.0 and not the
        # rounding of a Fourier sum: on a run's samples, and in the public
        # diagnostics of a large state that breaks both constraints
        g = Grid(16, TWO_PI, dims=3)
        if scenario is None:
            v = violating_state(g, 25)
            big = FieldState(g, v.t, *(1e12 * getattr(v, name)
                                       for name in chi_solver.SNAPSHOT_FIELDS))
            sample = diagnostics(big)
        else:
            prop = chi_solver._Propagator(g)
            sample = prop.diagnostics(prop.spectra(init_state(g, scenario)), 0.0)
        assert sample.curl_j_residual == 0.0

    def test_zero_chi_with_nonzero_chi_t_is_advanced(self):
        # chi is zero at t = 0 but d/dt chi is not: Re chi may not be skipped
        g = Grid(16, TWO_PI, dims=3)
        pulse = init_state(g, gaussian_scenario(TWO_PI / 8))
        scenario = {"type": "custom", "params": {"e": pulse.e, "chi_re_t": pulse.chi_re_t}}
        _, _, snaps = run(g, scenario, 4 * cfl_bound(g), output_every=1)
        for snap, want in zip(snaps[1:], reference_rk4(snaps[0], cfl_bound(g), 4)):
            assert snap.t == want.t
            assert state_distance(snap, want) <= 1e-12 * state_norm(want)

    def test_vacuum_jump_leaves_the_chi_channels_alone(self):
        g = Grid(16, TWO_PI, dims=3)
        prop = chi_solver._Propagator(g)
        spectra = prop.spectra(init_state(g, vacuum_scenario([1, 0, 2])))
        before = spectra[:, 2:].tobytes()  # l and both chi parts, with their d/dt
        prop.jump(spectra, prop.factors(3, cfl_bound(g)))
        assert spectra[:, 2:].tobytes() == before

    def test_real_chi_jump_leaves_im_chi_alone(self):
        g = Grid(16, TWO_PI, dims=3)
        prop = chi_solver._Propagator(g)
        spectra = prop.spectra(init_state(g, gaussian_scenario(TWO_PI / 8)))
        re_before, im_before = spectra[0, 3:].tobytes(), spectra[1, 3:].tobytes()
        prop.jump(spectra, prop.factors(3, cfl_bound(g)))
        assert spectra[0, 3:].tobytes() != re_before  # Re chi moved
        assert spectra[1, 3:].tobytes() == im_before  # Im chi and its d/dt did not


class TestHelicityBasis:
    @pytest.mark.parametrize("n, dims", [(8, 3), (16, 1)])
    def test_triad_matches_helicity_eigenvectors(self, n, dims):
        # The propagator's projection of the unit vectors x^, y^, z^ gives
        # the components of its triad (th^, ph^, k^) in every bin.
        g = Grid(n, TWO_PI, dims=dims)
        prop = chi_solver._Propagator(g)
        half = prop.kabs.shape
        units = np.eye(3).reshape((3, 3) + (1,) * len(half)) * np.ones(half)
        th, ph, kh = (np.stack(axis) for axis in zip(*(prop._project(u) for u in units)))
        k = np.stack(np.broadcast_arrays(*prop.space.k))
        on_axis = 0
        for idx in np.ndindex(*half):
            kvec = k[(slice(None),) + idx]
            if not kvec.any():
                continue
            th_b, ph_b, kh_b = (v[(slice(None),) + idx] for v in (th, ph, kh))
            for want, got in ((helicity_eigenvector(kvec, 1), -(th_b + 1j * ph_b) / np.sqrt(2)),
                              (helicity_eigenvector(kvec, -1), (th_b - 1j * ph_b) / np.sqrt(2)),
                              (helicity_eigenvector(kvec, 0), kh_b)):
                assert np.max(np.abs(got - want)) <= 1e-15
            if kvec[0] == kvec[1] == 0.0:
                on_axis += 1
                assert th_b[1] == th_b[2] == ph_b[0] == ph_b[2] == kh_b[0] == kh_b[1] == 0.0
        # kx = ky = 0 (or Nyquist, zeroed) and 0 < |kz| < Nyquist
        assert on_axis == (4 if dims == 3 else 1) * (n // 2 - 1)

    @pytest.mark.parametrize("n, dims", [(8, 3), (16, 1)])
    def test_triad_solves_helicity_eigen_equation(self, n, dims):
        # Independent of helicity_eigenvector: in every nonzero bin the
        # helicity vectors built on the propagator's triad satisfy
        # (S.k^) e_h = h e_h, with S.k^ from spin_algebra, and are orthonormal.
        g = Grid(n, TWO_PI, dims=dims)
        prop = chi_solver._Propagator(g)
        half = prop.kabs.shape
        units = np.eye(3).reshape((3, 3) + (1,) * len(half)) * np.ones(half)
        th, ph, kh = (np.moveaxis(np.stack(axis), 0, -1)
                      for axis in zip(*(prop._project(u) for u in units)))
        k = np.moveaxis(np.stack(np.broadcast_arrays(*prop.space.k)), 0, -1)
        nonzero = np.any(k != 0.0, axis=-1)
        k, th, ph, kh = (a[nonzero] for a in (k, th, ph, kh))
        assert len(k) == np.prod(half) - 2**dims  # k = 0 and the zeroed Nyquist bins
        s_dot_khat = spin_dot_p(k / np.linalg.norm(k, axis=-1, keepdims=True))
        basis = {1: -(th + 1j * ph) / np.sqrt(2), -1: (th - 1j * ph) / np.sqrt(2), 0: kh}
        for h, e in basis.items():
            assert np.max(np.abs(np.einsum("bij,bj->bi", s_dot_khat, e) - h * e)) <= 1e-15
        for h1, e1 in basis.items():
            for h2, e2 in basis.items():
                gram = np.einsum("bi,bi->b", e1.conj(), e2)
                assert np.max(np.abs(gram - (h1 == h2))) <= 1e-15

    def test_exact_zeros_stay_exact(self):
        # A 1-D chi pulse drives only E_z and Re chi: the transverse and
        # magnetic fields and Im chi must stay exactly 0.0, not roundoff.
        g = Grid(1024, TWO_PI, dims=1)
        _, _, snaps = run(g, gaussian_scenario(TWO_PI / 16), 256 * cfl_bound(g),
                          output_every=16)
        assert len(snaps) == 17
        for snap in snaps:
            for field in (snap.e[0], snap.e[1], snap.b, snap.chi_im, snap.chi_im_t):
                assert np.all(field == 0.0)
            assert np.any(snap.e[2] != 0.0)
        g3 = Grid(16, TWO_PI, dims=3)
        _, _, snaps = run(g3, gaussian_scenario(TWO_PI / 8), 12 * cfl_bound(g3),
                          output_every=4)
        for snap in snaps:
            assert np.all(snap.chi_im == 0.0) and np.all(snap.chi_im_t == 0.0)


def violating_state(g, seed):
    """Random real fields that break both divergence constraints, with Im
    chi, built from low modes plus the k = 0 bin and the Nyquist bin of
    every axis, at an arbitrary time."""
    rng = np.random.default_rng(seed)
    coords = SpectralSpace(g).coordinates()
    axes = range(3 - g.dims, 3)

    def field():
        f = np.full(g.shape, rng.normal())
        for _ in range(4):
            m = rng.integers(-3, 4, 3)
            phase = sum(m[a] * TWO_PI / g.length * coords[a] for a in axes)
            f = f + rng.normal() * np.cos(phase + rng.uniform(0, TWO_PI))
        for a in axes:  # cos(pi x / dx), the Nyquist bin of axis a
            f = f + rng.normal() * np.cos(np.pi * coords[a] / g.dx)
        return f

    return FieldState(g, 0.375, np.stack([field() for _ in range(3)]),
                      np.stack([field() for _ in range(3)]),
                      *(field() for _ in range(4)))


class TestPackUnpack:
    @pytest.mark.parametrize("n, dims", [(16, 3), (64, 1)])
    def test_state_of_spectra_is_the_state(self, n, dims):
        # Random fields with Im chi, the k = 0 bin and every Nyquist bin:
        # packing into the propagator's spectra and unpacking again returns
        # every field to roundoff.
        g = Grid(n, TWO_PI, dims=dims)
        state = violating_state(g, 70 + dims)
        prop = chi_solver._Propagator(g)
        back = prop.state(prop.spectra(state), state.t)
        assert back.grid == g and back.t == state.t
        for name in chi_solver.SNAPSHOT_FIELDS:
            want, got = getattr(state, name), getattr(back, name)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @staticmethod
    def packed(prop, v):
        """(h+, h-, l) of the vector spectrum v, projected on the
        propagator's triad in the test's own code, in the solver's order of
        operations: h+- = th^.v -+ i ph^.v and l = k^.v."""
        u = prop.cphi * v[0] + prop.sphi * v[1]
        th = prop.cos_t * u - prop.sin_t * v[2]
        iph = (prop.cphi * v[1] - prop.sphi * v[0]) * 1j
        return np.stack([th - iph, th + iph, prop.sin_t * u + prop.cos_t * v[2]])

    def check_spectra(self, state, with_b):
        prop = chi_solver._Propagator(state.grid)
        axes = prop.space.axes
        e = np.fft.rfftn(state.e, axes=axes, norm="forward")
        ib = 1j * (np.fft.rfftn(state.b, axes=axes, norm="forward") if with_b
                   else np.zeros_like(e))
        spectra = prop.spectra(state)
        assert spectra[0, :3].tobytes() == self.packed(prop, e - ib).tobytes()
        assert spectra[1, :3].tobytes() == self.packed(prop, e + ib).tobytes()
        for slot, name in zip((spectra[0, 3], spectra[0, 4], spectra[1, 3], spectra[1, 4]),
                              ("chi_re", "chi_re_t", "chi_im", "chi_im_t")):
            assert np.array_equal(slot, np.fft.rfftn(getattr(state, name), axes=axes,
                                                     norm="forward"))
        return e

    # 1-D n=8 data whose E spectrum holds a -0.0 that the sum E + i0 turns
    # into +0.0 and that reaches the partner's l: there the halves differ.
    SIGNED_E = np.array([[0.0, 0.0, -2.0, -3.0, -1.0, 0.0, 0.0, 0.0], [0.0] * 8,
                         [-0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("b_zero", [0.0, -0.0], ids=["b+0", "b-0"])
    @pytest.mark.parametrize("case", ["violating-3d", "violating-1d", "signed-e-1d"])
    def test_zero_b_packs_as_e_minus_and_plus_i0(self, case, b_zero):
        if case == "signed-e-1d":
            g = Grid(8, TWO_PI, dims=1)
            zero = np.zeros(g.shape)
            state = FieldState(g, 0.0, self.SIGNED_E, np.full((3, 8), b_zero), *[zero] * 4)
        else:
            g = Grid(16, TWO_PI, dims=3) if case == "violating-3d" else Grid(64, TWO_PI, dims=1)
            v = violating_state(g, 90)
            state = FieldState(g, v.t, v.e, np.full_like(v.b, b_zero), v.chi_re, v.chi_im,
                               v.chi_re_t, v.chi_im_t)
        e = self.check_spectra(state, with_b=False)
        negative_zero = (e.view(np.uint64) == np.uint64(1 << 63)).any()
        assert negative_zero == (case == "signed-e-1d")
        if negative_zero:  # so a copy of psi's slots would not do for its partner
            prop = chi_solver._Propagator(g)
            assert self.packed(prop, e).tobytes() != self.packed(prop, e + 0.0).tobytes()

    @pytest.mark.parametrize("n, dims", [(16, 3), (64, 1)])
    def test_nonzero_b_packs_psi_and_its_partner(self, n, dims):
        self.check_spectra(violating_state(Grid(n, TWO_PI, dims=dims), 80 + dims), with_b=True)


def band_limited(rng, g, lead):
    """Random real fields of shape (*lead, *g.shape) with every Nyquist bin
    zeroed, the -n/2 bin of each full axis included: data that has them
    fails the t = 0 gate."""
    axes = tuple(range(-g.dims, 0))
    fh = np.fft.rfftn(rng.normal(size=(*lead, *g.shape)), axes=axes)
    for a in axes:
        index = [slice(None)] * fh.ndim
        index[a] = g.n // 2
        fh[tuple(index)] = 0.0
    return np.fft.irfftn(fh, s=g.shape, axes=axes)


def gated_random_state(g, seed):
    """Random band-limited complex-chi data that passes the gate: E and B
    are a random curl plus the gradient whose divergence balances the
    mean-free d/dt Re chi and d/dt Im chi."""
    rng = np.random.default_rng(seed)
    space = SpectralSpace(g)
    chi_re, chi_im, chi_re_t, chi_im_t = band_limited(rng, g, (4,))
    chi_re_t -= chi_re_t.mean()
    chi_im_t -= chi_im_t.mean()
    e = space.curl(band_limited(rng, g, (3,))) + space.grad(space.solve_poisson(-chi_re_t))
    b = space.curl(band_limited(rng, g, (3,))) + space.grad(space.solve_poisson(chi_im_t))
    return FieldState(g, 0.0, e, b, chi_re, chi_im, chi_re_t, chi_im_t)


def run_from(state, t_end=1.3):
    """The final state of a run from the fields of `state`."""
    params = {name: getattr(state, name) for name in chi_solver.SNAPSHOT_FIELDS}
    return run(state.grid, {"type": "custom", "params": params}, t_end, chi_mode="complex")[0]


def duality(s, alpha=0.7):
    """psi = E - iB -> e^{i alpha} psi and chi -> e^{i alpha} chi."""
    c, sn = np.cos(alpha), np.sin(alpha)
    return FieldState(s.grid, s.t, c * s.e + sn * s.b, c * s.b - sn * s.e,
                      c * s.chi_re - sn * s.chi_im, sn * s.chi_re + c * s.chi_im,
                      c * s.chi_re_t - sn * s.chi_im_t, sn * s.chi_re_t + c * s.chi_im_t)


def moved(s, move, turn_e, turn_b, im_sign=1.0):
    """s under a map of the grid's cells: `move` relocates every field, E's
    and B's components turn by turn_e and turn_b, and Im chi and its time
    derivative take im_sign (-1 for a pseudoscalar under a reflection)."""
    return FieldState(s.grid, s.t, turn_e(move(s.e)), turn_b(move(s.b)), move(s.chi_re),
                      im_sign * move(s.chi_im), move(s.chi_re_t), im_sign * move(s.chi_im_t))


def signed(*signs):
    return lambda v: np.stack([sign * c for sign, c in zip(signs, v)])


def translation(s):
    """Every field moved by 3 cells along each axis."""
    axes = tuple(range(-s.grid.dims, 0))
    same = lambda v: v
    return moved(s, lambda f: np.roll(f, 3, axis=axes), same, same)


def cyclic(s):
    """f(x, y, z) -> f(y, z, x), with E and B turned as vectors."""
    turn = lambda v: v[[2, 0, 1]]
    return moved(s, lambda f: np.moveaxis(f, (-1, -3, -2), (-3, -2, -1)), turn, turn)


def reflection(s):
    """z -> -z: E is polar, B axial and Im chi a pseudoscalar."""
    return moved(s, lambda f: np.roll(np.flip(f, -1), 1, -1), signed(1, 1, -1),
                 signed(-1, -1, 1), im_sign=-1.0)


def time_reversal(s):
    """T: B -> -B, Re chi -> -Re chi, d/dt Im chi -> -d/dt Im chi, t -> -t."""
    return FieldState(s.grid, -s.t, s.e, -s.b, -s.chi_re, s.chi_im, s.chi_re_t, -s.chi_im_t)


def relative_l2(got, want):
    """The L2 norm of got - want over all six fields, relative to want's."""
    diff = sum(np.sum((getattr(got, name) - getattr(want, name)) ** 2)
               for name in chi_solver.SNAPSHOT_FIELDS)
    norm = sum(np.sum(getattr(want, name) ** 2) for name in chi_solver.SNAPSHOT_FIELDS)
    return np.sqrt(diff / norm)


SYMMETRY_GRIDS = [(8, 1), (16, 1), (8, 3), (16, 3)]


class TestSymmetries:
    """RK4 applies a polynomial of the operator (E + S.p) psi = p chi, so
    `run` commutes with every map the operator commutes with: the duality
    rotation of the Riemann-Silberstein vector psi (Bialynicki-Birula,
    "Photon wave function", Progress in Optics 36, 1996), the lattice's
    translations, axis permutations and reflections, time reversal and
    scaling.  These oracles need no reference solution."""

    @pytest.mark.parametrize("n, dims, symmetry", [
        (n, dims, symmetry) for n, dims in SYMMETRY_GRIDS
        for symmetry in (duality, translation, cyclic, reflection)
        if not (symmetry is cyclic and dims == 1)
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_run_commutes_to_roundoff(self, n, dims, symmetry):
        x = gated_random_state(Grid(n, TWO_PI, dims=dims), 90 + n + dims)
        assert relative_l2(run_from(symmetry(x)), symmetry(run_from(x))) <= 1e-13

    @pytest.mark.parametrize("n, dims", SYMMETRY_GRIDS)
    @pytest.mark.parametrize("steps", [1, 7])
    def test_time_reversal_is_exact(self, n, dims, steps):
        # step(T x, dt) == T step(x, -dt), bit for bit
        g = Grid(n, TWO_PI, dims=dims)
        dt = 0.9 * cfl_bound(g)
        x = gated_random_state(g, 90 + n + dims)
        forward, backward = time_reversal(x), x
        for _ in range(steps):
            forward, backward = step(forward, dt), step(backward, -dt)
        backward = time_reversal(backward)
        assert forward.t == backward.t
        for name in chi_solver.SNAPSHOT_FIELDS:
            assert np.array_equal(getattr(forward, name), getattr(backward, name))

    @pytest.mark.parametrize("n, dims", SYMMETRY_GRIDS)
    def test_doubled_data_doubles_exactly(self, n, dims):
        x = gated_random_state(Grid(n, TWO_PI, dims=dims), 90 + n + dims)
        doubled = FieldState(x.grid, x.t, *(2.0 * getattr(x, name)
                                            for name in chi_solver.SNAPSHOT_FIELDS))
        got, want = run_from(doubled), run_from(x)
        for name in chi_solver.SNAPSHOT_FIELDS:
            assert np.array_equal(getattr(got, name), 2.0 * getattr(want, name))


class TestSpectralDiagnostics:
    @pytest.mark.parametrize("n, dims", [(16, 3), (64, 1)])
    def test_match_real_space_formulas(self, n, dims):
        g = Grid(n, TWO_PI, dims=dims)
        state = violating_state(g, 60 + dims)
        space = SpectralSpace(g)

        def rms(f):
            return np.sqrt(np.mean(f**2))

        d = diagnostics(state)
        gauss_e = rms(space.div(state.e) + state.chi_re_t / C_LIGHT)
        gauss_b = rms(space.div(state.b) - state.chi_im_t / C_LIGHT)
        energy = 0.5 * np.mean(np.sum(state.e**2 + state.b**2, axis=0)
                               + state.chi_re**2 + state.chi_im**2) * g.volume
        assert d.t == state.t
        assert gauss_e >= 0.1 and gauss_b >= 0.1
        assert d.gauss_e_residual == pytest.approx(gauss_e, rel=1e-12)
        assert d.gauss_b_residual == pytest.approx(gauss_b, rel=1e-12)
        assert d.energy == pytest.approx(energy, rel=1e-12)
        assert d.curl_j_residual <= 1e-12 * state_norm(state)
        assert d.continuity_residual == 0.0

    def test_run_samples_match_public_diagnostics(self):
        g = Grid(16, TWO_PI, dims=3)
        _, diags, snaps = run(g, complex_chi_scenario(g), 6 * cfl_bound(g),
                              output_every=2, chi_mode="complex")
        assert len(diags) == len(snaps) == 4
        for got, snap in zip(diags, snaps):
            want = diagnostics(snap)
            scale = 1e-14 * state_norm(snap)
            assert got.t == want.t
            assert abs(got.gauss_e_residual - want.gauss_e_residual) <= scale
            assert abs(got.gauss_b_residual - want.gauss_b_residual) <= scale
            assert abs(got.curl_j_residual - want.curl_j_residual) <= scale
            assert got.continuity_residual == want.continuity_residual == 0.0
            assert got.energy == pytest.approx(want.energy, rel=1e-14)

    def test_only_the_final_state_is_unpacked(self, monkeypatch):
        calls = []
        unpack = chi_solver._Propagator.state

        def counting(prop, spectra, t):
            calls.append(t)
            return unpack(prop, spectra, t)

        monkeypatch.setattr(chi_solver._Propagator, "state", counting)
        g = Grid(16, TWO_PI, dims=3)
        final, diags, snaps = run(g, gaussian_scenario(TWO_PI / 8), 5 * cfl_bound(g),
                                  output_every=1, keep_snapshots=False)
        assert len(diags) == 6 and len(snaps) == 2
        assert calls == [final.t]

    def test_energy_of_huge_fields_stays_finite(self):
        # Mean-normalized spectra square to about amplitude^2; unnormalized
        # ones (about n * amplitude) would overflow to inf here.
        g = Grid(1024, TWO_PI, dims=1)
        state = init_state(g, {"type": "custom",
                               "params": {"chi_re": np.full(g.shape, 1e152)}})
        energy = diagnostics(state).energy
        assert np.isfinite(energy)
        assert energy == pytest.approx(0.5e304 * g.length, rel=1e-14)

    def test_run_transforms_the_initial_state_once(self, monkeypatch):
        # At most once: a closed-form scenario starts from the spectra its
        # builder writes, and only custom data is transformed
        g = Grid(16, TWO_PI, dims=3)
        cases = ((gaussian_scenario(TWO_PI / 8), "real", 0),
                 (complex_chi_scenario(g), "complex", 1))
        counts = dict.fromkeys(("__init__", "spectra", "diagnostics"), 0)
        for name in counts:
            def counting(*args, _name=name, _method=getattr(chi_solver._Propagator, name)):
                counts[_name] += 1
                return _method(*args)

            monkeypatch.setattr(chi_solver._Propagator, name, counting)
        for scenario, chi_mode, transforms in cases:
            counts.update(dict.fromkeys(counts, 0))
            _, diags, _ = run(g, scenario, 4 * cfl_bound(g), output_every=2, chi_mode=chi_mode)
            # one kernel evaluation per sample: the gate's is the t = 0 record
            assert counts == {"__init__": 1, "spectra": transforms, "diagnostics": len(diags)}

    def test_builder_grids_are_freed_before_the_transform(self, monkeypatch):
        # The spectra chi_gaussian inverts into its fields (Re chi, its d/dt
        # and the three components of E) must be gone by the first jump: the
        # run starts from the pair the builder writes, with no transform, and
        # the five must not add to the run's peak.
        refs, alive = [], []
        inv, jump = SpectralSpace.inv_in_place, chi_solver._Propagator.jump

        def keeping(space, fh, out=None):
            refs.append(weakref.ref(fh))
            return inv(space, fh, out)

        def checking(prop, spectra, factors):
            alive.append([ref() is not None for ref in refs])
            return jump(prop, spectra, factors)

        monkeypatch.setattr(SpectralSpace, "inv_in_place", keeping)
        monkeypatch.setattr(chi_solver._Propagator, "jump", checking)
        g = Grid(16, TWO_PI, dims=3)
        run(g, gaussian_scenario(TWO_PI / 8), 2 * cfl_bound(g))
        assert alive == [[False] * 5]


def planewave_scenario(modes, amplitude=1.0):
    return {"type": "chi_planewave", "params": {"k": modes, "amplitude": amplitude}}


class TestClosedFormSpectra:
    """A closed-form builder writes the pair that `_Propagator.spectra`
    would make from its fields: a wrong bin, sign or conjugate is an O(1)
    error, roundoff is ~1e-15."""

    @staticmethod
    def assert_matches_the_transform(g, scenario):
        state, prop, spectra, _ = chi_solver._start(g, scenario, "real")
        want = prop.spectra(state)
        assert np.max(np.abs(spectra - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, dims, modes", [
        (16, 1, [3]), (16, 1, [-3]), (16, 1, [7]), (64, 1, [5]), (64, 1, [-31]),
        (16, 3, [1, 2, 3]), (16, 3, [1, -2, 0]), (16, 3, [-1, 0, 0]), (16, 3, [-1, 2, -3]),
        (16, 3, [0, 0, 1]), (16, 3, [0, 0, -1]), (16, 3, [7, -7, 7]),
    ], ids=str)
    def test_plane_waves_match_the_transform(self, n, dims, modes):
        # kz > 0, kz = 0 (both of its bins on the half-grid) and kz < 0; +-z
        # on the axis, where the triad at -m is not the mirror of that at m;
        # and the top mode, for both helicities and chi
        g = Grid(n, TWO_PI, dims=dims)
        for scenario in (vacuum_scenario(modes, 1, 0.7), vacuum_scenario(modes, -1, 0.7),
                         planewave_scenario(modes, 1.3)):
            self.assert_matches_the_transform(g, scenario)

    def test_a_bin_off_the_half_grid_is_none(self):
        # A negative last mode number has no bin on the rfftn half-grid, so
        # the builders write nothing for it, rather than an empty slice
        g3, g1 = Grid(16, TWO_PI, dims=3), Grid(16, TWO_PI, dims=1)
        assert chi_solver._bin(g3, np.array([-1, 2, 0])) == (slice(15, 16), slice(2, 3),
                                                              slice(0, 1))
        assert chi_solver._bin(g3, np.array([1, 2, -1])) is None
        assert chi_solver._bin(g1, np.array([0, 0, 7])) == (slice(7, 8),)
        assert chi_solver._bin(g1, np.array([0, 0, -7])) is None

    @pytest.mark.parametrize("n, dims", [(16, 1), (64, 1), (16, 3)])
    def test_off_centre_gaussian_matches_the_transform(self, n, dims):
        center = [1.0, 2.5, 4.0][:dims]
        self.assert_matches_the_transform(Grid(n, TWO_PI, dims=dims), {
            "type": "chi_gaussian", "params": {"width": TWO_PI / 8, "center": center}})

    @pytest.mark.parametrize("scenario", [{"type": "chi_gaussian", "params": {}},
                                          planewave_scenario([1, 2, -1])],
                             ids=["chi_gaussian", "chi_planewave"])
    def test_chi_scenarios_keep_b_exactly_zero(self, scenario):
        # l = l_c = i R_t/|k| in both halves and h+- = 0: B is no roundoff
        # but +0.0 in every kept state, and the helicity channels are zero
        g = Grid(16, TWO_PI, dims=3)
        _, _, snaps = run(g, scenario, 6 * cfl_bound(g), output_every=2)
        assert len(snaps) == 4
        assert not any(s.b.view(np.uint64).any() for s in snaps)
        spectra = chi_solver._start(g, scenario, "real")[2]
        assert not spectra[:, :2].view(np.uint64).any()
        assert spectra[0, 2].tobytes() == spectra[1, 2].tobytes()
        assert not spectra[1, 3:].view(np.uint64).any()  # Im chi and its d/dt


class TestVacuumReduction:
    def test_plane_wave_returns_after_one_period(self):
        g = Grid(64, TWO_PI, dims=1)
        period = g.length / C_LIGHT  # lowest mode: omega = c k = 2 pi / L
        final, diags, snaps = run(g, vacuum_scenario([1]), period, period / 256,
                                  output_every=0)
        init = snaps[0]
        err = state_distance(final, init) / state_norm(init)
        assert err <= 1e-6

    def test_gauss_constraints_over_long_run(self):
        g = Grid(32, TWO_PI, dims=3)
        dt = cfl_bound(g)
        final, diags, _ = run(g, vacuum_scenario([0, 0, 1]), 1000 * dt, dt,
                              output_every=100, keep_snapshots=False)
        assert max(d.gauss_e_residual for d in diags) <= 1e-9
        assert max(d.gauss_b_residual for d in diags) <= 1e-9

    def test_measured_dispersion(self):
        # project the complex field combination on the excited mode and fit
        # the phase slope: omega must come out at c |k|
        g = Grid(32, TWO_PI, dims=1)
        period = g.length / C_LIGHT
        final, diags, snaps = run(g, vacuum_scenario([1]), period, period / 128,
                                  output_every=8)
        z = SpectralSpace(g).coordinates()[2]
        mode = np.exp(-1j * z)
        amps, times = [], []
        for snap in snaps:
            psi = snap.e[0] - 1j * snap.b[0]
            amps.append(np.mean(psi * mode))
            times.append(snap.t)
        phases = np.unwrap(np.angle(np.array(amps)))
        omega = -np.polyfit(times, phases, 1)[0]
        assert abs(omega / (C_LIGHT * 1.0) - 1.0) <= 1e-6


class TestChiDynamics:
    def test_chi_planewave_matches_closed_form(self):
        # chi = cos(kz - ckt) drives a longitudinal E_z = cos(kz - ckt)
        g = Grid(64, TWO_PI, dims=1)
        k = 2 * np.pi / g.length
        t_end = 0.7 * g.length / C_LIGHT
        final, _, _ = run(g, {"type": "chi_planewave", "params": {"k": [1]}},
                          t_end, g.length / (256 * C_LIGHT), output_every=0)
        z = SpectralSpace(g).coordinates()[2]
        analytic = np.cos(k * z - C_LIGHT * k * final.t)
        assert np.max(np.abs(final.e[2] - analytic)) <= 1e-6
        assert np.max(np.abs(final.chi_re - analytic)) <= 1e-6
        assert np.max(np.abs(final.e[0])) <= 1e-12
        assert np.max(np.abs(final.b)) <= 1e-12

    def test_gaussian_constraints_and_identities(self):
        g = Grid(32, TWO_PI, dims=3)
        final, diags, _ = run(g, gaussian_scenario(TWO_PI / 10), g.length,
                              output_every=10, keep_snapshots=False)
        assert max(d.gauss_e_residual for d in diags) <= 1e-8
        assert max(d.gauss_b_residual for d in diags) <= 1e-10  # no monopoles
        assert max(d.curl_j_residual for d in diags) <= 1e-12
        assert max(d.continuity_residual for d in diags) <= 1e-9

    def test_energy_conserved(self):
        g = Grid(32, TWO_PI, dims=1)
        dt = 0.5 * cfl_bound(g)
        _, diags, _ = run(g, gaussian_scenario(TWO_PI / 10), g.length, dt,
                          output_every=50)
        drift = abs(diags[-1].energy - diags[0].energy) / abs(diags[0].energy)
        assert drift <= 1e-5

    def test_constraint_growth_per_step(self):
        g = Grid(64, TWO_PI, dims=1)
        dt = cfl_bound(g)
        _, diags, _ = run(g, gaussian_scenario(TWO_PI / 10), 100 * dt, dt,
                          output_every=1, keep_snapshots=False)
        worst_jump = max(
            abs(b.gauss_e_residual - a.gauss_e_residual)
            for a, b in zip(diags, diags[1:])
        )
        assert worst_jump <= 1e-11

    def test_thousand_step_identities(self):
        g = Grid(64, TWO_PI, dims=1)
        dt = cfl_bound(g)
        _, diags, _ = run(g, gaussian_scenario(TWO_PI / 10), 1000 * dt, dt,
                          output_every=100, keep_snapshots=False)
        assert max(d.gauss_e_residual for d in diags) <= 1e-9
        assert max(d.continuity_residual for d in diags) <= 1e-9
        assert max(d.curl_j_residual for d in diags) <= 1e-12


class TestRunAndIO:
    def test_output_every_zero_keeps_endpoints(self):
        g = Grid(16, TWO_PI, dims=1)
        final, diags, snaps = run(g, vacuum_scenario([1]), 10 * cfl_bound(g),
                                  output_every=0)
        assert len(snaps) == 2
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(final.t)

    def test_negative_output_every_rejected(self):
        g = Grid(16, TWO_PI, dims=1)
        with pytest.raises(ChiMaxwellError, match="output_every"):
            run(g, vacuum_scenario([1]), 10 * cfl_bound(g), output_every=-3)

    @pytest.mark.parametrize("dt", [1e-310, 1e-320, 5e-324])
    def test_step_count_beyond_float_rejected(self, dt):
        # t_end / dt overflows to inf, which is no count of steps
        g = Grid(16, TWO_PI, dims=1)
        with pytest.raises(ChiMaxwellError, match=r"more than 2\*\*53"):
            run(g, vacuum_scenario([1]), 1.0, dt=dt)

    def test_run_is_deterministic(self):
        g = Grid(32, TWO_PI, dims=1)
        out1 = run(g, gaussian_scenario(TWO_PI / 10), 5 * cfl_bound(g))
        out2 = run(g, gaussian_scenario(TWO_PI / 10), 5 * cfl_bound(g))
        assert np.array_equal(out1[0].e, out2[0].e)
        assert np.array_equal(out1[0].chi_re_t, out2[0].chi_re_t)
        assert out1[1][-1] == out2[1][-1]

    def test_snapshot_roundtrip_bit_faithful(self, tmp_path):
        g = Grid(16, TWO_PI, dims=3)
        state = init_state(g, gaussian_scenario(TWO_PI / 8))
        save_snapshot(state, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        for name in ("e", "b", "chi_re", "chi_im", "chi_re_t", "chi_im_t"):
            assert np.array_equal(getattr(state, name), getattr(loaded, name))
        assert loaded.t == state.t
        assert loaded.grid == g

    def test_truncated_snapshot_fails_loudly(self, tmp_path):
        g = Grid(16, TWO_PI, dims=1)
        save_snapshot(init_state(g, gaussian_scenario(TWO_PI / 8)), tmp_path / "snap")
        path = tmp_path / "snap.bin"
        path.write_bytes(path.read_bytes()[:-8])
        # 10 field components of 16 cells, one float64 short
        with pytest.raises(ChiMaxwellError, match=r"snap\.bin holds 159 .* implies 160"):
            load_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(fields=["b", "e", *h["fields"][2:]]),
        lambda h: h["components"].update(e=1, chi_re=3),
        lambda h: h.pop("components"),
        lambda h: h.update(time=float("nan")),
        lambda h: h.update(time=True),  # == 1.0, but not a JSON number
        lambda h: h.update(format="chimaxwell-snapshot-v2"),
        lambda h: h.update(dtype="float32"),
        lambda h: h.update(endianness="big"),
        lambda h: h.update(order="F"),
        lambda h: h.update(extra=1),
        lambda h: h.pop("grid"),
    ], ids=["b-before-e", "components", "no-components", "nan-time", "bool-time", "format",
            "dtype", "endianness", "order", "extra-key", "no-grid"])
    def test_edited_sidecar_rejected(self, tmp_path, edit):
        # load_snapshot reads only the layout save_snapshot writes
        g = Grid(8, TWO_PI, dims=1)
        save_snapshot(init_state(g, gaussian_scenario(TWO_PI / 4)), tmp_path / "snap")
        path = tmp_path / "snap.json"
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
        with pytest.raises(ChiMaxwellError, match=r"snap\.json"):
            load_snapshot(tmp_path / "snap")

    def test_run_writes_files(self, tmp_path):
        g = Grid(16, TWO_PI, dims=1)
        run(g, vacuum_scenario([1]), 4 * cfl_bound(g), output_every=2,
            out_dir=tmp_path)
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "snapshot_000000.bin").exists()
        assert (tmp_path / "snapshot_000000.json").exists()

    def test_inputs_and_returned_states_are_never_written(self, tmp_path):
        # The propagator advances its own spectra in place; no array handed
        # in or handed out may change afterwards.
        def bits(state):
            return [getattr(state, name).tobytes() for name in chi_solver.SNAPSHOT_FIELDS]

        g = Grid(16, TWO_PI, dims=3)
        scenario = complex_chi_scenario(g)
        state = init_state(g, scenario, chi_mode="complex")
        before = bits(state)
        step(state, cfl_bound(g))
        assert bits(state) == before
        _, _, snaps = run(g, scenario, 6 * cfl_bound(g), output_every=2,
                          chi_mode="complex", out_dir=tmp_path)
        assert len(snaps) == 4
        for snap in snaps:
            index = round(snap.t / cfl_bound(g))
            loaded = load_snapshot(tmp_path / f"snapshot_{index:06d}")
            assert loaded.t == snap.t
            assert bits(loaded) == bits(snap)
        assert bits(snaps[0]) == bits(init_state(g, scenario, chi_mode="complex"))

    def test_diagnostics_csv_roundtrip(self, tmp_path):
        diags = [Diagnostics(0.125, 1e-12, 2e-13, 3.7e-16, 0.0, 42.0625),
                 Diagnostics(0.25, 1.1e-12, 0.0, 1e-16, 0.0, 42.0624999)]
        path = tmp_path / "d.csv"
        write_diagnostics_csv(path, diags)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,gauss_e,gauss_b,curl_j,continuity,energy"
        values = [float(v) for v in lines[1].split(",")]
        assert values == [0.125, 1e-12, 2e-13, 3.7e-16, 0.0, 42.0625]
