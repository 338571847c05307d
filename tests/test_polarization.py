"""Polarization modes, field triplets, normalization, and gauge freedom."""

import warnings

import numpy as np
import pytest

from chimaxwell.errors import ChiMaxwellError, DegenerateMode, NonpositiveMass, ZeroMomentum
from chimaxwell.polarization import (
    CONSTANT,
    MASS,
    MASSLESS_SCAN_MASSES,
    MODES,
    SQRT_MASS,
    TRIPLET_MODES,
    ASTField,
    NormalizationScheme,
    ast_from_potential,
    ast_gauge_transform,
    electric_from_ast,
    energy_of,
    field_triplet,
    magnetic_from_ast,
    massless_norms,
    massless_scaling,
    minkowski_product,
    mode_gram,
    normalization_change_check,
    phase_relation,
    polarization_vector,
    proca_residual,
)

REST = np.zeros(3)


def four_momentum(p, m):
    return np.array([energy_of(p, m), p[0], p[1], p[2]], dtype=complex)


class TestPolarizationVector:
    def test_rest_frame_timelike(self):
        u = polarization_vector(REST, "0_t", 1.0).u
        assert np.array_equal(u, np.array([1, 0, 0, 0], dtype=complex))

    def test_rest_frame_plus(self):
        u = polarization_vector(REST, "+1", 1.0).u
        assert np.allclose(u, -np.array([0, 1, 1j, 0]) / np.sqrt(2), atol=1e-15)

    def test_longitudinal_printed_arithmetic(self):
        # p = (0,0,3), m = 4, E_p = 5: u = (1/4)(3, 0, 0, 5) = (0.75, 0, 0, 1.25)
        u = polarization_vector(np.array([0.0, 0.0, 3.0]), "0", 4.0).u
        assert np.allclose(u, [0.75, 0, 0, 1.25], atol=1e-15)
        # transversality is the oracle: 5*0.75 - 3*1.25 = 0
        assert abs(minkowski_product(four_momentum(np.array([0.0, 0.0, 3.0]), 4.0), u)) == 0.0

    def test_transversality_sweep(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            p = rng.uniform(-3, 3, 3)
            m = rng.uniform(0.2, 3.0)
            p4 = four_momentum(p, m)
            scale = (energy_of(p, m) + np.linalg.norm(p))
            for mode in TRIPLET_MODES:
                u = polarization_vector(p, mode, m).u
                assert abs(minkowski_product(p4, u)) <= 1e-12 * scale * np.max(np.abs(u))

    def test_timelike_is_momentum_direction(self):
        p = np.array([1.0, -2.0, 0.5])
        m = 0.7
        u = polarization_vector(p, "0_t", m).u
        assert np.allclose(u, four_momentum(p, m) / m, atol=1e-14)

    def test_nonpositive_mass_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(NonpositiveMass):
                polarization_vector(REST, "+1", bad)

    def test_non_finite_mass_rejected(self):
        for bad in (np.nan, np.inf, np.array([1.0, np.nan])):
            with pytest.raises(ChiMaxwellError, match="finite mass"):
                polarization_vector(REST, "+1", bad)

    def test_overflowing_amplitude_rejected(self):
        # At m = 1e-320 the 1/m factors overflow: those of u and of the
        # positive-frequency triplets under N = 1, and that of F = (i/2m)
        # p ^ u, which the negative-frequency triplets take, even under N = m.
        p = np.array([0.3, -0.4, 1.2])
        for call in (lambda: polarization_vector(p, "0", 1e-320),
                     lambda: field_triplet(p, "+1", "E", +1, 1e-320),
                     lambda: field_triplet(p, "+1", "E", -1, 1e-320, MASS)):
            with pytest.raises(ChiMaxwellError, match="overflows"):
                call()

    def test_doubling_n_doubles_components_exactly(self):
        double = NormalizationScheme("double", lambda m: 2.0)
        p = np.array([0.4, 1.7, -0.3])
        u1 = polarization_vector(p, "-1", 1.3, CONSTANT).u
        u2 = polarization_vector(p, "-1", 1.3, double).u
        assert np.array_equal(u2, 2.0 * u1)

    def test_sqrt_mass_scheme(self):
        u1 = polarization_vector(REST, "0", 4.0, SQRT_MASS).u
        u2 = polarization_vector(REST, "0", 4.0, CONSTANT).u
        assert np.allclose(u1, 2.0 * u2, atol=1e-15)


class TestFieldTriplet:
    def test_printed_b_plus_on_z_axis(self):
        # p_r = 0 on the z-axis: B(+1) = (-i / 2 sqrt(2) m)(-ik, k, 0)
        k, m = 2.0, 1.5
        vec = field_triplet(np.array([0.0, 0.0, k]), "+1", "B", +1, m).vec
        expected = (-1j / (2 * np.sqrt(2) * m)) * np.array([-1j * k, k, 0.0])
        assert np.allclose(vec, expected, atol=1e-15)

    def test_b_longitudinal_vanishes_at_rest(self):
        vec = field_triplet(REST, "0", "B", +1, 1.0).vec
        assert np.array_equal(vec, np.zeros(3, dtype=complex))

    def test_oracle_equivalence_printed_vs_tensor(self):
        # cross-product oracle B = (i/2m)(p x u) from the field-strength tensor
        rng = np.random.default_rng(21)
        phases = {}
        p_ref = np.array([0.3, -0.4, 0.5])
        for kind in ("B", "E"):
            for mode in TRIPLET_MODES:
                printed = field_triplet(p_ref, mode, kind, +1, 1.0).vec
                f = ast_from_potential(polarization_vector(p_ref, mode, 1.0), +1)
                oracle = magnetic_from_ast(f) if kind == "B" else electric_from_ast(f)
                idx = np.argmax(np.abs(oracle))
                phases[kind, mode] = printed[idx] / oracle[idx]
                assert abs(phases[kind, mode] - 1.0) <= 1e-12  # measured, comes out 1
        for _ in range(50):
            p = rng.uniform(-3, 3, 3)
            m = rng.uniform(0.3, 2.5)
            for (kind, mode), ref_phase in phases.items():
                printed = field_triplet(p, mode, kind, +1, m).vec
                f = ast_from_potential(polarization_vector(p, mode, m), +1)
                oracle = magnetic_from_ast(f) if kind == "B" else electric_from_ast(f)
                idx = np.argmax(np.abs(oracle))
                assert abs(printed[idx] / oracle[idx] - ref_phase) <= 1e-8

    def test_triplets_linear_in_n(self):
        double = NormalizationScheme("double", lambda m: 2.0)
        p = np.array([1.0, 0.5, -2.0])
        for kind in ("B", "E"):
            for sign in (+1, -1):
                v1 = field_triplet(p, "-1", kind, sign, 0.9, CONSTANT).vec
                v2 = field_triplet(p, "-1", kind, sign, 0.9, double).vec
                assert np.allclose(v2, 2.0 * v1, rtol=1e-15, atol=0)

    def test_timelike_mode_has_no_triplet(self):
        with pytest.raises(ValueError):
            field_triplet(REST, "0_t", "B", +1, 1.0)


class TestASTField:
    def test_timelike_gives_exactly_zero(self):
        f = ast_from_potential(polarization_vector(np.array([1.0, 2.0, 3.0]), "0_t", 0.8), +1)
        assert np.array_equal(f.f, np.zeros((4, 4), dtype=complex))

    def test_rest_frame_electric_row(self):
        # at rest F^{0i} = (-/+ i/2m) m u^i = (-/+ i/2) u^i
        pol = polarization_vector(REST, "+1", 1.0)
        for sign in (+1, -1):
            f = ast_from_potential(pol, sign)
            assert np.allclose(f.f[0, 1:], (-1j * sign / 2.0) * pol.u[1:], atol=1e-15)
            assert np.allclose(f.f[1:, 0], (1j * sign / 2.0) * pol.u[1:], atol=1e-15)

    def test_antisymmetry_exact_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            pol = polarization_vector(rng.uniform(-3, 3, 3), "-1", rng.uniform(0.2, 2))
            f = ast_from_potential(pol, int(rng.choice([-1, 1]))).f
            assert np.array_equal(f, -f.T)


class TestProcaResidual:
    def test_transverse_modes_solve(self):
        pol = polarization_vector(np.array([0.0, 0.0, 3.0]), "+1", 4.0)
        assert proca_residual(pol) <= 1e-12

    def test_timelike_rest_frame_frozen_value(self):
        # F = 0, so the residual is (m/2) u = (0.5, 0, 0, 0) at N = 1, m = 1
        pol = polarization_vector(REST, "0_t", 1.0)
        assert abs(proca_residual(pol) - 0.5) <= 1e-15

    def test_dichotomy_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = rng.uniform(-3, 3, 3)
            m = rng.uniform(0.2, 3.0)
            ep = energy_of(p, m)
            for mode in TRIPLET_MODES:
                pol = polarization_vector(p, mode, m)
                scale = (1 + (ep**2 + p @ p) / (2 * m) + m / 2) * np.max(np.abs(pol.u))
                assert proca_residual(pol) <= 1e-12 * scale
            tl = polarization_vector(p, "0_t", m)
            expected = (m / 2) * np.max(np.abs(tl.u))
            assert abs(proca_residual(tl) - expected) <= 1e-12 * expected


class TestNormalizationChange:
    def test_transverse_z_axis(self):
        pol = polarization_vector(np.array([0.0, 0.0, 3.0]), "+1", 4.0)
        assert normalization_change_check(pol) <= 1e-12

    def test_longitudinal_rest_frame(self):
        pol = polarization_vector(REST, "0", 1.0)
        assert normalization_change_check(pol) <= 1e-15

    def test_timelike_fails_with_m_squared_pattern(self):
        pol = polarization_vector(REST, "0_t", 1.5)
        expected = 1.5**2 * np.max(np.abs(2 * 1.5 * pol.u))
        assert abs(normalization_change_check(pol) - expected) <= 1e-12 * expected


class TestPhaseRelation:
    def test_unit_modulus_generic(self):
        ratio = phase_relation(np.array([0.7, -1.1, 0.4]), "+1", "B", 1.0)
        assert abs(abs(ratio) - 1.0) <= 1e-10

    def test_z_axis_longitudinal_magnetic_degenerate(self):
        with pytest.raises(DegenerateMode):
            phase_relation(np.array([0.0, 0.0, 2.0]), "0", "B", 1.0)

    def test_longitudinal_electric_negative_sign(self):
        ratio = phase_relation(np.array([0.7, -1.1, 0.4]), "0", "E", 1.0)
        assert abs(ratio + 1.0) <= 1e-10

    def test_sign_pattern_sweep(self):
        rng = np.random.default_rng(24)
        signs = {"+1": 1.0, "0": -1.0, "-1": 1.0}
        count = 0
        while count < 100:
            p = rng.uniform(-3, 3, 3)
            if min(abs(p[0]), abs(p[1])) < 1e-2:
                continue
            count += 1
            m = rng.uniform(0.2, 3.0)
            for kind in ("B", "E"):
                for mode, sign in signs.items():
                    ratio = phase_relation(p, mode, kind, m)
                    assert abs(abs(ratio) - 1.0) <= 1e-10
                    assert abs(ratio - sign) <= 1e-10


class TestMasslessScaling:
    def test_timelike_diverges_like_1_over_m(self):
        slope = massless_scaling("0_t", CONSTANT, np.array([0.0, 0.0, 1.0]))
        assert abs(slope - (-1.0)) <= 0.02

    def test_longitudinal_diverges_like_1_over_m(self):
        slope = massless_scaling("0", CONSTANT, np.array([0.0, 0.0, 1.0]))
        assert abs(slope - (-1.0)) <= 0.02

    def test_transverse_with_mass_normalization_finite(self):
        # generic momentum: p_r != 0 keeps the m -> 0 limit nonzero
        for mode in ("+1", "-1"):
            slope = massless_scaling(mode, MASS, np.array([1.0, 2.0, 2.0]))
            assert abs(slope) <= 0.02

    def test_transverse_on_z_axis_vanishes_linearly(self):
        # frame artifact: at p_r = 0 the N = m transverse vector is
        # -(1/sqrt(2))(0, m, im, 0), so |u| = m and the fitted slope is +1
        slope = massless_scaling("+1", MASS, np.array([0.0, 0.0, 1.0]))
        assert abs(slope - 1.0) <= 0.02

    def test_ladder_matches_closed_form(self):
        norms = [
            np.linalg.norm(polarization_vector(np.array([0.0, 0.0, 1.0]), "0_t", m).u)
            for m in MASSLESS_SCAN_MASSES
        ]
        # |u| = sqrt(E_p^2 + |p|^2) / m
        for m, norm in zip(MASSLESS_SCAN_MASSES, norms):
            expected = np.sqrt((1 + m * m) + 1.0) / m
            assert abs(norm - expected) <= 1e-12 * expected

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroMomentum):
            massless_scaling("0", CONSTANT, REST)

    def test_slope_is_the_fit_of_massless_norms(self):
        p = np.array([0.3, -0.4, 2.5])
        norms = massless_norms("0", SQRT_MASS, p)
        batch = polarization_vector(p, "0", np.array(MASSLESS_SCAN_MASSES), SQRT_MASS).u
        assert np.array_equal(norms, np.linalg.norm(batch, axis=-1))
        fit = np.polyfit(np.log(MASSLESS_SCAN_MASSES), np.log(norms), 1)[0]
        assert massless_scaling("0", SQRT_MASS, p) == fit

    @pytest.mark.parametrize("mode, p", [("0", [0, 0, 1e150]), ("0_t", [1e150, 0, 0])])
    def test_overflowing_norm_rejected(self, mode, p):
        # |u| ~ |p|/m is 1e156 at m = 1e-6: finite, but its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChiMaxwellError, match="overflows"):
                massless_scaling(mode, CONSTANT, p)


class TestGaugeTransform:
    def test_zero_gauge_vector_is_identity(self):
        pol = polarization_vector(np.array([1.0, 0.0, 2.0]), "+1", 1.0)
        f = ast_from_potential(pol, +1)
        f2 = ast_gauge_transform(f, np.zeros(4), pol.p, energy_of(pol.p, pol.mass))
        assert np.array_equal(f.f, f2.f)

    def test_momentum_direction_is_identity(self):
        p = np.array([0.5, -0.7, 1.2])
        m = 0.9
        pol = polarization_vector(p, "-1", m)
        f = ast_from_potential(pol, +1)
        p4 = four_momentum(p, m)
        f2 = ast_gauge_transform(f, 1.75 * p4, p, energy_of(p, m))
        assert np.max(np.abs(f2.f - f.f)) <= 1e-15 * np.max(np.abs(f.f))

    def test_generic_shift_rank_two_antisymmetric(self):
        rng = np.random.default_rng(25)
        p = np.array([1.0, 2.0, -0.5])
        energy = energy_of(p, 1.1)
        pol = polarization_vector(p, "0", 1.1)
        f = ast_from_potential(pol, +1)
        for _ in range(20):
            lam = rng.normal(size=4) + 1j * rng.normal(size=4)
            f2 = ast_gauge_transform(f, lam, p, energy)
            delta = f2.f - f.f
            assert np.array_equal(f2.f, -f2.f.T)
            sv = np.linalg.svd(delta, compute_uv=False)
            assert sv[2] <= 1e-12 * sv[0] and sv[3] <= 1e-12 * sv[0]


class TestModeGram:
    def test_diagonal_pattern_with_mass_normalization(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            p = rng.uniform(-3, 3, 3)
            m = rng.uniform(0.2, 3.0)
            gram = mode_gram(p, m, MASS)
            expected = np.diag([-m * m, -m * m, -m * m, m * m])
            assert np.max(np.abs(gram - expected)) <= 1e-12 * m * m * (
                1 + (p @ p) / (m * m))


@pytest.mark.parametrize("call", [
    lambda: polarization_vector(np.ones(3), "2", 1.0),
    lambda: field_triplet(np.ones(3), "+1", "C", +1, 1.0),
    lambda: field_triplet(np.ones(3), "+1", "B", 0, 1.0),
    lambda: ast_from_potential(polarization_vector(np.ones(3), "0", 1.0), 0),
    lambda: ASTField(np.ones((4, 4))),
], ids=["unknown-mode", "unknown-kind", "zero-energy-sign", "zero-tensor-sign",
        "symmetric-tensor"])
def test_bad_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_mode_constants():
    assert MODES == ("+1", "-1", "0", "0_t")
    assert TRIPLET_MODES == ("+1", "-1", "0")
    assert MASSLESS_SCAN_MASSES == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
