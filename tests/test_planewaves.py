"""Factorization identity and the chi-extended plane-wave families."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chimaxwell.errors import ChiMaxwellError, PreconditionViolated, ZeroMomentum
from chimaxwell.planewaves import (
    MomentumState,
    RSVector,
    build_generalized_planewave,
    chi_onshell_residual,
    factorization_residual,
    generalized_solution_residual,
    helicity_eigenvector,
    standard_solution_residual,
)
from chimaxwell.spin_algebra import spin_dot_p

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class TestDomainTypes:
    def test_rs_vector_field_accessors(self):
        v = RSVector(np.array([1.0 + 2.0j, -0.5, 0.25j]), chi=1.0)
        assert np.array_equal(v.e_field, [1.0, -0.5, 0.0])
        assert np.array_equal(v.b_field, [-2.0, 0.0, -0.25])

    def test_on_shell_predicate(self):
        p = np.array([3.0, 0.0, 4.0])
        assert MomentumState(5.0, p, 0.0).on_shell()
        assert MomentumState(-5.0, p, 0.0).on_shell()
        assert not MomentumState(5.1, p, 0.0).on_shell()
        assert MomentumState(np.sqrt(29.0), p, 2.0).on_shell()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MomentumState(1.0, np.zeros(2))
        with pytest.raises(ValueError):
            RSVector(np.zeros(4))


class TestHelicityEigenvector:
    def test_z_axis_values(self):
        z = np.array([0.0, 0.0, 1.0])
        assert np.allclose(helicity_eigenvector(z, -1),
                           np.array([1.0, -1.0j, 0.0]) / np.sqrt(2), atol=1e-15)
        assert np.allclose(helicity_eigenvector(z, +1),
                           -np.array([1.0, 1.0j, 0.0]) / np.sqrt(2), atol=1e-15)
        assert np.allclose(helicity_eigenvector(z, 0), [0, 0, 1], atol=1e-15)

    def test_x_axis_value(self):
        # R_y(pi/2) maps the z-frame -1 eigenvector to (0, -i, -1)/sqrt(2)
        e = helicity_eigenvector(np.array([1.0, 0.0, 0.0]), -1)
        assert np.allclose(e, np.array([0.0, -1.0j, -1.0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("p, closed_forms", [
        # R_z(phi) R_y(theta) of the z-frame eigenvectors at exact angles:
        # (theta, phi) = (0, 0), (pi, 0), (pi/2, 0), (pi/2, pi), (pi/2, +-pi/2)
        ((0, 0, 1), {1: (-1, -1j, 0), -1: (1, -1j, 0), 0: (0, 0, 1)}),
        ((0, 0, -1), {1: (1, -1j, 0), -1: (-1, -1j, 0), 0: (0, 0, -1)}),
        ((1, 0, 0), {1: (0, -1j, 1), -1: (0, -1j, -1), 0: (1, 0, 0)}),
        ((-1, 0, 0), {1: (0, 1j, 1), -1: (0, 1j, -1), 0: (-1, 0, 0)}),
        ((0, 1, 0), {1: (1j, 0, 1), -1: (1j, 0, -1), 0: (0, 1, 0)}),
        ((0, -1, 0), {1: (-1j, 0, 1), -1: (-1j, 0, -1), 0: (0, -1, 0)}),
    ], ids=["+z", "-z", "+x", "-x", "+y", "-y"])
    def test_axis_closed_forms_exact(self, p, closed_forms):
        # bit for bit, so every component off the closed form is exactly 0
        for h, want in closed_forms.items():
            want = np.array(want, dtype=complex) / (1.0 if h == 0 else np.sqrt(2))
            assert np.all(helicity_eigenvector(np.array(p, dtype=float), h) == want)

    def test_eigenvector_property_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = rng.uniform(-5, 5, 3)
            if np.linalg.norm(p) < 1e-3:
                continue
            sp = spin_dot_p(p)
            for h in (-1, 0, 1):
                e = helicity_eigenvector(p, h)
                assert abs(np.linalg.norm(e) - 1.0) <= 1e-13
                assert np.max(np.abs(sp @ e - h * np.linalg.norm(p) * e)) <= 1e-12
                if h != 0:
                    assert abs(np.dot(p, e)) <= 1e-12 * np.linalg.norm(p)

    def test_zero_momentum_raises(self):
        with pytest.raises(ZeroMomentum):
            helicity_eigenvector(np.zeros(3), -1)

    @pytest.mark.parametrize("p", [(0, 0, 1e200), (1e155, 0, 0), (np.nan, 0, 1),
                                   (0, -np.inf, 1)], ids=["1e200", "1e155", "nan", "inf"])
    def test_non_finite_p_squared_raises(self, p):
        # p.p overflows or is NaN; a warning here would fail the test too
        with pytest.raises(ChiMaxwellError, match="not finite"):
            helicity_eigenvector(np.array(p, dtype=float), 0)
        with pytest.raises(ChiMaxwellError, match="not finite"):
            helicity_eigenvector(np.array([(0.0, 0.0, 1.0), p], dtype=float), [1, 0])

    def test_largest_momentum_still_accepted(self):
        # p.p = 1e308 is still finite
        assert np.allclose(helicity_eigenvector(np.array([0.0, 0.0, 1e154]), 0),
                           [0, 0, 1], atol=1e-15)


class TestFactorizationIdentity:
    def test_z_axis_example(self):
        state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]))
        v = RSVector(np.array([1.0, 1.0j, 0.0]) / np.sqrt(2), chi=0.7 + 0.1j)
        assert factorization_residual(state, v) <= 1e-14

    def test_trivial_zero_state(self):
        state = MomentumState(0.0, np.zeros(3))
        v = RSVector(np.array([0.2, -1.0j, 0.5 + 0.5j]))
        assert factorization_residual(state, v) == 0.0

    def test_off_shell_sweep(self):
        # the identity is algebraic: it cannot tell on-shell from off-shell
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            e = rng.uniform(-10, 10)
            p = rng.uniform(-10, 10, 3)
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            scale = (1.0 + e * e + p @ p) * np.linalg.norm(psi)
            res = factorization_residual(MomentumState(e, p), RSVector(psi))
            worst = max(worst, res / scale)
        assert worst <= 1e-12

    @given(finite, st.tuples(finite, finite, finite),
           st.tuples(finite, finite, finite), st.tuples(finite, finite, finite))
    @settings(max_examples=100)
    @example(0.0, (1.0, 2.0, 9.0), (0.0, 0.0, 0.0), (7.5e-263, 0.0, 0.0))
    def test_property_arbitrary_inputs(self, e, p, re, im):
        p = np.array(p)
        psi = np.array(re) + 1j * np.array(im)
        # max |psi_i| rather than the norm: the norm's squares underflow
        # to 0 for psi ~ 1e-263, leaving a scale far below the roundoff
        scale = (1.0 + e * e + p @ p) * max(np.max(np.abs(psi)), np.finfo(float).tiny)
        res = factorization_residual(MomentumState(e, p), RSVector(psi))
        assert res <= 1e-12 * scale


class TestStandardSolutions:
    def test_helicity_minus_mode_solves(self):
        p = np.array([0.0, 0.0, 1.0])
        v = RSVector(np.array([1.0, -1.0j, 0.0]) / np.sqrt(2))
        r1, r2 = standard_solution_residual(MomentumState(1.0, p), v)
        assert r1 <= 1e-14 and r2 <= 1e-14

    def test_zero_vector_trivial(self):
        state = MomentumState(2.0, np.array([1.0, 1.0, 0.0]))
        assert standard_solution_residual(state, RSVector(np.zeros(3))) == (0.0, 0.0)

    def test_wrong_helicity_strictly_nonzero(self):
        # (S.p) psi = +|p| psi for this vector, so the first residual is
        # |E + |p|| * |psi| = 2 at E = |p| = 1
        p = np.array([0.0, 0.0, 1.0])
        v = RSVector(np.array([1.0, 1.0j, 0.0]) / np.sqrt(2))
        r1, r2 = standard_solution_residual(MomentumState(1.0, p), v)
        assert abs(r1 - 2.0) <= 1e-14
        assert r2 <= 1e-15


class TestGeneralizedSolutions:
    def test_chi_zero_reduces_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            state = MomentumState(rng.uniform(-5, 5), rng.uniform(-5, 5, 3))
            v = RSVector(rng.normal(size=3) + 1j * rng.normal(size=3), 0j)
            assert generalized_solution_residual(state, v) == \
                standard_solution_residual(state, v)

    def test_pure_longitudinal_mode(self):
        # psi = (p / E) chi solves both equations using (S.p) p = 0
        p = np.array([0.0, 0.0, 1.0])
        v = RSVector(np.array([0.0, 0.0, 1.0 + 0j]), chi=1.0)
        r1, r2 = generalized_solution_residual(MomentumState(1.0, p), v)
        assert r1 <= 1e-15 and r2 <= 1e-15

    def test_superposition_of_transverse_and_longitudinal(self):
        rng = np.random.default_rng(13)
        p = np.array([0.0, 0.0, 1.0])
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            chi = complex(rng.normal(), rng.normal())
            psi = a * np.array([1.0, -1.0j, 0.0]) / np.sqrt(2) + np.array([0, 0, 1]) * chi
            r1, r2 = generalized_solution_residual(MomentumState(1.0, p), RSVector(psi, chi))
            assert max(r1, r2) <= 1e-13 * (1 + abs(a) + abs(chi))

    def test_residual_is_subadditive(self):
        rng = np.random.default_rng(14)
        state = MomentumState(1.7, np.array([0.4, -2.0, 1.1]))
        for _ in range(50):
            v1 = RSVector(rng.normal(size=3) + 1j * rng.normal(size=3),
                          complex(rng.normal(), rng.normal()))
            v2 = RSVector(rng.normal(size=3) + 1j * rng.normal(size=3),
                          complex(rng.normal(), rng.normal()))
            a, b = complex(rng.normal()), complex(rng.normal())
            combo = RSVector(a * v1.psi + b * v2.psi, a * v1.chi + b * v2.chi)
            rc = generalized_solution_residual(state, combo)
            r1 = generalized_solution_residual(state, v1)
            r2 = generalized_solution_residual(state, v2)
            for i in range(2):
                assert rc[i] <= abs(a) * r1[i] + abs(b) * r2[i] + 1e-12


class TestBuildGeneralizedPlanewave:
    def test_z_axis_transverse_only(self):
        state, v = build_generalized_planewave(np.array([0.0, 0.0, 1.0]), +1, 1.0, 0.0)
        assert state.energy == 1.0
        assert np.allclose(v.psi, np.array([1.0, -1.0j, 0.0]) / np.sqrt(2), atol=1e-15)

    def test_z_axis_longitudinal_only(self):
        state, v = build_generalized_planewave(np.array([0.0, 0.0, 1.0]), +1, 0.0, 2.0)
        assert np.allclose(v.psi, [0.0, 0.0, 2.0], atol=1e-15)
        assert v.chi == 2.0

    def test_generic_momentum_negative_energy(self):
        p = np.array([3.0, 4.0, 0.0])
        state, v = build_generalized_planewave(p, -1, 1.0, 1.0)
        assert state.energy == -5.0
        scale = (1 + abs(state.energy) + 5.0) * (np.linalg.norm(v.psi) + 1)
        assert max(generalized_solution_residual(state, v)) <= 1e-13 * scale

    def test_zero_momentum_raises(self):
        with pytest.raises(ZeroMomentum):
            build_generalized_planewave(np.zeros(3), +1, 1.0, 0.0)

    @pytest.mark.parametrize("p", [(1e200, 0, 0), (0, np.nan, 1)], ids=["1e200", "nan"])
    def test_non_finite_p_squared_raises(self, p):
        with pytest.raises(ChiMaxwellError, match="not finite"):
            build_generalized_planewave(np.array(p, dtype=float), +1, 1.0, 0.0)

    @pytest.mark.parametrize("amplitude, chi", [(complex("inf"), 0.0), (1.0, complex("nan"))],
                             ids=["amplitude-inf", "chi-nan"])
    def test_non_finite_amplitude_or_chi_raises(self, amplitude, chi):
        with pytest.raises(ChiMaxwellError, match="must be finite"):
            build_generalized_planewave(np.array([0.0, 0.0, 1.0]), +1, amplitude, chi)

    def test_family_is_on_shell(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = rng.uniform(-10, 10, 3)
            if np.linalg.norm(p) < 1e-3:
                continue
            sign = int(rng.choice([-1, 1]))
            state, v = build_generalized_planewave(
                p, sign, complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()))
            assert state.on_shell()
            assert abs(abs(state.energy) - np.linalg.norm(p)) <= 1e-10

    def test_homogeneous_solution_helicity_sign(self):
        # E = +|p| pairs with helicity -1, E = -|p| with +1
        rng = np.random.default_rng(16)
        for sign in (+1, -1):
            p = rng.uniform(-3, 3, 3)
            state, v = build_generalized_planewave(p, sign, 1.0, 0.0)
            sp = spin_dot_p(p / np.linalg.norm(p))
            measured = np.vdot(v.psi, sp @ v.psi).real
            assert abs(measured - (-sign)) <= 1e-12


class TestChiOnShell:
    def test_constructed_family(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = rng.uniform(-5, 5, 3)
            if np.linalg.norm(p) < 1e-3:
                continue
            state, v = build_generalized_planewave(
                p, int(rng.choice([-1, 1])), complex(rng.normal()), complex(rng.normal()))
            scale = (1 + state.energy**2) * max(abs(v.chi), 1e-300)
            assert chi_onshell_residual(state, v) <= 1e-13 * max(scale, 1.0)

    def test_chi_zero_trivial(self):
        state, v = build_generalized_planewave(np.array([0.0, 0.0, 2.0]), +1, 1.0, 0.0)
        assert chi_onshell_residual(state, v) == 0.0

    def test_off_shell_input_rejected(self):
        state = MomentumState(2.0, np.array([0.0, 0.0, 1.0]))
        v = RSVector(np.array([0.0, 0.0, 0.5]), chi=1.0)
        with pytest.raises(PreconditionViolated):
            chi_onshell_residual(state, v)
