"""Spin-1 matrix construction and the identities built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chimaxwell.errors import PreconditionViolated
from chimaxwell.planewaves import helicity_eigenvector
from chimaxwell.spin_algebra import (
    annihilation_residual,
    build_spin_matrices,
    dirac_chain_residual,
    levi_civita,
    product_identity_residual,
    singularity_report,
    spin_dot_p,
)
from chimaxwell.spin_algebra import _s_cross_p

finite_component = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def brute_force_eps(i, j, k):
    perms = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
             (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    return perms.get((i, j, k), 0)


def test_levi_civita_total_function():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert levi_civita(i, j, k) == brute_force_eps(i, j, k)


def test_sz_entries():
    _, _, sz = build_spin_matrices()
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = -1j
    expected[1, 0] = 1j
    assert np.array_equal(sz, expected)


def test_matrices_are_hermitian():
    for m in build_spin_matrices():
        assert np.array_equal(m, m.conj().T)


def test_commutation_relations_brute_force():
    mats = build_spin_matrices()
    for i in range(3):
        for j in range(3):
            rhs = sum(levi_civita(i, j, k) * mats[k] for k in range(3))
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            assert np.max(np.abs(comm - 1j * rhs)) <= 1e-15


def test_sz_eigenvalues_oracle():
    # independent eigen-decomposition of the constructed matrix
    _, _, sz = build_spin_matrices()
    eig = np.sort(np.linalg.eigvalsh(sz))
    assert np.allclose(eig, [-1.0, 0.0, 1.0], atol=1e-12)


def test_helicity_plus_minus_vectors_of_sz():
    # under this convention (1, +i, 0)/sqrt(2) carries +1, (1, -i, 0)/sqrt(2) -1
    _, _, sz = build_spin_matrices()
    v_plus = np.array([1, 1j, 0]) / np.sqrt(2)
    v_minus = np.array([1, -1j, 0]) / np.sqrt(2)
    assert np.max(np.abs(sz @ v_plus - v_plus)) <= 1e-15
    assert np.max(np.abs(sz @ v_minus + v_minus)) <= 1e-15


class TestSpinDotP:
    def test_zero_momentum_gives_zero_matrix(self):
        assert np.array_equal(spin_dot_p(np.zeros(3)), np.zeros((3, 3)))

    def test_unit_z_eigenvalues(self):
        eig = np.sort(np.linalg.eigvalsh(spin_dot_p(np.array([0.0, 0.0, 1.0]))))
        assert np.allclose(eig, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_spectrum_scales_with_momentum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(-10, 10, 3)
            norm = np.linalg.norm(p)
            eig = np.sort(np.linalg.eigvalsh(spin_dot_p(p)))
            assert np.allclose(eig, [-norm, 0.0, norm], atol=1e-12 * max(1, norm))

    def test_acts_as_i_p_cross(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-5, 5, 3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.max(np.abs(spin_dot_p(p) @ v - 1j * np.cross(p, v))) <= 1e-13

    def test_annihilates_its_own_momentum(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(spin_dot_p(p) @ p)) == 0.0


class TestAnnihilation:
    def test_example_momentum_exact(self):
        assert annihilation_residual(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_zero_momentum_exact(self):
        assert annihilation_residual(np.zeros(3)) == 0.0

    def test_randomized_sweep(self):
        rng = np.random.default_rng(5)
        worst = max(
            annihilation_residual(p)
            for p in rng.uniform(-10, 10, (1000, 3))
        )
        assert worst <= 1e-13

    @given(st.tuples(finite_component, finite_component, finite_component))
    @settings(max_examples=200)
    def test_property_all_momenta(self, comps):
        p = np.array(comps)
        assert annihilation_residual(p) <= 1e-14 * max(p @ p, 1e-300)


class TestProductIdentity:
    def test_zero_momentum_both_sides_vanish(self):
        assert product_identity_residual("x", np.zeros(3)) == 0.0

    def test_z_axis_unit(self):
        assert product_identity_residual("z", np.array([0.0, 0.0, 1.0])) <= 1e-15

    def test_reduction_oracle_z_axis(self):
        # brute-force check that Sz (S.p) at p = z_hat is diag(1, 1, 0)
        _, _, sz = build_spin_matrices()
        lhs = sz @ spin_dot_p(np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(lhs - np.diag([1.0, 1.0, 0.0]))) <= 1e-15

    def test_randomized_sweep_all_axes(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for p in rng.uniform(-10, 10, (500, 3)):
            for axis in ("x", "y", "z"):
                worst = max(
                    worst,
                    product_identity_residual(axis, p) / (1.0 + np.linalg.norm(p)),
                )
        assert worst <= 1e-13

    def test_s_cross_p_is_exact(self):
        # [S x p]^{i,jm} = i (delta^{ij} p_m - delta^{im} p_j): at most one
        # term an entry, so the tensor holds no roundoff at all
        p = np.random.default_rng(3).uniform(-10, 10, (50, 3))
        eye = np.eye(3)
        exact = 1j * (eye[:, :, None] * p[:, None, None, :]
                      - eye[:, None, :] * p[:, None, :, None])
        assert np.array_equal(_s_cross_p(p), exact)
        assert np.array_equal(_s_cross_p(p[7]), exact[7])


class TestDiracChain:
    def test_z_axis_eigenvector(self):
        # (S.z_hat) psi = -psi for psi = (1, -i, 0)/sqrt(2), so pt = 1 solves
        # {pt + S.p} psi = 0
        psi = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2)
        res = dirac_chain_residual(np.array([0.0, 0.0, 1.0]), 1.0, psi)
        assert max(res) <= 1e-12

    def test_rest_case_trivially_zero(self):
        psi = np.array([0.3 + 0.1j, -0.2, 0.9j])
        assert dirac_chain_residual(np.zeros(3), 0.0, psi) == (0.0, 0.0, 0.0)

    def test_randomized_on_shell_eigenvectors(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            h = int(rng.choice([-1, 1]))
            psi = helicity_eigenvector(p, h) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            pt = -h * np.linalg.norm(p)
            worst = max(worst, max(dirac_chain_residual(p, pt, psi)))
        assert worst <= 1e-11

    def test_rejects_non_solution(self):
        with pytest.raises(PreconditionViolated):
            dirac_chain_residual(np.array([0.0, 0.0, 1.0]), 1.0,
                                 np.array([1.0, 1.0j, 0.0]) / np.sqrt(2))

    def test_rejects_non_transverse(self):
        # pt = 0 makes the first-order equation trivial on the S.p kernel,
        # but p_hat itself is not transverse
        with pytest.raises(PreconditionViolated):
            dirac_chain_residual(np.array([0.0, 0.0, 1.0]), 0.0,
                                 np.array([0.0, 0.0, 1.0 + 0j]))


class TestSingularity:
    def test_determinants_vanish(self):
        assert singularity_report() == (0.0, 0.0, 0.0)

    def test_rank_two_oracle(self):
        for m in build_spin_matrices():
            assert np.linalg.matrix_rank(m) == 2

    def test_det_spin_dot_p_vanishes(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            norm = np.linalg.norm(p)
            assert abs(np.linalg.det(spin_dot_p(p))) <= 1e-13 * max(norm**3, 1e-300)
