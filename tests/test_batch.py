"""Leading batch axes: a batch equals its stacked single-state calls bit for
bit, single calls return plain scalars, and a bad member raises like it
does alone."""

import numpy as np
import pytest

from chimaxwell import planewaves as pw
from chimaxwell import polarization as pol
from chimaxwell import spin_algebra as sa
from chimaxwell.errors import (
    DegenerateMode,
    NonpositiveMass,
    PreconditionViolated,
    ZeroMomentum,
)

N = 6
rng = np.random.default_rng(2024)
P = rng.uniform(-3.0, 3.0, (N, 3))
M = rng.uniform(0.2, 3.0, N)
E = rng.uniform(-5.0, 5.0, N)
H = np.array([1, -1, 1, 1, -1, -1])
PSI = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
CHI = rng.normal(size=N) + 1j * rng.normal(size=N)
LAM = rng.normal(size=(N, 4)) + 1j * rng.normal(size=(N, 4))
# on-shell helicity states, the input of the derived chain
ON_SHELL_PSI = pw.helicity_eigenvector(P, H) * np.exp(1j * rng.uniform(0, 6.0, N))[:, None]
PT = -H * np.linalg.norm(P, axis=-1)


def _mode_field(p, m, mode="+1"):
    return pol.ast_from_potential(pol.polarization_vector(p, mode, m), +1)


CASES = {
    "spin_dot_p": (sa.spin_dot_p, P),
    "annihilation_residual": (sa.annihilation_residual, P),
    "product_identity_residual": (
        lambda p: [sa.product_identity_residual(axis, p) for axis in "xyz"], P),
    "dirac_chain_residual": (sa.dirac_chain_residual, P, PT, ON_SHELL_PSI),
    "helicity_eigenvector": (pw.helicity_eigenvector, P, H),
    "factorization_residual": (
        lambda e, p, psi, chi: pw.factorization_residual(
            pw.MomentumState(e, p), pw.RSVector(psi, chi)), E, P, PSI, CHI),
    "generalized_and_standard_residuals": (
        lambda e, p, psi, chi: [
            f(pw.MomentumState(e, p), pw.RSVector(psi, chi))
            for f in (pw.generalized_solution_residual, pw.standard_solution_residual)],
        E, P, PSI, CHI),
    "build_generalized_planewave": (pw.build_generalized_planewave, P, H, CHI, CHI[::-1]),
    "chi_onshell_residual": (
        lambda p, h, a, chi: pw.chi_onshell_residual(
            *pw.build_generalized_planewave(p, h, a, chi)), P, H, CHI, CHI[::-1]),
    "energy_of_and_four_momentum": (
        lambda p, m: pol.four_momentum(p, pol.energy_of(p, m)), P, M),
    "minkowski_product": (pol.minkowski_product, LAM, LAM[::-1]),
    "polarization_vector": (
        lambda p, m: [pol.polarization_vector(p, mode, m) for mode in pol.MODES], P, M),
    "proca_and_normalization_change": (
        lambda p, m: [(pol.proca_residual(v), pol.normalization_change_check(v))
                      for v in (pol.polarization_vector(p, mode, m) for mode in pol.MODES)],
        P, M),
    "mode_gram": (lambda p, m: pol.mode_gram(p, m, pol.MASS), P, M),
    "field_triplet": (
        lambda p, m: [pol.field_triplet(p, mode, kind, sign, m)
                      for mode in pol.TRIPLET_MODES for kind in "BE" for sign in (1, -1)],
        P, M),
    "ast_from_potential": (
        lambda p, m: [(f, pol.magnetic_from_ast(f), pol.electric_from_ast(f))
                      for f in (_mode_field(p, m, mode) for mode in pol.TRIPLET_MODES)],
        P, M),
    "phase_relation": (
        lambda p, m: [pol.phase_relation(p, mode, kind, m)
                      for mode in pol.TRIPLET_MODES for kind in "BE"], P, M),
    "ast_gauge_transform": (
        lambda p, m, lam: pol.ast_gauge_transform(
            _mode_field(p, m), lam, p, pol.energy_of(p, m)), P, M, LAM),
}


def leaves(result):
    """The arrays and scalars a result is made of, in a fixed order."""
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in leaves(item)]
    for cls, fields in ((pw.MomentumState, ("energy", "p", "mass")),
                        (pw.RSVector, ("psi", "chi")), (pol.Polarization4, ("u", "mass")),
                        (pol.FieldTriplet, ("vec",)), (pol.ASTField, ("f",))):
        if isinstance(result, cls):
            return [getattr(result, name) for name in fields]
    return [result]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_batch_equals_stacked_single_calls(name):
    fn, *args = CASES[name]
    singles = [leaves(fn(*(a[i] for a in args))) for i in range(N)]
    for shape in ((N,), (2, N // 2)):
        batch = leaves(fn(*(a.reshape(shape + a.shape[1:]) for a in args)))
        assert len(batch) == len(singles[0])
        for k, leaf in enumerate(batch):
            leaf = np.asarray(leaf)
            if leaf.shape[:len(shape)] != shape:  # a scalar shared by every member
                assert all(same_bits(s[k], leaf) for s in singles)
                continue
            stacked = np.stack([np.asarray(s[k]) for s in singles]).reshape(leaf.shape)
            assert same_bits(leaf, stacked), (name, k, shape)


@pytest.mark.parametrize("name", CASES)
def test_single_calls_return_plain_scalars(name):
    fn, *args = CASES[name]
    for leaf in leaves(fn(*(a[0] for a in args))):
        if isinstance(leaf, np.ndarray):
            assert leaf.ndim >= 1, name  # never a 0-d array
        else:
            assert isinstance(leaf, (bool, float, complex)), (name, type(leaf))


def test_on_shell_is_a_bool():
    p = np.array([3.0, 0.0, 4.0])
    assert pw.MomentumState(5.0, p).on_shell() is True
    assert pw.MomentumState(5.1, p).on_shell() is False
    energy = np.linalg.norm(P, axis=-1) * np.array([1, -1, 1, 1.1, 1, 0.9])
    batch = pw.MomentumState(energy, P).on_shell()
    assert batch == [pw.MomentumState(e, p).on_shell() for e, p in zip(energy, P)]
    assert batch == [True, True, True, False, True, False]


def test_shape_checks_hold_for_batches():
    with pytest.raises(ValueError):
        pw.MomentumState(np.ones(N), np.zeros((N, 2)))
    with pytest.raises(ValueError):
        pw.RSVector(np.zeros((N, 4)))


def _with_bad(arr, value, index=3):
    arr = np.array(arr, copy=True)
    arr[index] = value
    return arr


BAD_MEMBERS = {
    "not-a-solution": (
        PreconditionViolated,
        lambda p, pt, psi: sa.dirac_chain_residual(p, pt, psi),
        (P, PT, _with_bad(ON_SHELL_PSI, ON_SHELL_PSI[3].conj()))),
    "not-transverse": (
        PreconditionViolated,
        lambda p, pt, psi: sa.dirac_chain_residual(p, pt, psi),
        (P, _with_bad(PT, 0.0), _with_bad(ON_SHELL_PSI, P[3] / np.linalg.norm(P[3])))),
    "zero-momentum": (ZeroMomentum, pw.helicity_eigenvector, (_with_bad(P, 0.0), H)),
    "bad-helicity": (ValueError, pw.helicity_eigenvector, (P, _with_bad(H, 2))),
    "zero-momentum-planewave": (
        ZeroMomentum, pw.build_generalized_planewave, (_with_bad(P, 0.0), H, CHI, CHI)),
    "bad-energy-sign": (
        ValueError, pw.build_generalized_planewave, (P, _with_bad(H, 0), CHI, CHI)),
    "chi-off-shell": (
        PreconditionViolated,
        lambda e, p, psi, chi: pw.chi_onshell_residual(
            pw.MomentumState(e, p), pw.RSVector(psi, chi)),
        (_with_bad(np.linalg.norm(P, axis=-1), 9.0), P, P / np.linalg.norm(P, axis=-1)[:, None],
         np.ones(N))),
    "nonpositive-mass": (
        NonpositiveMass, lambda p, m: pol.polarization_vector(p, "0", m), (P, _with_bad(M, 0.0))),
    "degenerate-triplet": (
        DegenerateMode, lambda p, m: pol.phase_relation(p, "0", "B", m),
        (_with_bad(P, [0.0, 0.0, 2.0]), M)),
}


@pytest.mark.parametrize("name", BAD_MEMBERS)
def test_one_bad_member_raises_like_it_does_alone(name):
    error, fn, args = BAD_MEMBERS[name]
    with pytest.raises(error) as alone:
        fn(*(a[3] for a in args))
    with pytest.raises(error) as batch:
        fn(*args)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)
    fn(*(np.delete(a, 3, axis=0) for a in args))  # the other members are fine


def test_empty_batch():
    p, m = np.empty((0, 3)), np.empty(0)
    assert pol.phase_relation(p, "+1", "B", m).shape == (0,)
    assert sa.annihilation_residual(p).shape == (0,)
