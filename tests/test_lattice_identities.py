"""The momentum-space identities on integer lattices, where they hold exactly.

Each identity is a polynomial of degree <= 3 in (E, p, psi, chi) whose
coefficients lie in {0, +-1, +-i}.  With E and p integers below 2^14 and
psi and chi of integer real and imaginary parts below 2^10, every product
and partial sum stays below 2^53, so float64 evaluates the identity exactly
and its residual is 0.0: no tolerance is needed.  A wrong coefficient leaves
a nonzero polynomial of degree <= 3, which by the Schwartz-Zippel lemma
vanishes at such a draw with probability at most 3/2^15, so a few hundred
draws expose it.
"""

import numpy as np
import pytest

from chimaxwell.planewaves import MomentumState, RSVector, factorization_residual
from chimaxwell.spin_algebra import annihilation_residual, product_identity_residual, spin_dot_p

DRAWS = 500


def integers(rng, bits, shape):
    return rng.integers(-(2**bits) + 1, 2**bits, shape).astype(np.float64)


def complex_integers(rng, bits, shape):
    return integers(rng, bits, shape) + 1j * integers(rng, bits, shape)


@pytest.fixture(params=[0, 1, 2])
def lattice(request):
    """(E, p, psi, chi) at DRAWS lattice points."""
    rng = np.random.default_rng(request.param)
    return (integers(rng, 14, DRAWS), integers(rng, 14, (DRAWS, 3)),
            complex_integers(rng, 10, (DRAWS, 3)), complex_integers(rng, 10, DRAWS))


def test_annihilation_is_exact(lattice):
    _, p, _, _ = lattice
    assert np.all(annihilation_residual(p) == 0.0)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_product_identity_is_exact(lattice, axis):
    _, p, _, _ = lattice
    assert np.all(product_identity_residual(axis, p) == 0.0)


def test_factorization_is_exact(lattice):
    e, p, psi, chi = lattice
    assert np.all(factorization_residual(MomentumState(e, p), RSVector(psi, chi)) == 0.0)


def test_contraction_is_exact(lattice):
    # the paper's step from the pair to the shell: p.R1 - E R2 = (E^2 - p^2) chi
    # with R1 = (E + S.p) psi - p chi and R2 = p.psi - E chi
    e, p, psi, chi = lattice
    r1 = (e[:, None] * psi + np.einsum("...jk,...k->...j", spin_dot_p(p), psi)
          - p * chi[:, None])
    r2 = np.einsum("...k,...k->...", p, psi) - e * chi
    shell = (e * e - np.einsum("...k,...k->...", p, p)) * chi
    assert np.max(np.abs(shell)) > 1e9  # far from a trivial zero
    assert np.all(np.einsum("...k,...k->...", p, r1) - e * r2 - shell == 0.0)
