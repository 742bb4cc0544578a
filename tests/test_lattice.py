import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls_lab.lattice import Lattice, LatticeError, dual_basis, make_kgrid

from oracles import bz_coefficients, wrap_to_bz


def test_dual_basis_1d():
    assert np.allclose(dual_basis(np.array([[1.0]])), [[2 * np.pi]])


def test_dual_basis_identity_2d():
    D = dual_basis(np.eye(2))
    assert np.allclose(D, 2 * np.pi * np.eye(2))


def test_dual_basis_hexagonal_linear_solve_oracle():
    basis = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    D = dual_basis(basis)
    # oracle: solve the defining 2x2 linear systems directly
    for k in range(2):
        rhs = 2 * np.pi * np.eye(2)[k]
        ek_star = np.linalg.solve(basis, rhs)
        assert np.allclose(D[k], ek_star, atol=1e-12)
    assert np.abs(basis @ D.T - 2 * np.pi * np.eye(2)).max() < 1e-12


def test_dual_basis_involution():
    # the construction applied twice returns the original basis
    rng = np.random.default_rng(5)
    for _ in range(20):
        basis = rng.normal(size=(2, 2))
        if abs(np.linalg.det(basis)) < 0.2:
            continue
        assert np.allclose(dual_basis(dual_basis(basis)), basis, atol=1e-10)


def test_singular_basis_rejected():
    with pytest.raises(LatticeError):
        dual_basis(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_wrap_simple_1d():
    lat = Lattice.cubic(1)
    assert abs(wrap_to_bz(2 * np.pi + 0.3, lat) - 0.3) < 1e-12


def test_wrap_identity_inside():
    lat = Lattice.cubic(2)
    k = np.array([0.3, -1.1])
    assert np.allclose(wrap_to_bz(k, lat), k)


def test_wrap_integer_roundtrip_hexagonal():
    basis = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    lat = Lattice.from_basis(basis)
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = rng.normal(scale=20.0, size=2)
        w = wrap_to_bz(k, lat)
        coeff = bz_coefficients(k - w, lat)
        assert np.abs(coeff - np.round(coeff)).max() < 1e-9
        alpha = bz_coefficients(w, lat)
        assert np.all(alpha >= -0.5 - 1e-12) and np.all(alpha < 0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6),
       st.floats(-30, 30), st.floats(-30, 30))
def test_wrap_equivariance_and_idempotence(c1, c2, k1, k2):
    lat = Lattice.from_basis([[1.0, 0.1], [0.0, 0.8]])
    k = np.array([k1, k2])
    gstar = lat.dual_vector([c1, c2])
    w1 = wrap_to_bz(k, lat)
    w2 = wrap_to_bz(k + gstar, lat)
    assert np.abs(w1 - w2).max() < 1e-9
    assert np.abs(wrap_to_bz(w1, lat) - w1).max() < 1e-12


def test_kgrid_1d_pattern():
    lat = Lattice.cubic(1)
    g = make_kgrid(lat, 4)
    expected = np.array([-np.pi + np.pi / 4 * (2 * m + 1) for m in range(4)])
    assert np.allclose(np.sort(g.points.ravel()), np.sort(expected))
    assert np.all(g.points >= -np.pi) and np.all(g.points < np.pi)


def test_kgrid_single_point():
    g = make_kgrid(Lattice.cubic(2), 1)
    assert g.points.shape == (1, 2)
    assert np.allclose(g.points, 0.0)


def test_kgrid_wrap_invariance_2d():
    lat = Lattice.cubic(2)
    g = make_kgrid(lat, (8, 8))
    assert g.n_points == 64
    assert np.abs(wrap_to_bz(g.points, lat) - g.points).max() < 1e-12


@pytest.mark.parametrize("basis", [
    [[1.0]], np.eye(2), [[1.0, 0.0], [0.0, 1.3]], [[1.0, 0.0], [0.5, np.sqrt(3) / 2]],
    np.eye(3)], ids=["1d", "square", "rectangular", "hexagonal", "cubic-3d"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15])
def test_kgrid_steps_cross_the_zone_boundary_only_at_the_seam(basis, n):
    # the geometry's closure relies on it: along each axis the coefficients
    # step by 1/n, and only the seam link back to the first point crosses a
    # dual translation, by -1
    lat = Lattice.from_basis(basis)
    g = make_kgrid(lat, n)
    alpha = g.reshape(bz_coefficients(g.points, lat))
    for ax in range(lat.dim):
        steps = np.moveaxis(np.roll(alpha, -1, axis=ax) - alpha, ax, 0)
        expected = np.zeros((n, lat.dim))
        expected[:, ax] = 1.0 / n
        expected[-1, ax] -= 1.0
        assert np.abs(steps - expected.reshape((n,) + (1,) * (lat.dim - 1) + (lat.dim,))
                      ).max() < 1e-12


def test_kgrid_rejects_bad_shape():
    with pytest.raises(LatticeError):
        make_kgrid(Lattice.cubic(1), 0)
    with pytest.raises(LatticeError):
        make_kgrid(Lattice.cubic(2), (4,))
