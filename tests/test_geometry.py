import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from peierls_lab.fiber import (FourierPotential, mathieu_potential,
                               potential_2d, solve_bands)
from peierls_lab.geometry import (Frame, GaugeError, _smooth_gauge,
                                  berry_connection, berry_curvature,
                                  chern_from_vectors, curvature_from_vectors,
                                  fix_gauge, geometric_tensors,
                                  rammal_wilkinson, wilson_loop)
from peierls_lab.lattice import Lattice, make_kgrid

LAT1 = Lattice.cubic(1)
LAT2 = Lattice.cubic(2)


def mathieu_frame(n=64, v=1.0, cutoff=8):
    bands = solve_bands(mathieu_potential(v), make_kgrid(LAT1, n), cutoff, 3)
    return bands, fix_gauge(bands, 0)


def dirac_family(m, n=31):
    """Two-band test family H = d(k).sigma; returns the lower eigenvector
    field and the d-vectors."""
    ks = np.linspace(-np.pi, np.pi, n, endpoint=False) + np.pi / n
    K1, K2 = np.meshgrid(ks, ks, indexing="ij")
    d = np.stack([np.sin(K1), np.sin(K2), m - np.cos(K1) - np.cos(K2)], axis=-1)
    dn = np.linalg.norm(d, axis=-1)
    v = np.stack([-(d[..., 0] - 1j * d[..., 1]), d[..., 2] + dn], axis=-1)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v, d


def solid_angle_chern(d):
    """Closed-form Chern of the lower band of d.sigma via the discrete
    solid-angle sum (independent of eigenvectors)."""
    dn = d / np.linalg.norm(d, axis=-1, keepdims=True)

    def tri(a, b, c):
        num = np.einsum("ijk,ijk->ij", a, np.cross(b, c))
        den = 1 + np.einsum("ijk,ijk->ij", a, b) \
            + np.einsum("ijk,ijk->ij", b, c) + np.einsum("ijk,ijk->ij", c, a)
        return 2 * np.arctan2(num, den)

    d1 = np.roll(dn, -1, axis=0)
    d2 = np.roll(dn, -1, axis=1)
    d12 = np.roll(d1, -1, axis=1)
    omega = tri(dn, d1, d12) + tri(dn, d12, d2)
    return np.sum(omega) / (4 * np.pi)


def test_gauge_single_point_convention():
    bands = solve_bands(FourierPotential(LAT1, {}), make_kgrid(LAT1, 1), 3, 1)
    fr = fix_gauge(bands, 0)
    v = fr.vectors[0]
    first = v[np.nonzero(np.abs(v) > 1e-8 * np.abs(v).max())[0][0]]
    assert abs(first.imag) < 1e-14 and first.real > 0


def test_gauge_overlap_decay_second_order():
    devs = []
    for n in (32, 64, 128):
        _, fr = mathieu_frame(n)
        ov = np.einsum("ic,ic->i", np.conj(fr.vectors[:-1]), fr.vectors[1:])
        devs.append(np.abs(1 - ov).max())
    rate = np.log(devs[0] / devs[2]) / np.log(4.0)
    assert 0.8 < rate < 1.3  # |1 - overlap| = O(dk) from the distributed phase


def test_gauge_rerandomization_invariance():
    bands, fr = mathieu_frame(64)
    rng = np.random.default_rng(3)
    vecs = bands.vectors.copy()
    vecs[0] = vecs[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
    fr2 = fix_gauge(dataclasses.replace(bands, vectors=vecs), 0)
    assert np.abs(fr2.vectors - fr.vectors).max() < 1e-10


def test_gauge_degenerate_band_raises():
    V0 = FourierPotential(LAT1, {})
    # free bands 1 and 2 touch at k = 0, a point of every odd grid
    bands = solve_bands(V0, make_kgrid(LAT1, 33), 4, 3)
    with pytest.raises(GaugeError):
        fix_gauge(bands, 1)


def test_connection_free_band_zero_away_from_edge():
    V0 = FourierPotential(LAT1, {})
    bands = solve_bands(V0, make_kgrid(LAT1, 16), 4, 1)
    fr = fix_gauge(bands, 0)
    A, _ = berry_connection(fr)
    # the free band touches its neighbor at the zone edge; the statement
    # A = 0 holds away from it (the stencil at the seam sees the touching)
    assert np.abs(A.ravel()[2:-2]).max() < 1e-10


def test_zak_phase_inversion_symmetric():
    _, fr = mathieu_frame(64)
    zak = float(wilson_loop(fr))
    dist = min(abs(zak) % (2 * np.pi),
               abs(abs(zak) % (2 * np.pi) - np.pi),
               abs(abs(zak) % (2 * np.pi) - 2 * np.pi))
    assert dist < 1e-4
    # the distributed gauge makes the discrete A-integral land on the loop phase
    A, _ = berry_connection(fr)
    zak_from_A = float(np.sum(A) * 2 * np.pi / 64)
    assert abs(np.angle(np.exp(1j * (zak_from_A - zak)))) < 5e-3


def test_gauge_shift_moves_connection():
    _, fr = mathieu_frame(128)
    A, _ = berry_connection(fr)
    k = fr.kgrid.points.ravel()
    theta = 0.3 * np.sin(k)
    shifted = dataclasses.replace(fr, vectors=fr.vectors *
                                  np.exp(1j * theta)[:, None])
    A2, _ = berry_connection(shifted)
    # A -> A - dtheta/dk; wilson loop unchanged
    dk = 2 * np.pi / 128
    dtheta = (np.roll(theta, -1) - np.roll(theta, 1)) / (2 * dk)
    assert np.abs((A2.ravel() - A.ravel()) + dtheta).max() < 5e-3
    w1 = wilson_loop(fr)
    w2 = wilson_loop(shifted)
    assert abs(np.angle(np.exp(1j * (w1 - w2)))) < 1e-10


def test_curvature_free_region_zero():
    V0 = FourierPotential(LAT2, {})
    bands = solve_bands(V0, make_kgrid(LAT2, (9, 9)), 3, 1)
    fr = fix_gauge(bands, 0)
    Om, _ = berry_curvature(fr)
    assert np.abs(Om).max() < 1e-10


@pytest.mark.parametrize("m,expected", [(1.0, -1), (-1.0, 1), (3.0, 0)])
def test_chern_dirac_toy_vs_solid_angle(m, expected):
    v, d = dirac_family(m)
    c = chern_from_vectors(v)
    oracle = solid_angle_chern(d)
    assert abs(c - round(oracle)) < 1e-6
    assert round(oracle) == expected


def test_chern_gauge_rerandomization():
    v, _ = dirac_family(1.0)
    rng = np.random.default_rng(11)
    base = chern_from_vectors(v)
    for _ in range(20):
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, v.shape[:2]))
        assert abs(chern_from_vectors(v * ph[..., None]) - base) < 1e-10


def test_full_pipeline_2d_gauge_invariants():
    pot = potential_2d(1.0, 0.3)
    bands = solve_bands(pot, make_kgrid(LAT2, (13, 13)), 5, 3)
    g1 = geometric_tensors(bands, 0)
    rng = np.random.default_rng(7)
    vecs = bands.vectors.copy()
    vecs[0] = vecs[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
    g2 = geometric_tensors(dataclasses.replace(bands, vectors=vecs), 0)
    assert np.abs(g1.curvature - g2.curvature).max() < 1e-10
    assert np.abs(g1.rw - g2.rw).max() < 1e-10
    assert abs(g1.chern - g2.chern) < 1e-10
    assert abs(g1.chern - round(g1.chern)) < 1e-6
    # antisymmetry
    assert np.abs(g1.curvature + np.swapaxes(g1.curvature, -1, -2)).max() < 1e-12
    assert np.abs(g1.rw + np.swapaxes(g1.rw, -1, -2)).max() < 1e-12


def test_rw_1d_zero_and_diagnostic():
    bands, fr = mathieu_frame(32)
    M = rammal_wilkinson(bands, fr)
    assert np.abs(M).max() < 1e-12


def rw_spectral_sum_oracle(bands, frame):
    """Sum-over-states evaluation with independent one-sided stencils."""
    grid = frame.kgrid
    d = grid.dim
    full = solve_bands(bands.potential, grid, bands.basis.cutoff,
                       bands.basis.size)
    n_all = full.n_bands
    b = frame.band
    # derivatives of the frame by 4th-order one-sided-free centered stencil
    # over the grid (reuse the frame's own vectors, different combination)
    from peierls_lab.geometry import _k_derivatives
    dphi = _k_derivatives(frame)
    shape = grid.shape
    M = np.zeros(shape + (d, d))
    vecs_all = full.vectors  # (n_all, N, D)
    E_all = full.energies
    N = grid.n_points
    dphi_flat = dphi.reshape(d, N, -1)
    for p in range(N):
        t = np.zeros((d, d), dtype=complex)
        for m in range(n_all):
            if m == b:
                continue
            amp = np.conj(vecs_all[m, p]) @ dphi_flat[:, p, :].T  # (d,)
            t += np.outer(np.conj(amp), amp) * (E_all[m, p] - bands.energies[b, p])
        M.reshape(N, d, d)[p] = np.real(0.5j * t)
    return M


def test_rw_2d_matches_spectral_sum_oracle():
    pot = potential_2d(1.0, 0.3)
    bands = solve_bands(pot, make_kgrid(LAT2, (9, 9)), 4, 2)
    fr = fix_gauge(bands, 0)
    M = rammal_wilkinson(bands, fr)
    oracle = rw_spectral_sum_oracle(bands, fr)
    assert np.abs(M - oracle).max() < 1e-6
    assert np.abs(M[..., 0, 1]).max() > 1e-4  # non-separable potential: nonzero


def test_stencil_convergence_second_order():
    # centered grids nest under odd refinement: n and 3n share points
    # (m' = 3m + 1).  An inversion-breaking potential keeps A(k) genuinely
    # varying, so the second-order stencil error dominates.
    pot = FourierPotential(LAT1, {
        (1,): 0.8 + 0.3j, (-1,): 0.8 - 0.3j,
        (2,): 0.25 - 0.1j, (-2,): 0.25 + 0.1j})
    frames = {}
    for n in (48, 144, 432):
        bands = solve_bands(pot, make_kgrid(LAT1, n), 8, 2)
        frames[n] = fix_gauge(bands, 0)
    A_ref, _ = berry_connection(frames[432])
    errs = []
    for n in (48, 144):
        A, _ = berry_connection(frames[n])
        step = 432 // n
        shared_ref = A_ref.ravel()[(step - 1) // 2::step]
        errs.append(np.abs(A.ravel() - shared_ref).max())
    rate = np.log(errs[0] / errs[1]) / np.log(3.0)
    assert 1.7 < rate < 2.3


LAT3 = Lattice.cubic(3)


def identity_closure(vecs, axis, c):
    return vecs


@pytest.mark.parametrize("stack_axis", [None, 0, 1, 2])
@pytest.mark.parametrize("m", [1.0, -1.0, 3.0])
def test_gauge_obstruction_dirac(m, stack_axis):
    # a nonzero Chern number has no smooth periodic gauge; the 3-D stacks put
    # the Dirac plane through the last axis (0, 1) or inside the recursion (2)
    v, _ = dirac_family(m)
    if stack_axis is not None:
        v = np.stack([v] * 5, axis=stack_axis)
    points = np.moveaxis(np.indices(v.shape[:-1]), 0, -1)
    if m != 3.0:
        plane = {None: "(0, 1)", 0: "(1, 2)", 1: "(0, 2)", 2: "(0, 1)"}[stack_axis]
        with pytest.raises(GaugeError, match=re.escape(
                f"nonzero Chern number in plane {plane}")):
            _smooth_gauge(v, identity_closure, points)
        return
    out = _smooth_gauge(v, identity_closure, points)
    # a rephasing of the input that is smooth across every link, wrap included
    assert np.abs(np.abs(np.einsum("...c,...c->...", np.conj(out), v)) - 1).max() < 1e-12
    for ax in range(v.ndim - 1):
        links = np.einsum("...c,...c->...", np.conj(out), np.roll(out, -1, axis=ax))
        assert np.abs(np.angle(links)).max() < 0.1


def test_chern_is_the_signed_largest_over_planes_and_slices():
    # Dirac layers with Chern numbers 0, 0, -1 stacked along k_3; the
    # two-component vectors continue across the zone boundary unchanged
    ms = (3.0, 3.0, 1.0)
    v = np.stack([dirac_family(m)[0] for m in ms], axis=2)
    basis = SimpleNamespace(lattice=LAT3, shift_matrix=lambda n_shift: np.eye(2))
    bands = SimpleNamespace(kgrid=make_kgrid(LAT3, v.shape[:-1]), basis=basis)
    Omega, chern = berry_curvature(Frame(bands=bands, band=0, vectors=v))
    assert abs(chern + 1) < 1e-10
    # the Cartesian field of a layer is its plaquette angles over the plaquette area
    layer = -curvature_from_vectors(dirac_family(1.0)[0]) * (31 / (2 * np.pi)) ** 2
    assert np.abs(Omega[:, :, 2, 0, 1] - layer).max() < 1e-12


def separable_3d(v=1.0):
    """V(x) + V(y) + V(z) with the Mathieu V of mathieu_potential(v)."""
    return FourierPotential(LAT3, {
        n: v for ax in range(3) for n in (tuple(np.eye(3, dtype=int)[ax]),
                                          tuple(-np.eye(3, dtype=int)[ax]))})


PRODUCT_2D = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
              (1, 1): 0.6 * np.exp(0.9j), (-1, -1): 0.6 * np.exp(-0.9j)}


def product_coefficients(plane=(0, 1)):
    """V2 on the axes of `plane` (PRODUCT_2D, inversion broken by its (1, 1)
    coefficient) plus a Mathieu V1 on the third axis."""
    third = 3 - sum(plane)
    coeffs = {}
    for (i, j), c in PRODUCT_2D.items():
        n = [0, 0, 0]
        n[plane[0]], n[plane[1]] = i, j
        coeffs[tuple(n)] = c
    for s in (1, -1):
        coeffs[tuple(s * np.eye(3, dtype=int)[third])] = 1.0
    return coeffs


@pytest.fixture(scope="module")
def product_3d():
    bands = solve_bands(FourierPotential(LAT3, product_coefficients()),
                        make_kgrid(LAT3, 7), 2, 2)
    return bands, geometric_tensors(bands, 0)


def test_separable_3d_is_three_1d_bands():
    bands = solve_bands(separable_3d(), make_kgrid(LAT3, 7), 2, 2)
    geom = geometric_tensors(bands, 0)
    line = solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 7), 2, 2)
    e = line.energies[0]
    E = e[:, None, None] + e[None, :, None] + e[None, None, :]
    assert np.abs(bands.kgrid.reshape(bands.energies[0]) - E).max() < 1e-12
    zak = float(wilson_loop(fix_gauge(line, 0)))
    for ax in range(3):
        w = wilson_loop(geom.frame, ax)
        assert w.shape == (7, 7)
        assert np.abs(np.angle(np.exp(1j * (w - zak)))).max() < 1e-12
    assert np.abs(geom.curvature).max() < 1e-12
    assert np.abs(geom.rw).max() < 1e-12
    assert abs(geom.chern) < 1e-12


@pytest.mark.parametrize("plane", [(0, 1), (0, 2), (1, 2)])
def test_product_3d_curvature_is_the_2d_band(product_3d, plane):
    if plane == (0, 1):
        _, g3 = product_3d
    else:
        g3 = geometric_tensors(solve_bands(FourierPotential(LAT3, product_coefficients(plane)),
                                           make_kgrid(LAT3, 7), 2, 2), 0)
    g2 = geometric_tensors(solve_bands(FourierPotential(LAT2, PRODUCT_2D),
                                       make_kgrid(LAT2, 7), 2, 2), 0)
    third = 3 - sum(plane)
    om2 = np.expand_dims(g2.curvature[..., 0, 1], third)
    m2 = np.expand_dims(g2.rw[..., 0, 1], third)
    assert np.abs(om2).max() > 0.05 and np.abs(m2).max() > 1e-3
    a, b = plane
    assert np.abs(g3.curvature[..., a, b] - om2).max() < 1e-12
    assert np.abs(g3.rw[..., a, b] - m2).max() < 1e-12
    others = np.ones((3, 3), dtype=bool)
    others[a, b] = others[b, a] = False
    assert np.abs(g3.curvature[..., others]).max() < 1e-12
    assert np.abs(g3.rw[..., others]).max() < 1e-12


def test_rotated_lattice_3d_tensors_are_covariant(product_3d):
    # the same integer-coefficient potential on a rotated lattice has the same
    # bands in alpha coordinates, so Cartesian tensors turn with the rotation
    _, g3 = product_3d
    a, b = 0.7, 0.4
    R = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]]) @ \
        np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)], [0, np.sin(b), np.cos(b)]])
    lat = Lattice.from_basis(R.T)
    gr = geometric_tensors(solve_bands(FourierPotential(lat, product_coefficients()),
                                       make_kgrid(lat, 7), 2, 2), 0)
    turn = lambda T: np.einsum("mi,...ij,nj->...mn", R, T, R)
    assert np.abs(gr.curvature - turn(g3.curvature)).max() < 1e-12
    assert np.abs(gr.rw - turn(g3.rw)).max() < 1e-12
    assert np.abs(gr.connection - g3.connection @ R.T).max() < 1e-12


def test_full_pipeline_3d_gauge_invariants(product_3d):
    bands, g1 = product_3d
    rng = np.random.default_rng(7)
    vecs = bands.vectors.copy()
    vecs[0] = vecs[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
    g2 = geometric_tensors(dataclasses.replace(bands, vectors=vecs), 0)
    assert np.abs(g1.curvature - g2.curvature).max() < 1e-10
    assert np.abs(g1.rw - g2.rw).max() < 1e-10
    assert abs(g1.chern - g2.chern) < 1e-10
    assert abs(g1.chern - round(g1.chern)) < 1e-6
    assert np.abs(g1.curvature + np.swapaxes(g1.curvature, -1, -2)).max() < 1e-12
    assert np.abs(g1.rw + np.swapaxes(g1.rw, -1, -2)).max() < 1e-12
