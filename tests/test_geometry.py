import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from peierls_lab.cli import _solve_configured_bands
from peierls_lab.config import parse_config
from peierls_lab.fiber import (BandStructure, FourierPotential, mathieu_potential,
                               potential_2d, solve_bands)
from peierls_lab.geometry import (Frame, GaugeError, _k_derivatives, _smooth_gauge,
                                  berry_connection, berry_curvature,
                                  chern_from_vectors, curvature_from_vectors,
                                  fix_gauge, geometric_tensors,
                                  rammal_wilkinson, wilson_loop)
from peierls_lab.lattice import Lattice, make_kgrid

from oracles import rw_spectral_sum_oracle, shift_matrix

ROOT = Path(__file__).resolve().parents[1]

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
    A, _ = berry_connection(fr, _k_derivatives(fr))
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
    A, _ = berry_connection(fr, _k_derivatives(fr))
    zak_from_A = float(np.sum(A) * 2 * np.pi / 64)
    assert abs(np.angle(np.exp(1j * (zak_from_A - zak)))) < 5e-3


def test_gauge_shift_moves_connection():
    _, fr = mathieu_frame(128)
    A, _ = berry_connection(fr, _k_derivatives(fr))
    k = fr.kgrid.points.ravel()
    theta = 0.3 * np.sin(k)
    shifted = dataclasses.replace(fr, vectors=fr.vectors *
                                  np.exp(1j * theta)[:, None])
    A2, _ = berry_connection(shifted, _k_derivatives(shifted))
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
    _, fr = mathieu_frame(32)
    M = rammal_wilkinson(fr, _k_derivatives(fr))
    assert np.abs(M).max() < 1e-12


def test_rw_2d_matches_spectral_sum_oracle():
    pot = potential_2d(1.0, 0.3)
    bands = solve_bands(pot, make_kgrid(LAT2, (9, 9)), 4, 2)
    fr = fix_gauge(bands, 0)
    M = rammal_wilkinson(fr, _k_derivatives(fr))
    oracle = rw_spectral_sum_oracle(bands, fr)
    assert np.abs(M - oracle).max() < 1e-6
    assert np.abs(M[..., 0, 1]).max() > 1e-4  # non-separable potential: nonzero


def test_geometric_tensors_differentiates_the_frame_once(monkeypatch):
    from peierls_lab import geometry
    bands = solve_bands(potential_2d(1.0, 0.3), make_kgrid(LAT2, (9, 9)), 4, 2, (0,))
    frame = fix_gauge(bands, 0)
    A, residue = berry_connection(frame, _k_derivatives(frame))
    M = rammal_wilkinson(frame, _k_derivatives(frame))
    calls = []
    differentiate = geometry._k_derivatives
    monkeypatch.setattr(geometry, "_k_derivatives",
                        lambda fr: calls.append(fr) or differentiate(fr))
    geom = geometric_tensors(bands, 0)
    assert len(calls) == 1
    # the shared derivatives give the figures of separate calls, bit for bit
    assert np.array_equal(geom.connection, A) and np.array_equal(geom.rw, M)
    assert geom.diagnostics["connection_imag_residue"] == residue


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
    A_ref, _ = berry_connection(frames[432], _k_derivatives(frames[432]))
    errs = []
    for n in (48, 144):
        A, _ = berry_connection(frames[n], _k_derivatives(frames[n]))
        step = 432 // n
        shared_ref = A_ref.ravel()[(step - 1) // 2::step]
        errs.append(np.abs(A.ravel() - shared_ref).max())
    rate = np.log(errs[0] / errs[1]) / np.log(3.0)
    assert 1.7 < rate < 2.3


LAT3 = Lattice.cubic(3)


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
            _smooth_gauge(v, None, points)
        return
    out = _smooth_gauge(v, None, points)
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
    bands = SimpleNamespace(kgrid=make_kgrid(LAT3, v.shape[:-1]),
                            translate=lambda vectors, axis, c: vectors)
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


def test_tensors_are_bit_identical_with_the_dense_shift_matrix(monkeypatch):
    # flow_2d.json's band through the pipeline twice: with the index gather
    # of BandStructure.translate and with the dense 0/1 matrix it replaced
    cfg = parse_config((ROOT / "configs" / "flow_2d.json").read_text())
    band = cfg.numerics.band_index
    bands = _solve_configured_bands(cfg, (band,))
    gathered = geometric_tensors(bands, band)
    calls = []

    def dense(self, vectors, axis, c):
        n_shift = np.zeros(self.basis.lattice.dim, dtype=int)
        n_shift[axis] = c
        calls.append(n_shift)
        return vectors @ shift_matrix(self.basis, n_shift).T

    monkeypatch.setattr(BandStructure, "translate", dense)
    multiplied = geometric_tensors(bands, band)
    assert calls
    assert np.array_equal(gathered.frame.vectors, multiplied.frame.vectors)
    for name in ("connection", "curvature", "rw", "chern", "diagnostics"):
        assert np.array_equal(getattr(gathered, name), getattr(multiplied, name)), name


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class QWZBand:
    """The lower band of the two-orbital Qi-Wu-Zhang model H(k) = d(k).sigma,
    d = (sin k1, sin k2, mass - cos k1 - cos k2), as a band family for the
    geometry: the orbitals sit on the sites, so H(k + 2 pi e_j) = H(k) and
    translate is the identity.  The vectors carry random phases."""

    n_bands = 2

    def __init__(self, n, mass=3.0, seed=0):
        self.kgrid = make_kgrid(LAT2, (n, n))
        k1, k2 = self.kgrid.points.T
        self.d = np.stack([np.sin(k1), np.sin(k2), mass - np.cos(k1) - np.cos(k2)], axis=-1)
        self.hamiltonian = np.einsum("pa,aij->pij", self.d, PAULI)
        energies, vectors = np.linalg.eigh(self.hamiltonian)
        self.energies = np.ascontiguousarray(energies.T)
        self.guard_energies = np.full(self.kgrid.n_points, np.inf)
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(self.kgrid.n_points))
        self.vectors = vectors[:, :, 0] * phases[:, None]

    def frame(self, band):
        assert band == 0
        return self.kgrid.reshape(self.vectors)

    def translate(self, vectors, axis, c):
        return vectors

    def shifted_hamiltonian(self, x, band):
        return (self.hamiltonian @ x[..., None])[..., 0] - self.energies[band][:, None] * x

    def exact_curvature(self):
        """Omega_12 = (1/2) d.(d_1 d x d_2 d) / |d|^3 of the lower band."""
        k1, k2 = self.kgrid.points.T
        d1 = np.stack([np.cos(k1), 0 * k1, np.sin(k1)], axis=-1)
        d2 = np.stack([0 * k2, np.cos(k2), np.sin(k2)], axis=-1)
        cross = np.einsum("pa,pa->p", self.d, np.cross(d1, d2))
        return self.kgrid.reshape(0.5 * cross / np.linalg.norm(self.d, axis=-1) ** 3)


def test_qwz_lattice_band_runs_through_the_geometry():
    # a second fiber family, not plane waves, through geometric_tensors
    # unchanged.  Its band carries Omega and M, zero on every cosine band:
    # H - E_- = (E_+ - E_-) P_+ gives M_12 = (E_+ - E_-) Omega_12 / 4.
    # Measured max |M - (E_+ - E_-) Omega_exact / 4| 0.040 / 0.0117 / 0.0031
    # on 21^2 / 41^2 / 81^2 (rate 1.84, then 1.95); max |Omega| 0.40 / 0.47 /
    # 0.49, first-order off Omega_exact because a plaquette sits half a cell
    # from the point that stores it.
    errors = []
    for n in (41, 81):
        family = QWZBand(n)
        geom = geometric_tensors(family, 0)
        exact = family.exact_curvature()
        gap = family.kgrid.reshape(family.energies[1] - family.energies[0])
        M, Omega = geom.rw[..., 0, 1], geom.curvature[..., 0, 1]
        assert abs(geom.chern) < 1e-12
        assert np.abs(Omega).max() > 0.45 and np.abs(Omega - exact).max() < 0.1
        assert np.abs(M).max() > 0.2
        assert np.abs(geom.rw + np.swapaxes(geom.rw, -1, -2)).max() < 1e-12
        errors.append(np.abs(M - gap * exact / 4).max())
    assert errors[1] < 0.005
    rate = np.log(errors[0] / errors[1]) / np.log(81 / 41)
    assert 1.8 < rate < 2.2
