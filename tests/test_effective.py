import dataclasses

import numpy as np
import pytest

from peierls_lab.effective import (BandData, EffectiveError,
                                   EffectiveHamiltonian,
                                   SemiclassicalHamiltonian,
                                   effective_observable, t_eff,
                                   t_eff_inverse)
from peierls_lab.fiber import fiber_matrix, potential_2d, solve_bands
from peierls_lab.fields import EMFieldConfig
from peierls_lab.geometry import geometric_tensors
from peierls_lab.interp import BLOCK
from peierls_lab.lattice import Lattice, make_kgrid
from peierls_lab.weyl import PhaseSpaceGrid

LAT2 = Lattice.cubic(2)
RNG = np.random.default_rng(0)


def cos_phi_callables(amp=0.4):
    phi = lambda r: amp * np.cos(np.asarray(r, float)[..., 0]) \
        * np.cos(np.asarray(r, float)[..., 1])

    def gphi(r):
        r = np.asarray(r, float)
        return np.stack([-amp * np.sin(r[..., 0]) * np.cos(r[..., 1]),
                         -amp * np.cos(r[..., 0]) * np.sin(r[..., 1])], -1)

    def hphi(r):
        r = np.asarray(r, float)
        d11 = -amp * np.cos(r[..., 0]) * np.cos(r[..., 1])
        d12 = amp * np.sin(r[..., 0]) * np.sin(r[..., 1])
        return np.stack([np.stack([d11, d12], -1),
                         np.stack([d12, d11], -1)], -2)
    return phi, gphi, hphi


def pipeline_band(shape=(17, 17), v=1.0, w=0.3, cutoff=5):
    bands = solve_bands(potential_2d(v, w), make_kgrid(LAT2, shape), cutoff, 3)
    return bands, BandData.from_geometry(geometric_tensors(bands, 0))


def field_2d(eps=0.05, lam=0.6, b=0.8):
    phi, gphi, hphi = cos_phi_callables()
    return EMFieldConfig.constant(2, b=b, eps=eps, lam=lam, phi=phi,
                                  grad_phi=gphi, hess_phi=hphi)


BANDS, BAND = pipeline_band()
FIELD = field_2d()


def test_h0_hofstadter_ansatz():
    bd = BandData.synthetic(LAT2, (33, 33),
                            lambda k: np.cos(k[..., 0]) + np.cos(k[..., 1]))
    fld = EMFieldConfig.zero(2, eps=0.1)
    h0 = EffectiveHamiltonian(bd, fld).h0
    k = RNG.uniform(-4, 4, (30, 2))
    r = RNG.uniform(-2, 2, (30, 2))
    assert np.abs(h0(k, r) - (np.cos(k[..., 0]) + np.cos(k[..., 1]))).max() < 1e-8


def test_h0_constant_band():
    bd = BandData.synthetic(LAT2, (9, 9), lambda k: 2.5 + 0 * k[..., 0])
    phi, gphi, hphi = cos_phi_callables(0.3)
    fld = EMFieldConfig.zero(2, eps=0.1, phi=phi, grad_phi=gphi, hess_phi=hphi)
    h0 = EffectiveHamiltonian(bd, fld).h0
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-3, 3, (10, 2))
    assert np.abs(h0(k, r) - (2.5 + phi(r))).max() < 1e-10


def test_h0_pipeline_sample_oracle():
    h0 = EffectiveHamiltonian(BAND, FIELD).h0
    grid = BANDS.kgrid
    for p in (0, 37, 101):
        k = grid.points[p]
        r = np.array([0.2, -0.4])
        expected = BANDS.energies[0, p] + FIELD.phi(r)
        assert abs(h0(k, r) - expected) < 1e-7


def test_h1_zero_without_geometry():
    bd = BandData.synthetic(LAT2, (9, 9), lambda k: np.cos(k[..., 0]))
    h1 = EffectiveHamiltonian(bd, field_2d()).h1
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-3, 3, (10, 2))
    assert np.abs(h1(k, r)).max() < 1e-12


def test_h1_electric_only_form():
    fld0 = dataclasses.replace(FIELD, lam=0.0)
    h1 = EffectiveHamiltonian(BAND, fld0).h1
    k = RNG.uniform(-3, 3, (20, 2))
    r = RNG.uniform(-2, 2, (20, 2))
    expected = np.einsum("...l,...l->...", fld0.grad_phi(r), BAND.at(k).A)
    assert np.abs(h1(k, r) - expected).max() < 1e-10


def h1_bracket_oracle(bands, frame, field, p, r):
    """Independent evaluation of the subleading symbol from the projected
    bracket sandwich at grid point p: raw frame derivatives, fiber matrix
    elements and energy gradients are contracted directly, bypassing the
    assembled connection / tensor fields (shared gauge, shared stencil)."""
    from peierls_lab.geometry import _k_derivatives
    d = 2
    grid = frame.kgrid
    dphi = _k_derivatives(frame).reshape(d, grid.n_points, -1)
    v0 = frame.vectors.reshape(grid.n_points, -1)[p]
    k = grid.points[p]
    g = bands.basis.gvectors()
    # the energy gradient is smooth shared data (not gauge-paired with the
    # frame stencil); evaluate it spectrally from the band samples
    from peierls_lab.interp import PeriodicFourier
    E_interp = PeriodicFourier(grid.reshape(bands.energies[frame.band]))
    alpha = k / (2 * np.pi)
    dE = np.array([E_interp(alpha, deriv=(1, 0)), E_interp(alpha, deriv=(0, 1))]) \
        / (2 * np.pi)
    B = field.B(r)
    gphi = field.grad_phi(r)
    lam = field.lam
    S = 0.0 + 0.0j
    for l in range(d):
        S += 2 * gphi[l] * np.vdot(dphi[l, p], v0)
        for j in range(d):
            if lam != 0.0:
                dHj = (k[j] + g[:, j])  # diagonal of dH/dk_j
                S -= lam * B[l, j] * np.vdot(dphi[l, p], dHj * v0)
                S += lam * B[l, j] * dE[l] * np.vdot(dphi[j, p], v0)
    return float(np.real(-0.5j * S))


def test_h1_matches_bracket_oracle():
    # the two routes share the frame but commute stencils differently, so
    # they agree up to O(dk^2); a finer grid pins the assembly
    bands, band = pipeline_band(shape=(49, 49))
    geom = geometric_tensors(bands, 0)
    h1 = EffectiveHamiltonian(band, FIELD).h1
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(0, bands.kgrid.n_points))
        r = rng.uniform(-2, 2, 2)
        k = bands.kgrid.points[p]
        oracle = h1_bracket_oracle(bands, geom.frame, FIELD, p, r)
        worst = max(worst, abs(float(h1(k, r)) - oracle))
    assert worst < 1e-3


def test_semiclassical_h_degenerations():
    hsc = SemiclassicalHamiltonian(BAND, dataclasses.replace(FIELD, eps=0.0))
    heff = EffectiveHamiltonian(BAND, dataclasses.replace(FIELD, eps=0.0))
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-2, 2, (10, 2))
    assert np.abs(hsc.value(k, r) - heff.h0(k, r)).max() < 1e-12
    fld_b0 = dataclasses.replace(FIELD, lam=0.0)
    hsc2 = SemiclassicalHamiltonian(BAND, fld_b0)
    assert np.abs(hsc2.value(k, r)
                  - (BAND.at(k).E + fld_b0.phi(r))).max() < 1e-12


def test_semiclassical_h_composes_with_inverse_map():
    k = RNG.uniform(-3, 3, (30, 2))
    r = RNG.uniform(-2, 2, (30, 2))
    errs = []
    for eps in (0.08, 0.04, 0.02):
        fld = dataclasses.replace(FIELD, eps=eps)
        he = EffectiveHamiltonian(BAND, fld)
        hs = SemiclassicalHamiltonian(BAND, fld)
        kb, rb = t_eff_inverse(k, r, BAND, fld)
        errs.append(np.abs(hs.value(k, r) - he.value(kb, rb)).max())
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 3.3) and np.all(ratios < 4.7)


def test_t_eff_identity_at_zero_eps():
    fld = dataclasses.replace(FIELD, eps=0.0)
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-2, 2, (10, 2))
    ke, re = t_eff(k, r, BAND, fld)
    assert np.abs(ke - k).max() == 0.0 and np.abs(re - r).max() == 0.0


def test_t_eff_electric_only():
    fld = dataclasses.replace(FIELD, lam=0.0, eps=0.03)
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-2, 2, (10, 2))
    ke, re = t_eff(k, r, BAND, fld)
    assert np.abs(ke - k).max() == 0.0
    assert np.abs(re - (r + 0.03 * BAND.at(k).A)).max() < 1e-14


def test_t_eff_roundtrip():
    fld = dataclasses.replace(FIELD, eps=0.01)
    k = RNG.uniform(-3, 3, (20, 2))
    r = RNG.uniform(-2, 2, (20, 2))
    ke, re = t_eff(k, r, BAND, fld)
    kb, rb = t_eff_inverse(ke, re, BAND, fld)
    assert np.abs(kb - k).max() < 1e-12 and np.abs(rb - r).max() < 1e-12


def test_t_eff_first_order_inverse_consistency():
    k = RNG.uniform(-3, 3, (20, 2))
    r = RNG.uniform(-2, 2, (20, 2))
    errs = []
    for eps in (0.04, 0.02, 0.01):
        fld = dataclasses.replace(FIELD, eps=eps)
        kb, rb = t_eff_inverse(k, r, BAND, fld)
        A = BAND.at(k).A
        B = fld.B(r)
        k1 = k - eps * fld.lam * np.einsum("...lj,...j->...l", B, A)
        r1 = r - eps * A
        errs.append(max(np.abs(kb - k1).max(), np.abs(rb - r1).max()))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)


def test_effective_observable_constant():
    grid = PhaseSpaceGrid.build((9, 9), 0.7, eps=0.05)
    fld = dataclasses.replace(FIELD, eps=0.05)
    sym = effective_observable(lambda k, r: 1.7 + 0 * k[..., 0], grid, BAND, fld)
    assert np.abs(sym.samples - 1.7).max() < 1e-12


def test_effective_observable_rejects_nonperiodic():
    grid = PhaseSpaceGrid.build((9, 9), 0.7, eps=0.05)
    with pytest.raises(EffectiveError):
        effective_observable(lambda k, r: k[..., 0], grid, BAND, FIELD)


def test_effective_observable_taylor_consistency():
    f0 = lambda k, r: np.sin(k[..., 0]) * np.cos(r[..., 1])
    errs = []
    for eps in (0.04, 0.02, 0.01):
        fld = dataclasses.replace(FIELD, eps=eps)
        grid = PhaseSpaceGrid.build((9, 9), 0.7, eps=eps)
        sym = effective_observable(f0, grid, BAND, fld, check_periodic=False)
        d = 2
        mesh = grid.phase_mesh()
        X = np.stack([np.broadcast_to(mesh[l], grid.ns + grid.ns)
                      for l in range(d)], -1)
        K = np.stack([np.broadcast_to(mesh[d + l], grid.ns + grid.ns)
                      for l in range(d)], -1)
        A = BAND.at(K).A
        B = fld.B(X)
        df0_dk = np.cos(K[..., 0]) * np.cos(X[..., 1])
        df0_dr1 = -np.sin(K[..., 0]) * np.sin(X[..., 1])
        first = (np.einsum("...lj,...j->...l", B, A)[..., 0] * df0_dk * fld.lam
                 + A[..., 1] * df0_dr1)
        taylor = f0(K, X) + eps * first
        errs.append(np.abs(sym.samples - taylor).max())
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 3.3) and np.all(ratios < 4.7)


@pytest.mark.parametrize("dim", [1, 2])
def test_value_on_broadcast_axes_matches_full_mesh(dim):
    if dim == 1:
        band = BandData.synthetic(
            Lattice.cubic(1), (33,), lambda k: np.cos(k[..., 0]),
            connection=lambda k: 0.3 * np.sin(k),
            rw=lambda k: 0.2 * np.cos(k)[..., None])
        fld = EMFieldConfig.zero(
            1, eps=0.1, phi=lambda r: 0.4 * np.cos(np.asarray(r, float)[..., 0]),
            grad_phi=lambda r: -0.4 * np.sin(np.asarray(r, float)))
    else:
        band, fld = BAND, dataclasses.replace(FIELD, eps=0.1)
    assert dim == 1 or fld.lam != 0.0
    grid = PhaseSpaceGrid.build((9,) * dim, 0.7, eps=fld.eps)
    X, K = grid.phase_points()
    full = grid.ns + grid.ns
    mesh = grid.phase_mesh()
    assert np.array_equal(np.broadcast_to(X, full + (dim,)), np.stack(mesh[:dim], -1))
    assert np.array_equal(np.broadcast_to(K, full + (dim,)), np.stack(mesh[dim:], -1))
    for model in (EffectiveHamiltonian(band, fld), SemiclassicalHamiltonian(band, fld)):
        on_axes = model.value(K, X)
        on_mesh = model.value(np.broadcast_to(K, full + (dim,)),
                              np.broadcast_to(X, full + (dim,)))
        assert on_axes.shape == full
        assert np.abs(on_axes - on_mesh).max() <= 1e-15 * np.abs(on_mesh).max()


def test_periodicity_and_realness():
    heff = EffectiveHamiltonian(BAND, FIELD)
    hsc = SemiclassicalHamiltonian(BAND, FIELD)
    k = RNG.uniform(-3, 3, (20, 2))
    r = RNG.uniform(-2, 2, (20, 2))
    g = LAT2.dual[1]
    for fn in (heff.h0, heff.h1, hsc.value):
        assert np.abs(fn(k + g, r) - fn(k, r)).max() < 1e-10
        assert np.isrealobj(fn(k, r))


def test_h1_lambda_zero_has_no_tensor_terms():
    fld = dataclasses.replace(FIELD, lam=0.0)
    h1 = EffectiveHamiltonian(BAND, fld).h1
    k = RNG.uniform(-3, 3, (50, 2))
    r = RNG.uniform(-2, 2, (50, 2))
    via_A_only = np.einsum("...l,...l->...", fld.grad_phi(r), BAND.at(k).A)
    assert np.abs(h1(k, r) - via_A_only).max() < 1e-12


def trig_band_fields(lat):
    """Analytic periodic E, A, M, Omega of k, through theta = 2 pi alpha."""
    inv_dual = np.linalg.inv(lat.dual)
    theta = lambda k: 2 * np.pi * np.asarray(k, float) @ inv_dual
    E = lambda k: np.cos(theta(k)).sum(-1) + 0.3 * np.sin(theta(k)[..., 0]
                                                         + theta(k)[..., -1])
    A = lambda k: 0.2 * np.sin(theta(k)) + 0.1 * np.cos(theta(k)[..., :1])
    M = lambda k: (0.1 * np.cos(theta(k)[..., :, None] - theta(k)[..., None, :])
                   + 0.05 * np.sin(theta(k))[..., :, None])
    Om = lambda k: 0.2 * np.cos(theta(k))[..., :, None] * np.sin(theta(k))[..., None, :]
    return E, A, M, Om


# The 3-D case needs a fine grid of ~100 points per axis for its values to
# meet the same 1e-7 as the 1-D and 2-D cases (cubic spline error ~ h^4).
@pytest.mark.parametrize("basis, shape, upsample",
                         [([[1.3]], (33,), 8),
                          ([[1.0, 0.0], [0.4, 1.1]], (25, 25), 8),
                          ([[1.0, 0.0, 0.0], [0.4, 1.1, 0.0], [0.2, -0.3, 0.9]],
                           (9, 9, 9), 12)],
                         ids=["1d", "2d", "3d"])
def test_band_fields_stacked_evaluator(basis, shape, upsample):
    lat = Lattice.from_basis(basis)
    d = lat.dim
    E, A, M, Om = trig_band_fields(lat)
    bd = BandData.synthetic(lat, shape, E, A, M, Om, upsample=upsample)
    # a (2, 700) batch spans more than one evaluation block
    k = np.random.default_rng(3).uniform(-4, 4, (2, 700, d))
    assert k[..., 0].size > BLOCK
    full = bd.at(k)
    for name, fn in (("E", E), ("A", A), ("M", M), ("Om", Om)):
        assert np.abs(getattr(full, name) - fn(k)).max() < 1e-7
    # every gradient is the derivative of the returned values: central
    # differences along each Cartesian direction m
    h = 1e-5
    for m in range(d):
        step = h * np.eye(d)[m]
        up, dn = bd.at(k + step), bd.at(k - step)
        cd = lambda name: (getattr(up, name) - getattr(dn, name)) / (2 * h)
        assert np.abs(full.dE[..., m] - cd("E")).max() < 1e-8
        assert np.abs(full.dA[..., m] - cd("A")).max() < 1e-8
        assert np.abs(full.dM[..., m] - cd("M")).max() < 1e-8
        # the Hessian differentiates the dE splines, not dE itself
        assert np.abs(full.hessE[..., m] - cd("dE")).max() < 1e-3
    assert np.abs(full.hessE - np.swapaxes(full.hessE, -1, -2)).max() < 1e-6
