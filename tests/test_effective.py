import dataclasses
import tracemalloc

import numpy as np
import pytest

from fourier_oracle import PeriodicFourier, fourier_coeffs_centered
from peierls_lab.effective import (BandData, EffectiveError,
                                   EffectiveHamiltonian,
                                   SemiclassicalHamiltonian, t_eff,
                                   t_eff_inverse)
from peierls_lab.fiber import potential_2d, solve_bands
from peierls_lab.fields import EMFieldConfig, antisymmetric, pairs
from peierls_lab.geometry import geometric_tensors
from peierls_lab.interp import BLOCK, PeriodicSpline
from peierls_lab.lattice import Lattice, make_kgrid
from peierls_lab.weyl import PhaseSpaceGrid, sample_symbol

from oracles import synthetic_band

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
    return EMFieldConfig.constant(2, b=b, eps=eps, lam=lam, phi=phi, grad_phi=gphi,
                                  grad_hess_phi=lambda r: (gphi(r), hphi(r)))


def h0_h1(band, field):
    """h0 and h1 of h = h0 + eps h1, read off the one evaluator the package
    runs, EffectiveHamiltonian.value: h at eps = 0, and (h - h0) / eps."""
    h = EffectiveHamiltonian(band, field).value
    h0 = EffectiveHamiltonian(band, dataclasses.replace(field, eps=0.0)).value
    return h0, lambda k, r: (h(k, r) - h0(k, r)) / field.eps


BANDS, BAND = pipeline_band()
FIELD = field_2d()


def test_h0_hofstadter_ansatz():
    bd = synthetic_band(LAT2, (33, 33),
                        lambda k: np.cos(k[..., 0]) + np.cos(k[..., 1]))
    fld = EMFieldConfig.zero(2, eps=0.1)
    h0, _ = h0_h1(bd, fld)
    k = RNG.uniform(-4, 4, (30, 2))
    r = RNG.uniform(-2, 2, (30, 2))
    assert np.abs(h0(k, r) - (np.cos(k[..., 0]) + np.cos(k[..., 1]))).max() < 1e-8


def test_h0_constant_band():
    bd = synthetic_band(LAT2, (9, 9), lambda k: 2.5 + 0 * k[..., 0])
    phi, gphi, hphi = cos_phi_callables(0.3)
    fld = EMFieldConfig.zero(2, eps=0.1, phi=phi, grad_phi=gphi,
                             grad_hess_phi=lambda r: (gphi(r), hphi(r)))
    h0, _ = h0_h1(bd, fld)
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-3, 3, (10, 2))
    assert np.abs(h0(k, r) - (2.5 + phi(r))).max() < 1e-10


def test_h0_pipeline_sample_oracle():
    h0, _ = h0_h1(BAND, FIELD)
    grid = BANDS.kgrid
    for p in (0, 37, 101):
        k = grid.points[p]
        r = np.array([0.2, -0.4])
        expected = BANDS.energies[0, p] + FIELD.phi(r)
        assert abs(h0(k, r) - expected) < 1e-7


def test_h1_zero_without_geometry():
    bd = synthetic_band(LAT2, (9, 9), lambda k: np.cos(k[..., 0]))
    _, h1 = h0_h1(bd, field_2d())
    k = RNG.uniform(-3, 3, (10, 2))
    r = RNG.uniform(-3, 3, (10, 2))
    assert np.abs(h1(k, r)).max() < 1e-12


def test_h1_electric_only_form():
    fld0 = dataclasses.replace(FIELD, lam=0.0)
    _, h1 = h0_h1(BAND, fld0)
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
    _, h1 = h0_h1(band, FIELD)
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
    assert np.abs(hsc.value(k, r) - heff.value(k, r)).max() < 1e-12
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
    f = lambda k, r: 1.7 + 0 * k[..., 0]
    sym = sample_symbol(lambda k, r: f(*t_eff(k, r, BAND, fld)), grid)
    assert np.abs(sym.samples - 1.7).max() < 1e-12


def test_effective_observable_taylor_consistency():
    f0 = lambda k, r: np.sin(k[..., 0]) * np.cos(r[..., 1])
    errs = []
    for eps in (0.04, 0.02, 0.01):
        fld = dataclasses.replace(FIELD, eps=eps)
        grid = PhaseSpaceGrid.build((9, 9), 0.7, eps=eps)
        sym = sample_symbol(lambda k, r: f0(*t_eff(k, r, BAND, fld)), grid)
        d = 2
        X, K = (np.broadcast_to(a, grid.ns + grid.ns + (d,)) for a in grid.phase_points())
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
        band = synthetic_band(
            Lattice.cubic(1), (33,), lambda k: np.cos(k[..., 0]),
            connection=lambda k: 0.3 * np.sin(k))
        def gphi(r):
            return -0.4 * np.sin(np.asarray(r, float))
        fld = EMFieldConfig.zero(
            1, eps=0.1, phi=lambda r: 0.4 * np.cos(np.asarray(r, float)[..., 0]),
            grad_phi=gphi, grad_hess_phi=lambda r: (
                gphi(r), (-0.4 * np.cos(np.asarray(r, float)))[..., None]))
    else:
        band, fld = BAND, dataclasses.replace(FIELD, eps=0.1)
    assert dim == 1 or fld.lam != 0.0
    grid = PhaseSpaceGrid.build((9,) * dim, 0.7, eps=fld.eps)
    X, K = grid.phase_points()
    full = grid.ns + grid.ns
    mesh = np.meshgrid(*[grid.X_axis(l) for l in range(dim)],
                       *[grid.xi_axis(l) for l in range(dim)], indexing="ij")
    assert np.array_equal(np.broadcast_to(X, full + (dim,)), np.stack(mesh[:dim], -1))
    assert np.array_equal(np.broadcast_to(K, full + (dim,)), np.stack(mesh[dim:], -1))
    for model in (EffectiveHamiltonian(band, fld), SemiclassicalHamiltonian(band, fld)):
        on_axes = model.value(K, X)
        on_mesh = model.value(np.broadcast_to(K, full + (dim,)),
                              np.broadcast_to(X, full + (dim,)))
        assert on_axes.shape == full
        assert np.abs(on_axes - on_mesh).max() <= 1e-15 * np.abs(on_mesh).max()


def test_periodicity_and_realness():
    h0, h1 = h0_h1(BAND, FIELD)
    hsc = SemiclassicalHamiltonian(BAND, FIELD)
    k = RNG.uniform(-3, 3, (20, 2))
    r = RNG.uniform(-2, 2, (20, 2))
    g = LAT2.dual[1]
    for fn in (h0, h1, hsc.value):
        assert np.abs(fn(k + g, r) - fn(k, r)).max() < 1e-10
        assert np.isrealobj(fn(k, r))


def test_h1_lambda_zero_has_no_tensor_terms():
    fld = dataclasses.replace(FIELD, lam=0.0)
    _, h1 = h0_h1(BAND, fld)
    k = RNG.uniform(-3, 3, (50, 2))
    r = RNG.uniform(-2, 2, (50, 2))
    via_A_only = np.einsum("...l,...l->...", fld.grad_phi(r), BAND.at(k).A)
    assert np.abs(h1(k, r) - via_A_only).max() < 1e-12


def trig_band_fields(lat):
    """Analytic periodic E, A, M, Omega of k, through theta = 2 pi alpha; M
    and Omega are antisymmetric to the bit, as 2-forms are."""
    inv_dual = np.linalg.inv(lat.dual)
    theta = lambda k: 2 * np.pi * np.asarray(k, float) @ inv_dual
    E = lambda k: np.cos(theta(k)).sum(-1) + 0.3 * np.sin(theta(k)[..., 0]
                                                         + theta(k)[..., -1])
    A = lambda k: 0.2 * np.sin(theta(k)) + 0.1 * np.cos(theta(k)[..., :1])

    def skew(a, b):                     # a_l b_j - a_j b_l
        return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]
    M = lambda k: (0.1 * np.sin(theta(k)[..., :, None] - theta(k)[..., None, :])
                   + 0.05 * skew(np.sin(theta(k)), np.ones_like(theta(k))))
    Om = lambda k: 0.2 * skew(np.cos(theta(k)), np.sin(theta(k)))
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
    bd = synthetic_band(lat, shape, E, A, M, Om, upsample=upsample)
    # a (2, 700) batch spans more than one evaluation block
    k = np.random.default_rng(3).uniform(-4, 4, (2, 700, d))
    assert k[..., 0].size > BLOCK
    full = bd.at(k)
    for name, fn in (("E", E), ("A", A), ("m", lambda k: pairs(M(k))),
                     ("om", lambda k: pairs(Om(k)))):
        assert np.abs(getattr(full, name) - fn(k)).max(initial=0) < 1e-7
    # every gradient is the derivative of the returned values: central
    # differences along each Cartesian direction m
    h = 1e-5
    for m in range(d):
        step = h * np.eye(d)[m]
        up, dn = bd.at(k + step), bd.at(k - step)
        cd = lambda name: (getattr(up, name) - getattr(dn, name)) / (2 * h)
        assert np.abs(full.dE[..., m] - cd("E")).max() < 1e-8
        assert np.abs(full.dA[..., m] - cd("A")).max() < 1e-8
        assert np.abs(full.dm[..., m] - cd("m")).max(initial=0) < 1e-8
        # the Hessian differentiates the dE splines, not dE itself
        assert np.abs(full.hessE[..., m] - cd("dE")).max() < 1e-3
    assert np.abs(full.hessE - np.swapaxes(full.hessE, -1, -2)).max() < 1e-6


# -- the one-pass build and the on-demand record against their older forms ----

def upsampled_values(samples, factor):
    """Fine-grid values (zero-anchored at -1/2) of cell-centered samples, as
    BandData upsampled each field before it built the spline from spectra."""
    c = fourier_coeffs_centered(samples)
    fine = tuple(factor * n for n in samples.shape)
    out = np.zeros(fine, dtype=complex)
    keep = [np.r_[0:(n - 1) // 2 + 1, -((n - 1) // 2):0] for n in samples.shape]
    out[np.ix_(*[k % n for k, n in zip(keep, fine)])] = \
        c[np.ix_(*[k % n for k, n in zip(keep, samples.shape)])]
    for ax, n in enumerate(fine):
        P = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        shape = [n if a == ax else 1 for a in range(len(fine))]
        out = out * np.exp(-1j * np.pi * P).reshape(shape)
    return np.fft.ifftn(out).real * np.prod(fine)


def two_pass_spline(band):
    """The spline of the two-pass build: every field upsampled to fine
    values, dE from an FFT pair of the fine E, then the prefilter."""
    d, shape, up = band.lattice.dim, tuple(band.shape), band.upsample
    n_f = tuple(up * n for n in shape)
    geo = np.concatenate([band.connection_samples.reshape(shape + (d,)),
                          pairs(band.rw_samples.reshape(shape + (d, d))),
                          pairs(band.curvature_samples.reshape(shape + (d, d)))], axis=-1)
    fields = np.empty(n_f + (1 + d + geo.shape[-1],))
    fields[..., 0] = upsampled_values(band.energy_samples, up)
    F = np.fft.fftn(fields[..., 0])
    dE_alpha = np.empty(n_f + (d,))
    for ax, n in enumerate(n_f):
        P = np.fft.fftfreq(n, d=1.0 / n).reshape([n if a == ax else 1 for a in range(d)])
        dE_alpha[..., ax] = np.fft.ifftn(F * 2j * np.pi * P).real
    fields[..., 1:1 + d] = dE_alpha @ (band.lattice.basis / (2 * np.pi))
    for f in range(geo.shape[-1]):
        fields[..., 1 + d + f] = upsampled_values(geo[..., f], up)
    dual = band.lattice.dual
    return PeriodicSpline(fields, -0.5 * dual.sum(0), dual / np.array(n_f)[:, None])


def eager_fields(block, lead, d):
    """The eight BandFields arrays as BandData.at built them all per call,
    from the channels [E, dE, A, m, omega] of the block."""
    p = d * (d - 1) // 2
    a, m = 1 + 2 * d, 1 + 2 * d + p
    v, g = block[:, 0], block[:, 1:].transpose(0, 2, 1)
    return {"E": v[:, 0].reshape(lead),
            "A": v[:, 1 + d:a].reshape(lead + (d,)),
            "m": v[:, a:m].reshape(lead + (p,)),
            "om": v[:, m:].reshape(lead + (p,)),
            "dE": block[:, 1:, 0].reshape(lead + (d,)),
            "hessE": g[:, 1:1 + d].reshape(lead + (d, d)),
            "dA": g[:, 1 + d:a].reshape(lead + (d, d)),
            "dm": g[:, a:m].reshape(lead + (p, d))}


LATTICES = {"square": ([[1.0, 0.0], [0.0, 1.0]], (15, 15), 8),
            "oblique": ([[1.0, 0.0], [0.4, 1.1]], (16, 13), 8),
            "3d": ([[1.0, 0.0, 0.0], [0.4, 1.1, 0.0], [0.2, -0.3, 0.9]], (7, 6, 5), 6)}


@pytest.mark.parametrize("name", list(LATTICES))
def test_one_pass_band_data_matches_two_pass_build(name):
    basis, shape, upsample = LATTICES[name]
    lat = Lattice.from_basis(basis)
    d = lat.dim
    bd = synthetic_band(lat, shape, *trig_band_fields(lat), upsample=upsample)
    k = np.random.default_rng(4).uniform(-3, 3, (400, d))
    new = bd.at(k)
    old = eager_fields(two_pass_spline(bd)(k), (400,), d)
    for field, ref in old.items():
        assert np.abs(getattr(new, field) - ref).max() <= 1e-12 * np.abs(ref).max(), field


@pytest.mark.parametrize("lead", [(), (1,), (5,), (3, 4)])
def test_band_fields_on_demand_equal_eager_views(lead):
    d = 2
    k = np.random.default_rng(5).uniform(-3, 3, lead + (d,))
    rec = BAND.at(k)
    eager = eager_fields(BAND._spline(k.reshape(-1, d)), lead, d)
    for field, ref in eager.items():
        got = getattr(rec, field)
        assert got.shape == ref.shape and np.array_equal(got, ref), field
        assert getattr(rec, field) is got          # made once, then kept


def test_band_data_build_holds_one_coefficient_array():
    # the spline is built from spectra straight into its ghost-padded grid:
    # beside it only one slab of fine values (an eighth) is ever alive; the
    # two-pass build held all fine values too, 2.2 coefficient arrays here
    lat = Lattice.from_basis([[1.0, 0.0, 0.0], [0.4, 1.1, 0.0], [0.2, -0.3, 0.9]])
    E, A, M, Om = trig_band_fields(lat)
    grid = make_kgrid(lat, (9, 9, 9))
    samples = [grid.reshape(f(grid.points)) for f in (E, A, M, Om)]
    tracemalloc.start()
    try:
        bd = BandData(lat, grid.shape, *samples, upsample=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coefficients = bd._spline.c.nbytes
    assert coefficients > 40e6
    assert peak < 1.3 * coefficients, peak / coefficients


# -- the 2-forms by their pair components --------------------------------------

@pytest.mark.parametrize("basis, shape", [([[1.3]], (9,)),
                                          ([[1.0, 0.0], [0.4, 1.1]], (9, 8)),
                                          ([[1.0, 0.0, 0.0], [0.4, 1.1, 0.0],
                                            [0.2, -0.3, 0.9]], (5, 6, 5))],
                         ids=["1d", "2d", "3d"])
def test_two_forms_are_exactly_antisymmetric(basis, shape):
    lat = Lattice.from_basis(basis)
    d = lat.dim
    bd = synthetic_band(lat, shape, *trig_band_fields(lat), upsample=4)
    assert bd._spline.n_fields == 1 + 2 * d + d * (d - 1)
    b = bd.at(np.random.default_rng(6).uniform(-3, 3, (50, d)))
    assert b.m.shape == b.om.shape == (50, d * (d - 1) // 2)
    assert b.dm.shape == (50, d * (d - 1) // 2, d)
    for T in (antisymmetric(b.m, d), antisymmetric(b.om, d), antisymmetric(b.dm, d, 1)):
        assert np.all(np.diagonal(T, 0, 1, 2) == 0)
        assert np.array_equal(T, -np.swapaxes(T, 1, 2))


def test_non_antisymmetric_samples_refused():
    lat = Lattice.from_basis([[1.0, 0.0], [0.4, 1.1]])
    E, A, M, Om = trig_band_fields(lat)
    grid = make_kgrid(lat, (9, 9))
    samples = [grid.reshape(f(grid.points)) for f in (E, A, M, Om)]
    sym = np.ones((2, 2))
    for i, name in ((2, "rw_samples"), (3, "curvature_samples")):
        bad = list(samples)
        bad[i] = samples[i] + 1e-6 * sym
        with pytest.raises(EffectiveError, match=f"{name} are not antisymmetric"):
            BandData(lat, grid.shape, *bad)
    # a symmetric part below the tolerance is dropped
    kept = list(samples)
    kept[2] = samples[2] + 1e-12 * sym
    k = np.random.default_rng(7).uniform(-3, 3, (20, 2))
    assert np.array_equal(BandData(lat, grid.shape, *kept).at(k).m,
                          BandData(lat, grid.shape, *samples).at(k).m)
