"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured figure against its declared tolerance.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from peierls_lab.effective import (BandData, EffectiveHamiltonian,
                                   SemiclassicalHamiltonian)
from peierls_lab.fiber import (FourierPotential, mathieu_potential,
                               potential_2d, solve_bands)
from peierls_lab.fields import EMFieldConfig
from peierls_lab.flow import FlowState, compare_flows, integrate
from peierls_lab.geometry import geometric_tensors, wilson_loop
from peierls_lab.hofstadter import butterfly, spectrum_at_flux, subband_cherns
from peierls_lab.lattice import Lattice, make_kgrid
from peierls_lab.quantum import egorov_error, semiclassical_limit_check
from peierls_lab.weyl import PhaseSpaceGrid, sample_symbol

from oracles import (commutation_check, diophantine_chern_labels, exact_product,
                     expanded_product, gauge_covariance_check, interior_max,
                     rw_spectral_sum_oracle, tau_equivariance_check,
                     transfer_trace_edges)

LAT1 = Lattice.cubic(1)
LAT2 = Lattice.cubic(2)


def verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cosine_field_2d(L, eps, lam=0.5, b=1.0, amp=0.2):
    w = 2 * np.pi / L

    def phi(r):
        r = np.asarray(r, float)
        return amp * np.cos(w * r[..., 0]) * np.cos(w * r[..., 1])

    def gphi(r):
        r = np.asarray(r, float)
        return np.stack([-amp * w * np.sin(w * r[..., 0]) * np.cos(w * r[..., 1]),
                         -amp * w * np.cos(w * r[..., 0]) * np.sin(w * r[..., 1])], -1)

    def hphi(r):
        r = np.asarray(r, float)
        d11 = -amp * w * w * np.cos(w * r[..., 0]) * np.cos(w * r[..., 1])
        d12 = amp * w * w * np.sin(w * r[..., 0]) * np.sin(w * r[..., 1])
        return np.stack([np.stack([d11, d12], -1), np.stack([d12, d11], -1)], -2)

    return EMFieldConfig.constant(2, b=b, eps=eps, lam=lam, phi=phi, grad_phi=gphi,
                                  grad_hess_phi=lambda r: (gphi(r), hphi(r)))


def cosine_field_1d(L, eps, amp=0.3):
    w = 2 * np.pi / L

    def phi(r):
        r = np.asarray(r, float)
        return amp * np.cos(w * r[..., 0])

    def gphi(r):
        r = np.asarray(r, float)
        return np.stack([-amp * w * np.sin(w * r[..., 0])], -1)

    def hphi(r):
        r = np.asarray(r, float)
        return (-amp * w * w * np.cos(w * r[..., 0]))[..., None, None]

    return EMFieldConfig.zero(1, eps, phi=phi, grad_phi=gphi,
                              grad_hess_phi=lambda r: (gphi(r), hphi(r)))


@pytest.fixture(scope="module")
def mathieu_band():
    bands = solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 64), 8, 3)
    return bands, BandData.from_geometry(geometric_tensors(bands, 0))


@pytest.fixture(scope="module")
def tb_band_2d():
    """Tight-binding-like 2D band (deep non-separable potential)."""
    bands = solve_bands(potential_2d(12.0, 2.0), make_kgrid(LAT2, (21, 21)), 7, 3)
    return bands, BandData.from_geometry(geometric_tensors(bands, 0))


def test_criterion_1_free_band_exactness():
    t0 = time.time()
    grid = make_kgrid(LAT1, 64)
    bands = solve_bands(FourierPotential(LAT1, {}), grid, 4, 1)
    dev = float(np.abs(bands.energies[0] - 0.5 * grid.points.ravel() ** 2).max())
    dt = time.time() - t0
    verdict("criterion 1 (free-band exactness)", dev < 1e-10 and dt < 1.0,
            f"max |E0 - k^2/2| = {dev:.2e} (tol 1e-10), {dt:.2f} s (budget 1 s)")


def test_criterion_2_tau_equivariance():
    t0 = time.time()
    pot = mathieu_potential(1.0)
    devs = [tau_equivariance_check(pot, 0.37, [s], 8) for s in (-2, -1, 1, 2)]
    dev = max(devs)
    dt = time.time() - t0
    verdict("criterion 2 (tau equivariance)", dev < 1e-10 and dt < 1.0,
            f"max conjugation deviation = {dev:.2e} (tol 1e-10), {dt:.2f} s")


def test_criterion_3_gauge_covariance():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    # 1D has no magnetic coupling; exercise the 2D covariance with 5
    # polynomial gauge functions on a 13^2 grid
    grid2 = PhaseSpaceGrid.build((13, 13), 0.6, eps=0.1)
    b = 0.9
    f_sym = EMFieldConfig.constant(2, b=b, eps=0.1, lam=0.7)
    g2 = sample_symbol(lambda k, r:
                       np.exp(-1.5 * (r[..., 0] ** 2 + r[..., 1] ** 2)
                              - 0.8 * (k[..., 0] ** 2 + k[..., 1] ** 2)), grid2)
    for _ in range(5):
        c = rng.normal(size=5)

        def chi(X, c=c):
            x, y = X[..., 0], X[..., 1]
            return c[0] * x + c[1] * y + c[2] * x * y + c[3] * x ** 2 + c[4] * y ** 2

        def A_prime(r, c=c):
            x, y = r[..., 0], r[..., 1]
            gx = c[0] + c[2] * y + 2 * c[3] * x
            gy = c[1] + c[2] * x + 2 * c[4] * y
            return f_sym.A(r) + np.stack([gx, gy], axis=-1)

        fld_p = EMFieldConfig(eps=0.1, lam=0.7, dim=2, bfield=f_sym.bfield,
                              vector_potential=A_prime, gauge="general")
        worst = max(worst, gauge_covariance_check(g2, f_sym, fld_p, chi))
    dt = time.time() - t0
    verdict("criterion 3 (gauge covariance)", worst < 1e-8 and dt < 10.0,
            f"max interior deviation = {worst:.2e} (tol 1e-8), {dt:.1f} s")


def test_criterion_4_commutation_relations():
    t0 = time.time()
    nn = 33
    grid = PhaseSpaceGrid.build((nn, nn), np.sqrt(2 * np.pi / nn), eps=0.1)
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    res = commutation_check(grid, fld, n_states=12, seed=1)
    dt = time.time() - t0
    ok = res["qq"] < 1e-8 and res["qp"] < 1e-8 and res["pp"] < 1e-8
    verdict("criterion 4 (commutation relations)", ok and dt < 30.0,
            f"[Q,Q]: {res['qq']:.1e}, [Q,P]-i.eps: {res['qp']:.1e}, "
            f"[P,P]-i.eps.lam.B: {res['pp']:.1e} (tol 1e-8), {dt:.1f} s")


def test_criterion_5_product_expansion_order():
    t0 = time.time()
    n = 321
    X_box = 5.0
    h = (2 * X_box / 0.05) / n
    errs = []
    for ee in (0.2, 0.1, 0.05):
        grid = PhaseSpaceGrid.build(n, h, eps=ee)
        fld = EMFieldConfig.zero(1, eps=ee)
        f = sample_symbol(lambda k, r: np.exp(-r[..., 0] ** 2 - 0.5 * k[..., 0] ** 2
                                              + 0.4 * r[..., 0] * k[..., 0]), grid)
        g = sample_symbol(lambda k, r: np.exp(-1.3 * (r[..., 0] - 0.2) ** 2
                                              - 0.8 * (k[..., 0] + 0.3) ** 2), grid)
        ex = exact_product(f, g, fld)
        o1 = expanded_product(f, g, fld, 1)
        errs.append(interior_max(ex, o1))
    errs = np.asarray(errs)
    slope = float(np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0])
    dt = time.time() - t0
    verdict("criterion 5 (product expansion order)",
            1.8 <= slope <= 2.2 and dt < 60.0,
            f"errors {np.array2string(errs, precision=2)} -> slope {slope:.3f} "
            f"(window [1.8, 2.2]), {dt:.1f} s")


def test_criterion_6_egorov_scaling(mathieu_band, tb_band_2d):
    t0 = time.time()
    # one dimension, no magnetic field
    _, band1 = mathieu_band
    L1 = 12.9
    errs1 = []
    for n in (129, 257):
        eps = L1 / n
        fld = cosine_field_1d(L1, eps)
        heff = EffectiveHamiltonian(band1, fld)
        grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
        f = lambda k, r: np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L1)
        errs1.append(egorov_error(f, heff, grid, fld, t=1.0, dt=0.02))
    ratio1 = errs1[0] / errs1[1]
    # two dimensions, constant magnetic field
    _, band2 = tb_band_2d
    L2 = 2.1
    errs2 = []
    for n in (21, 43):
        eps = L2 / n
        fld = cosine_field_2d(L2, eps)
        heff = EffectiveHamiltonian(band2, fld)
        grid = PhaseSpaceGrid.build((n, n), 1.0, eps=eps)
        f = lambda k, r: np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 1] / L2)
        errs2.append(egorov_error(f, heff, grid, fld, t=1.0, dt=0.02))
    # eps pairs are set by odd grids; rescale the measured ratio to a halving
    ratio2 = (errs2[0] / errs2[1]) * (0.25 / ((21 / 43) ** 2))
    dt = time.time() - t0
    ok = 3.0 <= ratio1 <= 5.0 and 3.0 <= ratio2 <= 5.0
    verdict("criterion 6 (Egorov scaling)", ok and dt < 300.0,
            f"1D errors {errs1[0]:.2e}/{errs1[1]:.2e} ratio {ratio1:.2f}; "
            f"2D errors {errs2[0]:.2e}/{errs2[1]:.2e} halving-ratio {ratio2:.2f} "
            f"(window [3, 5]), {dt:.0f} s (budget 300 s)")


def test_criterion_7_flow_correspondence(tb_band_2d):
    t0 = time.time()
    _, band = tb_band_2d
    fld = cosine_field_2d(2.5, eps=0.1, lam=0.7, b=0.8, amp=0.4)
    st = FlowState.of([0.7, -0.4], [0.3, 0.1])
    rep = compare_flows(st, band, fld, [0.1, 0.05, 0.025], t_final=1.0, dt=4e-3)
    hsc = SemiclassicalHamiltonian(band, fld)
    traj = integrate(st, hsc, fld, 10.0, 5e-3, band=band)
    drift = traj.energy_drift()
    dt = time.time() - t0
    ok = 1.8 <= rep["slope"] <= 2.2 and drift < 1e-8
    verdict("criterion 7 (flow correspondence)", ok and dt < 60.0,
            f"slope {rep['slope']:.3f} (window [1.8, 2.2]), "
            f"h_sc drift over [0,10] = {drift:.2e} (tol 1e-8), {dt:.0f} s")


def test_criterion_8_geometric_data(mathieu_band):
    t0 = time.time()
    # Chern of the two-band test family vs closed-form values
    ks = np.linspace(-np.pi, np.pi, 31, endpoint=False) + np.pi / 31
    K1, K2 = np.meshgrid(ks, ks, indexing="ij")
    from peierls_lab.geometry import chern_from_vectors
    worst_int = 0.0
    for m, expect in ((1.0, -1), (-1.0, 1), (3.0, 0)):
        d = np.stack([np.sin(K1), np.sin(K2), m - np.cos(K1) - np.cos(K2)], -1)
        dn = np.linalg.norm(d, axis=-1)
        v = np.stack([-(d[..., 0] - 1j * d[..., 1]), d[..., 2] + dn], -1)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        c = chern_from_vectors(v)
        worst_int = max(worst_int, abs(c - expect))
    # Harper subband Chern integrality
    for (p, q) in ((1, 3), (2, 5)):
        subband_cherns(Fraction(p, q))  # raises if non-integral
    # gauge invariance of the full pipeline under re-randomization, over
    # several phase seeds; the Mathieu band's Zak phase is pi, on the branch
    # cut of wilson_loop's [-pi, pi), so the phases are compared on the circle
    bands, _ = mathieu_band
    pot2 = potential_2d(1.0, 0.3)
    b2 = solve_bands(pot2, make_kgrid(LAT2, (13, 13)), 5, 3)
    g1 = geometric_tensors(b2, 0)
    fr1 = geometric_tensors(bands, 0).frame
    inv_dev = wil_dev = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vecs = b2.vectors.copy()
        vecs[0] = vecs[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
        g2 = geometric_tensors(dataclasses.replace(b2, vectors=vecs), 0)
        inv_dev = max(inv_dev, float(np.abs(g1.curvature - g2.curvature).max()),
                      float(np.abs(g1.rw - g2.rw).max()), abs(g1.chern - g2.chern))
        vecs1 = bands.vectors.copy()
        vecs1[0] = vecs1[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs1.shape[1]))[:, None]
        fr2 = geometric_tensors(dataclasses.replace(bands, vectors=vecs1), 0).frame
        turn = float(wilson_loop(fr1)) - float(wilson_loop(fr2))
        wil_dev = max(wil_dev, abs(float(np.angle(np.exp(1j * turn)))))
    # Zak phase of the inversion-symmetric potential
    zak = float(wilson_loop(fr1))
    zak_dist = min(abs(zak) % (2 * np.pi),
                   abs(abs(zak) % (2 * np.pi) - np.pi),
                   abs(abs(zak) % (2 * np.pi) - 2 * np.pi))
    dt = time.time() - t0
    ok = worst_int < 1e-6 and inv_dev < 1e-10 and wil_dev < 1e-10 \
        and zak_dist < 1e-4
    verdict("criterion 8 (geometric data)", ok and dt < 120.0,
            f"Chern integrality {worst_int:.1e} (tol 1e-6), gauge-invariance "
            f"{max(inv_dev, wil_dev):.1e} (tol 1e-10), Zak distance to "
            f"{{0, pi}} = {zak_dist:.1e} (tol 1e-4), {dt:.0f} s")


def test_criterion_9_rammal_wilkinson_cross_check(mathieu_band):
    t0 = time.time()
    from peierls_lab.geometry import _k_derivatives, fix_gauge, rammal_wilkinson
    bands, _ = mathieu_band
    fr = fix_gauge(bands, 0)
    M1 = rammal_wilkinson(fr, _k_derivatives(fr))
    o1 = rw_spectral_sum_oracle(bands, fr)
    dev1 = float(np.abs(M1 - o1).max())
    # the same cross-check where the tensor is nonzero (2D, non-separable)
    b2 = solve_bands(potential_2d(1.0, 0.3), make_kgrid(LAT2, (11, 11)), 4, 2)
    fr2 = fix_gauge(b2, 0)
    M2 = rammal_wilkinson(fr2, _k_derivatives(fr2))
    o2 = rw_spectral_sum_oracle(b2, fr2)
    dev2 = float(np.abs(M2 - o2).max())
    scale2 = float(np.abs(M2).max())
    dt = time.time() - t0
    ok = dev1 < 1e-6 and dev2 < 1e-6 and scale2 > 1e-5
    verdict("criterion 9 (Rammal-Wilkinson cross-check)", ok and dt < 60.0,
            f"1D dev {dev1:.1e}, 2D dev {dev2:.1e} at tensor scale "
            f"{scale2:.1e} (tol 1e-6), {dt:.0f} s")


def test_criterion_10_hofstadter_structure():
    t0 = time.time()
    data = butterfly(20)
    ok_counts = all(len(data[fr]) == fr.denominator for fr in data)
    sym_alpha = 0.0
    sym_E = 0.0
    for fr in data:
        iv = np.sort(np.asarray([(lo, hi) for lo, hi, _ in data[fr]]).ravel())
        iv2 = np.sort(np.asarray([(lo, hi) for lo, hi, _ in data[Fraction(1) - fr]])
                      .ravel())
        sym_alpha = max(sym_alpha, float(np.abs(iv - iv2).max()))
        sym_E = max(sym_E, float(np.abs(iv + iv[::-1]).max()))
    edges = spectrum_at_flux(Fraction(1, 3))
    oracle = transfer_trace_edges(Fraction(1, 3))
    edge_dev = float(np.abs(edges - oracle).max())
    chern_sums = []
    for (p, q) in ((1, 3), (1, 5), (2, 5)):
        cs = subband_cherns(Fraction(p, q))
        assert cs == diophantine_chern_labels(Fraction(p, q))
        chern_sums.append(sum(cs))
    dt = time.time() - t0
    ok = ok_counts and sym_alpha < 1e-10 and sym_E < 1e-10 \
        and edge_dev < 1e-6 and all(s == 0 for s in chern_sums)
    verdict("criterion 10 (Hofstadter structure)", ok and dt < 120.0,
            f"subband counts ok={ok_counts}, symmetries {max(sym_alpha, sym_E):.1e} "
            f"(tol 1e-10), 1/3 edge vs transfer matrix {edge_dev:.1e} (tol 1e-6), "
            f"Chern sums {chern_sums}, {dt:.0f} s (budget 120 s)")


def test_criterion_11_semiclassical_limit_expectation():
    t0 = time.time()
    pot = mathieu_potential(3.0)
    L = 4.0
    w = 2 * np.pi / L
    F = 0.4

    def phi(r):
        r = np.asarray(r, float)
        return -F * (L / (2 * np.pi)) * np.sin(w * r[..., 0])

    def gphi(r):
        r = np.asarray(r, float)
        return np.stack([-F * np.cos(w * r[..., 0])], -1)

    def hphi(r):
        r = np.asarray(r, float)
        return (F * w * np.sin(w * r[..., 0]))[..., None, None]

    fld = EMFieldConfig.zero(1, eps=0.08, phi=phi, grad_phi=gphi,
                             grad_hess_phi=lambda r: (gphi(r), hphi(r)))
    rep = semiclassical_limit_check(pot, fld, 0, [0.08, 0.04, 0.02], t=1.0,
                                    macro_box=L, cutoff=6)
    dt = time.time() - t0
    # the Wigner-averaged slope's window, declared from the dense propagator's
    # 2.051 on these eps (pairwise 2.065 and 2.037) and 2.069 on the
    # benchmark's 0.1 / 0.05 / 0.035
    ok = rep["slope_point"] >= 1.0 and 1.9 <= rep["slope_avg"] <= 2.2
    verdict("criterion 11 (semiclassical expectation tracking)",
            ok and dt < 600.0,
            f"point-oracle slope {rep['slope_point']:.2f} (required >= 1; the "
            f"band-projected packet carries an O(eps) wavepacket-spread term), "
            f"Wigner-averaged slope {rep['slope_avg']:.4f} (window [1.9, 2.2]), "
            f"{dt:.0f} s (budget 600 s)")
