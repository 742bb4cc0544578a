import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from peierls_lab import cli
from peierls_lab.config import parse_config
from peierls_lab.effective import BandData, EffectiveHamiltonian
from peierls_lab.fiber import FourierPotential, mathieu_potential, solve_bands
from peierls_lab.fields import EMFieldConfig
from peierls_lab.geometry import geometric_tensors
from peierls_lab import quantum
from peierls_lab.lattice import Lattice, make_kgrid
from peierls_lab.quantum import (Propagator, QuantumError, RealSpaceBox,
                                 WaveFunction, band_packet, band_project,
                                 egorov_error, heisenberg_evolve,
                                 realspace_hamiltonian, semiclassical_limit_check,
                                 zak_inverse)
from peierls_lab.weyl import DenseMemoryError, PhaseSpaceGrid, quantize, sample_symbol

from oracles import (propagate_reference, synthetic_band, zak_equivariance_defect,
                     zak_transform)

LAT1 = Lattice.cubic(1)
BOX = RealSpaceBox(lattice=LAT1, n_cells=31, m=14)
RNG = np.random.default_rng(0)


def random_state(box=BOX):
    v = RNG.normal(size=box.n_points) + 1j * RNG.normal(size=box.n_points)
    return WaveFunction(box, v).normalized()


def test_zak_unitary_roundtrip_and_parseval():
    psi = random_state()
    u = zak_transform(psi)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    back = zak_inverse(BOX, u)
    assert np.abs(back.samples - psi.samples).max() < 1e-12


def test_zak_plane_wave_single_fiber():
    k0 = 2 * np.pi * 7 / BOX.n_cells
    # the fiber whose momentum is k0 modulo 2 pi
    q0 = np.argmin(np.abs(np.angle(np.exp(1j * (BOX.fiber_grid().points[:, 0] - k0)))))
    pw = WaveFunction(BOX, np.exp(1j * k0 * BOX.points())).normalized()
    mass = np.abs(zak_transform(pw)) ** 2
    per_fiber = mass.sum(axis=1)
    assert np.argmax(per_fiber) == q0
    assert np.delete(per_fiber, q0).max() < 1e-25


@pytest.mark.parametrize("n", [2, 16])
def test_box_refuses_even_cell_count(n):
    with pytest.raises(QuantumError, match="odd number of cells"):
        RealSpaceBox(lattice=LAT1, n_cells=n, m=14)


@pytest.mark.parametrize("n", [1, 5, 31])
def test_fiber_grid_holds_the_zak_momenta(n):
    box = RealSpaceBox(lattice=LAT1, n_cells=n, m=6)
    k = box.fiber_grid().points[:, 0]
    assert np.abs(np.sort(np.mod(k, 2 * np.pi)) - 2 * np.pi * np.arange(n) / n).max() < 1e-12
    assert -np.pi <= k.min() and k.max() < np.pi
    for p, kp in enumerate(k):
        # e^{i kp x} is constant in y on fiber p alone: the transform's
        # momentum there is kp itself, not kp + 2 pi j
        u = zak_transform(WaveFunction(box, np.exp(1j * kp * box.points())))
        expected = np.zeros((n, box.m))
        expected[p] = np.sqrt(n)
        assert np.abs(u - expected).max() < 1e-10


def test_zak_equivariance():
    assert zak_equivariance_defect(random_state()) < 1e-10


def test_band_project_idempotent_and_eigen():
    pot = mathieu_potential(1.0)
    bands = solve_bands(pot, BOX.fiber_grid(), 6, 3)
    u = zak_transform(random_state())
    p1 = band_project(BOX, u, bands, 0)
    p2 = band_project(BOX, p1, bands, 0)
    assert np.abs(p2 - p1).max() < 1e-10
    pk = band_packet(bands, BOX, 0, k0=0.6, x0=0.0, sigma_k=0.25)
    zpk = zak_transform(pk)
    proj = band_project(BOX, zpk, bands, 0)
    assert np.abs(proj - zpk).max() < 1e-10
    # complementary projection annihilates the packet
    comp = zpk - proj
    assert np.abs(comp).max() < 1e-10


def test_band_project_commutes_with_free_fiber_hamiltonian():
    pot = mathieu_potential(1.0)
    bands = solve_bands(pot, BOX.fiber_grid(), 6, 3)
    zak = zak_transform(random_state())
    m = BOX.m
    y = BOX.cell_coords()
    # per-fiber Hamiltonian on the cell grid (spectral kinetic + potential)
    xi = 2 * np.pi * np.fft.fftfreq(m, d=1.0 / m)
    worst = 0.0
    for q in (0, 5, 16):
        k = BOX.fiber_grid().points[q, 0]
        kin = np.fft.ifft(np.diag(0.5 * (xi + k) ** 2) @ np.fft.fft(np.eye(m), axis=0), axis=0)
        H = kin + np.diag(pot.evaluate(y[:, None]))
        # compare P H u vs H P u on this fiber
        u = zak[q]
        # rank-one projector from the packet machinery
        from peierls_lab.quantum import _fiber_vectors_on_cells
        vq = _fiber_vectors_on_cells(bands, BOX, 0, gauge=False)[q]
        P = np.outer(vq, np.conj(vq))
        worst = max(worst, np.abs(P @ (H @ u) - H @ (P @ u)).max())
    assert worst < 1e-10


def test_propagator_trivials():
    pot = mathieu_potential(1.0)
    fld = EMFieldConfig.zero(1, eps=0.1)
    H = realspace_hamiltonian(BOX, pot, fld)
    prop = Propagator.of(H)
    psi = random_state().samples
    assert np.abs(prop.apply(psi, 0.0) - psi).max() < 1e-12
    out = prop.apply(psi, 0.7 / 0.1)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def _complex_formula(prop, psi, s):
    U = prop.U.astype(complex)
    ph = np.exp(-1j * s * prop.w).reshape((-1,) + (1,) * (psi.ndim - 1))
    return U @ (ph * (U.conj().T @ psi))


@pytest.mark.parametrize("shape", [(BOX.n_points,), (BOX.n_points, 3)])
def test_apply_with_real_basis_matches_complex_formula(shape):
    H = realspace_hamiltonian(BOX, mathieu_potential(1.0), EMFieldConfig.zero(1, eps=0.1))
    prop = Propagator.of(H)
    assert prop.U.dtype == np.float64
    psi = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    psi /= np.linalg.norm(psi, axis=0)
    out = prop.apply(psi, 0.7 / 0.1)
    assert out.shape == shape and out.dtype == complex
    assert np.abs(out - _complex_formula(prop, psi, 0.7 / 0.1)).max() < 1e-13
    # real input, and a complex basis on the same shapes
    assert np.abs(prop.apply(psi.real, 0.7 / 0.1)
                  - _complex_formula(prop, psi.real, 0.7 / 0.1)).max() < 1e-13
    cprop = Propagator(w=prop.w, U=prop.U * np.exp(0.3j))
    assert np.abs(cprop.apply(psi, 0.7 / 0.1) - out).max() < 1e-13


def _small_limit(eps_list=(0.12, 0.06)):
    """A two-box limit check (N = 434 and 854) under phi(r) = -0.2 sin r."""
    def gphi(r):
        return -0.2 * np.cos(r[..., :1])

    def grad_hess(r):
        return gphi(r), 0.2 * np.sin(r[..., :1, None])
    fld = EMFieldConfig.zero(1, eps=0.12, phi=lambda r: -0.2 * np.sin(r[..., 0]),
                             grad_phi=gphi, grad_hess_phi=grad_hess)
    return semiclassical_limit_check(mathieu_potential(3.0), fld, 0, list(eps_list),
                                     t=0.4, macro_box=3.6)


def test_semiclassical_limit_one_eps_fits_no_slope():
    """One eps fixes no slope: both slopes are nan, and no fit is tried
    (numpy would warn and return a meaningless number)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _small_limit(eps_list=[0.12])
    assert rep["error_point"].shape == rep["error_avg"].shape == (1,)
    assert np.isnan(rep["slope_point"]) and np.isnan(rep["slope_avg"])


@pytest.mark.parametrize("band_index", [quantum.LIMIT_BANDS, -1])
def test_semiclassical_limit_refuses_band_index_before_solving(monkeypatch, band_index):
    def no_solve(*args, **kwargs):
        raise AssertionError("bands solved before band_index was checked")
    monkeypatch.setattr(quantum, "solve_bands", no_solve)
    fld = EMFieldConfig.zero(1, eps=0.12)
    with pytest.raises(QuantumError, match=f"band_index {band_index} outside"):
        semiclassical_limit_check(mathieu_potential(3.0), fld, band_index, [0.12, 0.06],
                                  t=0.4, macro_box=3.6)


@pytest.mark.parametrize("eps_list, t, message", [
    ([0.12, 0.06], float("nan"), "t must be a finite number >= 0"),
    ([0.12, 0.06], float("inf"), "t must be a finite number >= 0"),
    ([0.12, 0.06], -1.0, "t must be a finite number >= 0"),
    ([], 0.4, "eps_list is empty"),
    ([0.12, 0.0], 0.4, "eps must be a positive finite number"),
    ([-0.12], 0.4, "eps must be a positive finite number"),
    ([0.12, float("nan")], 0.4, "eps must be a positive finite number"),
    ([float("inf")], 0.4, "eps must be a positive finite number"),
], ids=["t_nan", "t_inf", "t_negative", "no_eps", "eps_zero", "eps_negative", "eps_nan",
        "eps_inf"])
def test_semiclassical_limit_refuses_bad_inputs_before_solving(monkeypatch, eps_list, t,
                                                                message):
    def no_solve(*args, **kwargs):
        raise AssertionError("bands solved before the inputs were checked")
    monkeypatch.setattr(quantum, "solve_bands", no_solve)
    fld = EMFieldConfig.zero(1, eps=0.12)
    with pytest.raises(QuantumError, match=message):
        semiclassical_limit_check(mathieu_potential(3.0), fld, 0, eps_list, t=t,
                                  macro_box=3.6)


def _counting_limit(monkeypatch, eps_list):
    """_small_limit at eps_list, with the starts of each quantum._rk4_run
    call and the k-points of each quantum.solve_bands call recorded."""
    runs, solves = [], []
    run, solve = quantum._rk4_run, quantum.solve_bands

    def counting_run(k0, *args, **kwargs):
        runs.append(len(k0))
        return run(k0, *args, **kwargs)

    def counting_solve(potential, kgrid, *args, **kwargs):
        solves.append(kgrid.shape)
        return solve(potential, kgrid, *args, **kwargs)
    monkeypatch.setattr(quantum, "_rk4_run", counting_run)
    monkeypatch.setattr(quantum, "solve_bands", counting_solve)
    rep = _small_limit(eps_list)
    return rep, runs, solves


def test_semiclassical_limit_integrates_one_flow_for_every_eps(monkeypatch):
    # boxes of 31 and 61 cells, both under the oracle's 64 points: one
    # re-solve on 64 points serves the one flow of 1 + 64 starts per eps
    rep, runs, solves = _counting_limit(monkeypatch, (0.12, 0.06))
    assert runs == [130]
    assert solves == [(31,), (61,), (quantum.LIMIT_FLOW_GRID,)]
    assert rep["oracle"] == {"kgrid": 64, "trajectories": 130, "steps": 80}


def test_semiclassical_limit_reads_the_finest_box_bands(monkeypatch):
    # the finest box has 73 cells: its own bands give the band data, so
    # each eps solves once and nothing more
    rep, runs, solves = _counting_limit(monkeypatch, (0.12, 0.05))
    assert runs == [130]
    assert solves == [(31,), (73,)]
    assert rep["oracle"]["kgrid"] == 73


def test_windowed_conjugation_is_block_of_full():
    rng = np.random.default_rng(4)
    n = 60
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    prop = Propagator.of(H + H.conj().T)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # oracle: the two-sided product U (e^{iws} (U^dagger M U) e^{-iws}) U^dagger
    ph = np.exp(1j * (0.7 / 0.1) * prop.w)
    Uh = prop.U.conj().T
    full = prop.U @ (ph[:, None] * (Uh @ M @ prop.U) * np.conj(ph)[None, :]) @ Uh
    assert np.abs(prop.conjugate(M, 0.7 / 0.1) - full).max() <= 1e-13 * np.abs(full).max()
    for idx in (np.arange(20, 41), rng.choice(n, 17, replace=False)):
        block = prop.conjugate(M, 0.7 / 0.1, idx)
        assert block.shape == (len(idx), len(idx))
        ref = full[np.ix_(idx, idx)]
        assert np.abs(block - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["complex", "real", "rows", "stack"])
def test_unitary_matches_the_matrix_exponential(case):
    rng = np.random.default_rng(5)
    shape = (4, 13, 13) if case == "stack" else (30, 30)
    A = rng.normal(size=shape)
    if case != "real":
        A = A + 1j * rng.normal(size=shape)
    H = A + np.conj(np.swapaxes(A, -1, -2))
    s = 0.7 / 0.1
    rows = rng.choice(30, 11, replace=False) if case == "rows" else None
    expected = np.array([expm(-1j * s * h) for h in H.reshape((-1,) + H.shape[-2:])])
    expected = expected.reshape(H.shape)[() if rows is None else rows]
    prop = Propagator.of(H)
    assert prop.U.dtype == (np.float64 if case == "real" else complex)
    out = prop.unitary(s, rows)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("m", [7, 8, 13])
def test_realspace_hamiltonian_matches_index_table_build(m):
    # n_cells is odd, so an odd m gives an odd N, as in every box of
    # semiclassical_limit_check (13: Mathieu at cutoff 6), and m = 8 an even N
    box = RealSpaceBox(lattice=LAT1, n_cells=5, m=m)
    fld = EMFieldConfig.zero(1, eps=0.2, phi=lambda r: 0.3 * np.cos(r[..., 0]))
    pot = mathieu_potential(1.3)
    n = box.n_points
    col = np.fft.ifft(0.5 * (2 * np.pi * np.fft.fftfreq(n, d=1.0 / box.m)) ** 2).real
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    x = box.points()
    expected = col[idx] + np.diag(pot.evaluate(x) + fld.phi(fld.eps * x[:, None]))
    assert np.array_equal(realspace_hamiltonian(box, pot, fld), expected)


def test_dense_runs_refuse_at_entry_beyond_memory(monkeypatch):
    # the memory figure is faked; each whole-run estimate is checked before
    # the first sample, band solve or dense matrix
    from peierls_lab import weyl
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"physical memory": 2**20})
    heff, fld, grid, f = _one_dim_zero_field()

    def unsampled(k, r):
        raise AssertionError("sampled before the memory check")
    with pytest.raises(DenseMemoryError, match=r"egorov_error on grid \(129,\)"):
        egorov_error(unsampled, heff, grid, fld, t=0.3)

    class Unflowed:
        def grad_pair(self, k, r):
            raise AssertionError("flowed before the memory check")
    with pytest.raises(DenseMemoryError, match=r"flowed_symbol on grid \(129,\)"):
        quantum.flowed_symbol(unsampled, grid, Unflowed(), fld, t=0.3, dt=0.05)

    def unsolved(*args, **kwargs):
        raise AssertionError("solved before the memory check")
    monkeypatch.setattr(quantum, "solve_bands", unsolved)
    with pytest.raises(DenseMemoryError, match=r"semiclassical_limit_check on grid \(2613,\)"):
        semiclassical_limit_check(mathieu_potential(3.0), EMFieldConfig.zero(1, eps=0.08),
                                  0, [0.08, 0.04, 0.02], t=1.0)


def test_gauss_hermite_nodes_match_hermegauss():
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    assert np.abs(quantum._GH_NODES - nodes).max() <= 1e-15
    assert np.abs(quantum._GH_WEIGHTS - weights).max() <= 1e-15


# a potential whose support |n| = 4 reaches past a band cutoff of 2
BEYOND_CUTOFF = FourierPotential(LAT1, {(1,): 0.5, (-1,): 0.5, (4,): 0.3 - 0.2j,
                                        (-4,): 0.3 + 0.2j})


def test_limit_box_samples_a_potential_beyond_the_cutoff_unaliased():
    # V reaches |n| = 4 past a cutoff of 2: the box takes 2 * 4 + 1 points per
    # cell, on which the cell DFT of V gives back each coefficient, where the
    # band vectors' own 5 points would fold n = 4 onto n = -1
    pot = BEYOND_CUTOFF
    box = quantum._limit_box(pot, 2, 0.1, 4.0)
    assert (box.n_cells, box.m) == (41, 9)

    def cell_dft(m):
        return np.fft.fft(pot.evaluate(np.arange(m) / m)) / m
    vhat = cell_dft(box.m)
    for n in range(-4, 5):
        assert abs(vhat[n % box.m] - pot.vhat((n,))) < 1e-15, n
    assert abs(cell_dft(5)[-1] - pot.vhat((-1,))) > 0.1
    assert quantum._limit_box(mathieu_potential(3.0), 2, 0.1, 4.0).m == 5


def test_limit_box_floor_loses_nothing():
    # one cutoff-6 band packet on 13 points per cell (the floor) and on 15,
    # each evolved by its box's dense H: <T_1> agrees to rounding
    cfg = parse_config(
        '{"experiment": "propagate", "lattice": {"dim": 1}, '
        '"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.4, "period": 4.0}}}')
    eps, pot = 0.1, mathieu_potential(3.0)
    fld = cli._build_field(cfg, 1, eps)
    floor = quantum._limit_box(pot, 6, eps, 4.0)
    assert floor.m == 13
    t1 = []
    for box in (floor, dataclasses.replace(floor, m=15)):
        bands = solve_bands(pot, box.fiber_grid(), 6, quantum.LIMIT_BANDS)
        psi0 = band_packet(bands, box, 0, k0=quantum.LIMIT_K0, x0=0.0,
                           sigma_k=np.sqrt(eps))
        prop = Propagator.of(realspace_hamiltonian(box, pot, fld))
        psi_t = WaveFunction(box, prop.apply(psi0.samples, 1.0 / eps))
        t1.append(quantum._translation_expectation(psi_t))
    assert abs(t1[0] - t1[1]) <= 1e-10


@pytest.mark.parametrize("pot, box", [
    (mathieu_potential(1.3), RealSpaceBox(lattice=LAT1, n_cells=7, m=13)),
    (mathieu_potential(1.3), RealSpaceBox(lattice=LAT1, n_cells=7, m=8)),
    (BEYOND_CUTOFF, quantum._limit_box(BEYOND_CUTOFF, 2, 0.4, 4.0)),
], ids=["odd_m", "even_m", "beyond_cutoff"])
def test_fiber_blocks_reproduce_the_dense_box_hamiltonian(pot, box):
    # the dense H_per (phi = 0) carried to the cell-axis FFT is block
    # diagonal, with fiber_blocks on the diagonal, to rounding
    nc, m = box.n_cells, box.m
    H = realspace_hamiltonian(box, pot, EMFieldConfig.zero(1, eps=0.1))
    F = np.fft.fft(np.eye(nc), axis=0) / np.sqrt(nc)
    Hq = np.einsum("qc,cjdl,pd->qjpl", F, H.reshape(nc, m, nc, m), F.conj(), optimize=True)
    expected = np.zeros_like(Hq)
    for q, block in enumerate(quantum.fiber_blocks(box, pot)):
        expected[q, :, q, :] = block
    assert np.abs(Hq - expected).max() <= 1e-13 * np.abs(H).max()


def _propagate_box(eps):
    """The propagate_bloch field, box and band packet at eps (cutoff 6)."""
    cfg = parse_config((Path(__file__).resolve().parents[1] / "configs"
                        / "propagate_bloch.json").read_text())
    pot, fld = mathieu_potential(3.0), cli._build_field(cfg, 1, eps)
    box = quantum._limit_box(pot, 6, eps, 4.0)
    bands = solve_bands(pot, box.fiber_grid(), 6, quantum.LIMIT_BANDS)
    psi0 = band_packet(bands, box, 0, k0=quantum.LIMIT_K0, x0=0.0, sigma_k=np.sqrt(eps))
    return pot, fld, box, psi0


def test_split_step_matches_the_dense_propagator():
    # at eps 0.12 and t = 1 (167 steps): the state is 1.2e-7 from the dense
    # propagator's in norm, most of it in the plane waves past |G| = 2, and
    # Im<T_1> 3.2e-11 from it; the bounds are about 10x those
    pot, fld, box, psi0 = _propagate_box(0.12)
    dense = Propagator.of(realspace_hamiltonian(box, pot, fld)).apply(psi0.samples,
                                                                      1.0 / fld.eps)
    blocks = Propagator.of(quantum.fiber_blocks(box, pot))
    assert blocks.w.shape == (box.n_cells, box.m) and blocks.symmetry is None
    split = quantum.split_step(blocks, box, fld, psi0.samples, 1.0, quantum.SPLIT_TAU)
    assert np.linalg.norm(split - dense) <= 1e-6
    t1 = [quantum._translation_expectation(WaveFunction(box, psi)) for psi in (split, dense)]
    assert abs(np.imag(t1[0] - t1[1])) <= 3e-10


def test_split_step_is_fourth_order():
    # |Delta Im<T_1>| between tau = 0.1 and 0.05 over that between 0.05 and
    # 0.025: 16 for a fourth-order scheme, 4 for a second-order one (the W~
    # correction dropped or of the wrong sign)
    pot, fld, box, psi0 = _propagate_box(0.1)
    blocks = Propagator.of(quantum.fiber_blocks(box, pot))
    t1 = [np.imag(quantum._translation_expectation(WaveFunction(
        box, quantum.split_step(blocks, box, fld, psi0.samples, 1.0, tau))))
        for tau in (0.1, 0.05, 0.025)]
    assert abs(t1[0] - t1[1]) >= 12 * abs(t1[1] - t1[2])


def _recording_flow_grids(monkeypatch):
    """Each trajectory batch quantum._rk4_run integrates, in call order: the
    points per axis, (X_1.., X_d, k_1.., k_d), of a flow grid, and the
    number of starts of any other batch.  In egorov_error the first two are
    the step-halving probe's 16 random starts; a flow grid that passes its
    tail test is followed by flowed_symbol's 64 probe points."""
    seen = []
    rk4 = quantum._rk4_run

    def recording(K, X, *args, **kwargs):
        shape = tuple(len(np.unique(c)) for c in np.hstack([X, K]).T)
        seen.append(shape if np.prod(shape) == len(K) else len(K))
        return rk4(K, X, *args, **kwargs)
    monkeypatch.setattr(quantum, "_rk4_run", recording)
    return seen


def test_egorov_counts_its_flow_at_entry(monkeypatch):
    # egorov_error counts its first flow grid and its dense steps at entry
    # (Op(h), Op(f) and a quantize, 208 per N^2 entry, plus the interior
    # block of Op(f o Phi_t)); flowed_symbol runs before anything is
    # quantized and refuses each larger flow grid before it integrates it.
    # On the 1-D grid itself the flow, 384 bytes per trajectory plus 64 per
    # N^2 sample, needs more than the dense steps: a memory figure between
    # the two lets the run start and refuses the ladder's top
    from peierls_lab import weyl
    heff, fld, grid, f = _one_dim_zero_field()
    N, W = grid.n_points, len(grid.interior_indices())
    dense = (2 * 16 + weyl._QUANTIZE_BYTES) * N * N + 16 * W * W
    assert dense < 300 * N * N < quantum._flow_bytes(grid, grid.ns) == 448 * N * N
    assert quantum._flow_bytes(grid, (95,)) < 300 * N * N
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"physical memory": 300 * N * N})

    def unquantized(*args, **kwargs):
        raise AssertionError("quantized before the flow")
    monkeypatch.setattr(quantum, "quantize", unquantized)
    flows = _recording_flow_grids(monkeypatch)
    # r is not periodic on the box, so no flow grid below the grid resolves it
    with pytest.raises(DenseMemoryError, match=r"flowed_symbol on grid \(129,\)"):
        egorov_error(lambda k, r: f(k, r) + r[..., 0], heff, grid, fld, t=0.3)
    assert flows[2:] == [(m, m) for m in (5, 11, 23, 47, 95)]
    # the CLI preflight counts the same: the 1-D grids of
    # configs/egorov_1d.json pass it where their dense steps fit
    cfg = parse_config((Path(__file__).parents[1] / "configs" / "egorov_1d.json").read_text())
    big = max(cli._egorov_grids(cfg), key=lambda gf: gf[0].n_points)[0]
    for limit, refused in ((300, False), (200, True)):
        monkeypatch.setattr(weyl, "_memory_figures",
                            lambda: {"physical memory": limit * big.n_points ** 2})
        if refused:
            with pytest.raises(DenseMemoryError,
                               match=rf"egorov_error on grid \({big.ns[0]},\)"):
                cli._egorov_memory(cfg, LAT1)
        else:
            cli._egorov_memory(cfg, LAT1)


def test_egorov_preflight_admits_2d_grids_its_dense_steps_fit(monkeypatch):
    """With 7 GiB a 2-D egorov run fits to n = 77, bounded by its dense
    steps, not by a flow on the grid itself (832 N^2 bytes)."""
    from peierls_lab import weyl
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"physical memory": 7 * 2**30})
    for n in (77, 79):
        grid = PhaseSpaceGrid.build((n, n), 1.0, eps=2.1 / n)
        fld = EMFieldConfig.constant(2, b=1.0, eps=grid.eps)
        if n == 77:
            quantum.check_egorov_memory(grid, fld)
        else:
            with pytest.raises(DenseMemoryError, match=r"egorov_error on grid \(79, 79\)"):
                quantum.check_egorov_memory(grid, fld)


@pytest.mark.parametrize("d,n,flow_shape", [(1, 129, None), (2, 15, None),
                                            (2, 21, (9, 9))])
def test_flowed_symbol_preflight_covers_measured_peak(d, n, flow_shape, monkeypatch):
    """flowed_symbol peaks below the largest of the bytes its preflights
    checked, with an explicit flow grid and with the ladder, which climbs
    to the grid itself here: cos(r) is not periodic on the box (constant
    field, cosine band)."""
    lat = Lattice.cubic(d)
    skew = np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)
    band = synthetic_band(lat, (9,) * d, lambda k: np.cos(k).sum(-1),
                          lambda k: 0.2 * np.sin(k),
                          lambda k: 0.1 * np.cos(k[..., :1])[..., None] * skew,
                          lambda k: 0.2 * np.sin(k[..., :1])[..., None] * skew)
    grid = PhaseSpaceGrid.build((n,) * d, 1.0, eps=4.0 / n)
    fld = EMFieldConfig.constant(d, b=0.8 * (d > 1), eps=grid.eps, lam=0.7 * (d > 1))
    checked = []
    # each check still refuses past 256 MiB, so a ladder that ran away would
    # stop there instead of taking the machine's memory
    from peierls_lab import weyl
    check = quantum.check_dense_memory
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"physical memory": 2**28})
    monkeypatch.setattr(quantum, "check_dense_memory", lambda what, grid, nbytes:
                        checked.append((what, nbytes)) or check(what, grid, nbytes))
    flows = _recording_flow_grids(monkeypatch)
    tracemalloc.start()
    try:
        quantum.flowed_symbol(lambda k, r: np.sin(k[..., 0]) + np.cos(r[..., -1]), grid,
                              EffectiveHamiltonian(band, fld), fld, 0.1, 0.05, flow_shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(shape, tuple) for shape in flows)
    assert len(checked) == len(flows) and {what for what, _ in checked} == {"flowed_symbol"}
    assert flows[-1] == 2 * (flow_shape or grid.ns)
    assert 0 < peak <= max(nbytes for _, nbytes in checked)


def test_dense_quantum_paths_refuse_sizes_beyond_physical_memory():
    fld = EMFieldConfig.zero(1, eps=0.1)
    box = RealSpaceBox(lattice=LAT1, n_cells=100001, m=14)
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError, match="GiB"):
            realspace_hamiltonian(box, mathieu_potential(1.0), fld)
        with pytest.raises(DenseMemoryError, match="GiB"):
            Propagator.of(np.broadcast_to(0.0, (10**6, 10**6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_propagate_reference_unitary_and_phase():
    n = 33
    eps = 0.1
    grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
    fld = EMFieldConfig.zero(1, eps=eps)
    const = sample_symbol(lambda k, r: 2.5, grid)
    h_op = quantize(const, fld, assume_bandlimited=True)
    psi = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    psi /= np.linalg.norm(psi)
    out = propagate_reference(h_op, fld, psi, t=0.3)
    phase = np.exp(-1j * (0.3 / eps) * 2.5)
    assert np.abs(out - phase * psi).max() < 1e-10
    band = synthetic_band(LAT1, (33,), lambda k: np.cos(k[..., 0]))
    heff = EffectiveHamiltonian(band, fld)
    h_sym = sample_symbol(heff.value, grid)
    h_op2 = quantize(h_sym, fld, assume_bandlimited=True)
    out2 = propagate_reference(h_op2, fld, psi, t=1.0)
    assert abs(np.linalg.norm(out2) - 1.0) < 1e-12


def test_propagate_reference_rejects_nonhermitian():
    n = 9
    grid = PhaseSpaceGrid.build(n, 1.0, eps=0.1)
    from peierls_lab.weyl import QuantizedOperator
    M = np.triu(np.ones((n, n), dtype=complex))
    fld = EMFieldConfig.zero(1, eps=0.1)
    with pytest.raises(QuantumError):
        propagate_reference(QuantizedOperator(grid, M), fld,
                            np.ones(n) / 3.0, 0.1)


def test_egorov_t0_zero_and_quadratic_floor(monkeypatch):
    eps = 0.1
    n = 65
    fld = EMFieldConfig.zero(1, eps=eps)
    band = synthetic_band(LAT1, (65,), lambda k: np.cos(k[..., 0]))
    heff = EffectiveHamiltonian(band, fld)
    # f is one harmonic on the position box; on the momentum box, 2 pi / h
    # long, sin k is harmonic 1 / h: at h = 0.5 that is the 5-point flow
    # grid's top frequency, so the ladder stops at 11 points, not 5.
    # Harmonic 5 of the position box is constant on the 5-point flow grid,
    # so that grid has no tail; its 64 probe points reject it, 11 points
    # put the harmonic in the tail shell, and 23 resolve it
    flows = _recording_flow_grids(monkeypatch)
    one = lambda k, r, L: np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
    fifth = lambda k, r, L: np.cos(2 * np.pi * 5 * r[..., 0] / L) + 0 * k[..., 0]
    for h, obs, ladder in ((1.0, one, [(5, 5), 64]),
                           (0.5, one, [(5, 5), (11, 11), 64]),
                           (1.0, fifth, [(5, 5), 64, (11, 11), (23, 23), 64])):
        grid = PhaseSpaceGrid.build(n, h, eps=eps)
        L = 65 * h * eps
        flows.clear()
        assert egorov_error(lambda k, r: obs(k, r, L), heff, grid, fld, t=0.0, dt=0.01) < 1e-12
        assert flows[2:] == ladder


def test_egorov_scaling_1d(monkeypatch):
    pot = mathieu_potential(1.0)
    bands = solve_bands(pot, make_kgrid(LAT1, 64), 8, 3)
    band = BandData.from_geometry(geometric_tensors(bands, 0))
    L = 12.9
    errs = []
    flows = _recording_flow_grids(monkeypatch)
    for n in (129, 257):
        eps = L / n
        def phi(r, L=L):
            r = np.asarray(r, float)
            return 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
        def gphi(r, L=L):
            r = np.asarray(r, float)
            return np.stack([-0.3 * 2 * np.pi / L * np.sin(2 * np.pi * r[..., 0] / L)], -1)
        def hphi(r, L=L):
            r = np.asarray(r, float)
            return (-0.3 * (2 * np.pi / L) ** 2 * np.cos(2 * np.pi * r[..., 0] / L))[..., None, None]
        fld = EMFieldConfig.zero(1, eps=eps, phi=phi, grad_phi=gphi,
                                 grad_hess_phi=lambda r: (gphi(r), hphi(r)))
        heff = EffectiveHamiltonian(band, fld)
        grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
        f = lambda k, r, L=L: np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
        flows.clear()
        errs.append(egorov_error(f, heff, grid, fld, t=1.0, dt=0.02))
        # the 47-point flow grid's tail, 7.5e-8, is above FLOW_TAIL_TOL; its
        # error would be 6% (n = 129) and 57% (n = 257) off the full grid's
        assert flows[2:] == [(m, m) for m in (5, 11, 23, 47, 95)] + [64]
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_egorov_probe_draws_each_axis_from_its_own_range(monkeypatch):
    import peierls_lab.quantum as quantum
    eps = 0.1
    grid = PhaseSpaceGrid.build((9, 25), (1.0, 0.2), eps=eps)
    fld = EMFieldConfig.zero(2, eps=eps)
    band = synthetic_band(Lattice.cubic(2), (9, 9), lambda k: np.cos(k[..., 0]))
    starts = []

    class Stop(Exception):
        pass

    def first_run(k0, r0, *args, **kwargs):
        starts.append(np.array(r0))
        raise Stop

    monkeypatch.setattr(quantum, "_rk4_run", first_run)
    with pytest.raises(Stop):
        egorov_error(lambda k, r: np.sin(k[..., 0]), EffectiveHamiltonian(band, fld),
                     grid, fld, t=0.1, dt=0.05)
    for l in range(2):
        X = grid.X_axis(l)
        assert np.all((starts[0][:, l] >= X[0]) & (starts[0][:, l] <= X[-1]))


def test_heisenberg_identity_observable():
    n = 33
    eps = 0.1
    grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
    fld = EMFieldConfig.zero(1, eps=eps)
    band = synthetic_band(LAT1, (33,), lambda k: np.cos(k[..., 0]))
    heff = EffectiveHamiltonian(band, fld)
    h_sym = sample_symbol(heff.value, grid)
    h_op = quantize(h_sym, fld, assume_bandlimited=True)
    ident = quantize(sample_symbol(lambda k, r: 1.0, grid), fld)
    out = heisenberg_evolve(h_op, ident, fld, t=0.8)
    assert np.abs(out - np.eye(n)).max() < 1e-10


def test_free_packet_group_velocity():
    V0 = FourierPotential(LAT1, {})
    bands0 = solve_bands(V0, BOX.fiber_grid(), 6, 3)
    pk0 = band_packet(bands0, BOX, 0, k0=0.7, x0=0.0, sigma_k=0.3,
                      smooth_gauge=False)
    fld = EMFieldConfig.zero(1, eps=0.05)
    prop = Propagator.of(realspace_hamiltonian(BOX, V0, fld))
    t = 0.012
    psit = WaveFunction(BOX, prop.apply(pk0.samples, t / 0.05))
    expected = 0.7 * t / 0.05
    assert abs(psit.position_expectation() - expected) < 1e-6
    assert abs(np.linalg.norm(psit.samples) - 1.0) < 1e-12


def test_packet_requires_matching_grid():
    pot = mathieu_potential(1.0)
    wrong = solve_bands(pot, make_kgrid(LAT1, 16), 6, 2)
    with pytest.raises(QuantumError):
        band_packet(wrong, BOX, 0, k0=0.3, x0=0.0, sigma_k=0.2)


# -- symmetry-reduced eigensolve ----------------------------------------------

# the 2-D Egorov benchmark problem: symmetric gauge, constant B, cosine phi,
# n = macro_box / eps = 21 points per axis (N = 441)
EGOROV_2D = """{"experiment": "egorov", "lattice": {"dim": 2},
  "potential": {"preset": "cosine2d", "v": 12.0, "w": 2.0},
  "field": {"b": 1.0, "lam": 0.5,
            "phi": {"preset": "cosine", "amplitude": 0.2, "period": 2.1}},
  "numerics": {"cutoff": 5, "kgrid": [15, 15], "n_bands": 3, "eps_list": [0.1],
               "dt": 0.05, "t_final": 0.3, "macro_box": 2.1}}"""


def _egorov_2d_inputs(seed):
    """(heff, field, grid, f) of the 2-D Egorov problem.  A nonzero seed
    multiplies the band solve's eigenvectors by random unit phases (gauge
    fixing must absorb them) and shifts the observable's two phases."""
    cfg = parse_config(EGOROV_2D)
    num = cfg.numerics
    lat = cli._build_lattice(cfg)
    bands = solve_bands(cli._build_potential(cfg, lat), make_kgrid(lat, tuple(num.kgrid)),
                        num.cutoff, num.n_bands)
    a = b = 0.0
    if seed:
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random(bands.vectors.shape[:2]))
        bands = dataclasses.replace(bands, vectors=bands.vectors * phases[..., None])
        a, b = 2 * np.pi * np.random.default_rng([seed, 1]).random(2)
    band = BandData.from_geometry(geometric_tensors(bands, 0))
    L = num.macro_box
    n = 21
    fld = cli._build_field(cfg, 2, L / n)
    grid = PhaseSpaceGrid.build((n, n), 1.0, eps=L / n)

    def f(k, r):
        return np.sin(k[..., 0] + a) + 0.3 * np.cos(2 * np.pi * r[..., 1] / L + b)

    return EffectiveHamiltonian(band, fld), fld, grid, f


@pytest.fixture(scope="module")
def egorov_2d():
    return _egorov_2d_inputs(0)


def _hermitian_op(heff, fld, grid):
    h_op = quantize(sample_symbol(heff.value, grid), fld, assume_bandlimited=True)
    return 0.5 * (h_op.matrix + h_op.matrix.conj().T)


def _one_dim_zero_field():
    """Op(h) and Op(f) of a cosine band under phi = 0.3 cos(2 pi r / L), no
    magnetic field: a complex matrix whose imaginary part is rounding."""
    n, eps = 129, 0.1
    L = n * eps
    fld = EMFieldConfig.zero(1, eps=eps, phi=lambda r: 0.3 * np.cos(2 * np.pi * r[..., 0] / L))
    band = synthetic_band(LAT1, (65,), lambda k: np.cos(k[..., 0]))
    grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
    f = lambda k, r: np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
    return EffectiveHamiltonian(band, fld), fld, grid, f


@pytest.mark.parametrize("problem", ["2d_symmetric_gauge", "1d_zero_field"])
def test_reduced_eigensolve_matches_complex_eigh(problem, egorov_2d):
    heff, fld, grid, f = egorov_2d if problem == "2d_symmetric_gauge" else _one_dim_zero_field()
    M = _hermitian_op(heff, fld, grid)
    assert np.iscomplexobj(M)
    prop = Propagator.of(M, grid.ns)
    expected = np.array([[0, 1], [1, 0]]) if grid.dim == 2 else np.eye(1)
    assert np.array_equal(prop.symmetry, expected)
    assert prop.symmetry_defect <= quantum.GRID_SYMMETRY_TOL
    w, U = np.linalg.eigh(M)
    assert np.abs(prop.w - w).max() <= 1e-12 * np.abs(w).max()
    f_op = quantize(sample_symbol(f, grid), fld, assume_bandlimited=True)
    iw = grid.interior_indices()
    ref = Propagator(w=w, U=U).conjugate(f_op.matrix, 0.3 / fld.eps, iw)
    out = prop.conjugate(f_op.matrix, 0.3 / fld.eps, iw)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def _swap_broken(M, size=1e-10):
    """M plus a Hermitian perturbation of relative size `size` on one
    off-diagonal pair, which no grid involution maps onto itself."""
    M = M.copy()
    M[0, 1] += size * np.abs(M).max() * (1 + 1j)
    M[1, 0] = np.conj(M[0, 1])
    return M


def test_broken_symmetry_takes_the_complex_eigh_bit_for_bit(egorov_2d):
    heff, fld, grid, _ = egorov_2d
    M = _swap_broken(_hermitian_op(heff, fld, grid))
    prop = Propagator.of(M, grid.ns)
    assert prop.symmetry is None
    assert prop.symmetry_defect > quantum.GRID_SYMMETRY_TOL
    w, U = np.linalg.eigh(M)
    assert np.array_equal(prop.w, w) and np.array_equal(prop.U, U)


def test_real_hamiltonian_takes_the_real_eigh_bit_for_bit():
    H = realspace_hamiltonian(BOX, mathieu_potential(1.0), EMFieldConfig.zero(1, eps=0.1))
    prop = Propagator.of(H)
    w, U = np.linalg.eigh(H)
    assert np.array_equal(prop.w, w) and np.array_equal(prop.U, U)
    assert prop.symmetry is None and prop.symmetry_defect is None


@pytest.mark.parametrize("seed", [0, 1])
def test_egorov_error_reduced_matches_complex_path(seed, monkeypatch):
    """The 2-D Egorov error through the pair-basis solve agrees with the
    complex eigh to the benchmark reference gate's rtol 1e-6."""
    heff, fld, grid, f = _egorov_2d_inputs(seed)
    reduced_calls = []
    pair_basis_eigh = quantum._pair_basis_eigh
    monkeypatch.setattr(quantum, "_pair_basis_eigh",
                        lambda H, p: reduced_calls.append(p) or pair_basis_eigh(H, p))
    kwargs = dict(t=0.3, dt=0.05, flow_shape=(9, 9))
    reduced = egorov_error(f, heff, grid, fld, **kwargs)
    assert len(reduced_calls) == 1
    monkeypatch.setattr(quantum, "_grid_symmetry", lambda H, ns: (None, None, np.inf))
    full = egorov_error(f, heff, grid, fld, **kwargs)
    assert len(reduced_calls) == 1
    assert abs(reduced - full) <= 1e-6 * full


def test_flow_ladder_stops_at_the_benchmark_flow_grid(egorov_2d, monkeypatch):
    """On the egorov-2d physics the ladder's 5 x 5 flow grid leaves a tail of
    5.9e-5 and its 9 x 9 one 7.9e-10, so it stops where the benchmark's
    explicit (9, 9) does, with the same error to the bit."""
    heff, fld, grid, f = egorov_2d
    explicit = egorov_error(f, heff, grid, fld, t=0.3, dt=0.05, flow_shape=(9, 9))
    flows = _recording_flow_grids(monkeypatch)
    assert egorov_error(f, heff, grid, fld, t=0.3, dt=0.05) == explicit
    assert flows[2:] == [(5,) * 4, (9,) * 4, 64]


def test_flow_ladder_ending_at_the_grid_is_not_resampled(monkeypatch):
    """A ladder that finds no resolving flow grid ends at the grid itself,
    each axis capped at its own n, and keeps those samples as they are."""
    def no_resample(*args):
        raise AssertionError("resampled a flow on the grid itself")
    monkeypatch.setattr(quantum, "resample_periodic", no_resample)
    # the grid's own flow needs 15 MB; a ladder climbing past it is refused
    # within a few steps instead of growing until memory runs out
    from peierls_lab import weyl
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"physical memory": 64 * 2**20})
    flows = _recording_flow_grids(monkeypatch)
    grid = PhaseSpaceGrid.build((9, 15), 1.0, eps=0.1)
    fld = EMFieldConfig.zero(2, eps=0.1)
    band = synthetic_band(Lattice.cubic(2), (9, 9), lambda k: np.cos(k).sum(-1))
    # exp(2 cos k) has every harmonic, and r_2, not periodic on the box,
    # keeps every flow grid's tail far above FLOW_TAIL_TOL
    f = lambda k, r: np.exp(2 * np.cos(k[..., 0])) + r[..., 1]
    sym = quantum.flowed_symbol(f, grid, EffectiveHamiltonian(band, fld), fld, 0.2, 0.05)
    assert flows == [(5,) * 4, (9,) * 4, (9, 13, 9, 13), (9, 15, 9, 15)]
    assert sym.samples.shape == grid.ns + grid.ns


def test_propagator_rejects_a_grid_shape_that_does_not_fit_h():
    with pytest.raises(QuantumError, match="does not index"):
        Propagator.of(np.eye(60, dtype=complex), (5, 5))


def test_grid_involutions_map_the_grid_onto_itself():
    for ns, count in (((7,), 2), ((5, 5), 6), ((5, 7), 4), ((3, 3, 3), 20), ((4,), 1)):
        pairs = quantum.grid_involutions(ns)
        assert len(pairs) == count, ns
        assert np.array_equal(pairs[0][0], np.eye(len(ns)))
        for S, p in pairs:
            assert np.array_equal(np.sort(p), np.arange(np.prod(ns)))
            assert np.array_equal(p[p], np.arange(np.prod(ns)))
            pts = np.indices(ns).reshape(len(ns), -1).T - (np.array(ns) - 1) // 2
            assert np.array_equal(pts[p], pts @ S.T)


_PREFLIGHT_CHILD = """
import json, sys
import numpy as np
from peierls_lab import quantum

def peak_rss():         # VmHWM, unlike ru_maxrss, starts afresh at exec
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1]) for line in fh if line.startswith("VmHWM"))

checked = {}
quantum.check_dense_memory = lambda what, grid, nbytes: checked.setdefault(what, nbytes)
H = np.load(sys.argv[1])
for dtype in (float, complex):          # page LAPACK in before measuring
    np.linalg.eigh(np.eye(64, dtype=dtype))
before = peak_rss()
prop = quantum.Propagator.of(H, (21, 21))
print(json.dumps({"checked": checked["Propagator.of"], "growth": peak_rss() - before,
                  "reduced": prop.symmetry is not None}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("path", ["pair_basis", "complex_fallback"])
def test_propagator_preflight_covers_measured_peak(path, egorov_2d, tmp_path):
    """At N = 441 the peak resident set of Propagator.of, measured in a fresh
    interpreter after LAPACK is paged in, grows by less than the bytes its
    preflight checked, on either path.  LAPACK works in arrays it allocates
    itself, which tracemalloc does not see, so the peak RSS is read instead;
    one BLAS thread keeps OpenBLAS's per-thread buffers out of the figure."""
    heff, fld, grid, _ = egorov_2d
    M = _hermitian_op(heff, fld, grid)
    np.save(tmp_path / "H.npy", M if path == "pair_basis" else _swap_broken(M))
    src = os.path.dirname(os.path.dirname(quantum.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _PREFLIGHT_CHILD, str(tmp_path / "H.npy")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    rec = json.loads(out.stdout)
    assert rec["reduced"] == (path == "pair_basis")
    assert 0 < rec["growth"] <= rec["checked"]
