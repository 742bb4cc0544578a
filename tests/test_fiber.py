import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls_lab import fiber, weyl
from peierls_lab.effective import BandData
from peierls_lab.fiber import (BandStructure, FiberError, FourierPotential,
                               PlaneWaveBasis, check_band_memory, check_gap,
                               fiber_basis, fiber_terms,
                               fiber_symmetries, kgrid_orbits,
                               mathieu_potential, potential_2d, solve_bands)
from peierls_lab.geometry import geometric_tensors
from peierls_lab.lattice import Lattice, make_kgrid
from peierls_lab.weyl import DenseMemoryError

from oracles import (bz_coefficients, fiber_matrix, shift_matrix, tau_equivariance_check,
                     wrap_to_bz)

LAT1 = Lattice.cubic(1)
LAT2 = Lattice.cubic(2)


def realspace_oracle_1d(potential, k, m=1500, n_levels=3):
    """Independent dense real-space diagonalization with a 5-point stencil.

    Fourth-order finite differences on the unit cell with Bloch boundary
    phases; accuracy ~ (2 pi h)^4 well below 1e-6 for the lowest levels.
    """
    h = 1.0 / m
    y = np.arange(m) * h
    main = np.full(m, 30.0)
    off1 = np.full(m - 1, -16.0)
    off2 = np.full(m - 2, 1.0)
    T = (np.diag(main) + np.diag(off1, 1) + np.diag(off1, -1)
         + np.diag(off2, 2) + np.diag(off2, -2)).astype(complex)
    bloch = np.exp(1j * k)
    T[0, m - 1] += -16.0 * np.conj(bloch)
    T[m - 1, 0] += -16.0 * bloch
    T[0, m - 2] += 1.0 * np.conj(bloch)
    T[1, m - 1] += 1.0 * np.conj(bloch)
    T[m - 2, 0] += 1.0 * bloch
    T[m - 1, 1] += 1.0 * bloch
    # (-1/2) d^2/dy^2 with psi(y+1) = e^{ik} psi(y); -i d -> -i d + k folded in
    H = T / (24.0 * h * h)
    # shift to the (-i d/dy + k)^2 form: absorb via the gauge psi = e^{iky} u
    H += np.diag(potential.evaluate(y[:, None]))
    return np.linalg.eigvalsh(H)[:n_levels]


def test_free_fiber_cutoff1():
    V0 = FourierPotential(LAT1, {})
    fm = fiber_matrix(0.0, V0, 1)
    expected = np.diag([0.5 * (2 * np.pi) ** 2, 0.0, 0.5 * (2 * np.pi) ** 2])
    assert np.abs(fm.matrix - expected).max() < 1e-12


def test_mathieu_tridiagonal():
    pot = mathieu_potential(0.7)
    fm = fiber_matrix(0.3, pot, 3)
    M = fm.matrix
    assert abs(M[0, 1] - 0.7) < 1e-14 and abs(M[1, 0] - 0.7) < 1e-14
    assert abs(M[0, 2]) == 0.0 and abs(M[0, 3]) == 0.0


def test_mathieu_vs_realspace_oracle():
    pot = mathieu_potential(1.0)
    ev = np.linalg.eigvalsh(fiber_matrix(0.0, pot, 8).matrix)[:3]
    oracle = realspace_oracle_1d(pot, 0.0)
    assert np.abs(ev - oracle).max() < 1e-6


def test_fiber_hermitian_and_rejects_small_cutoff():
    pot = potential_2d(1.0, 0.4)
    fm = fiber_matrix([0.2, -0.4], pot, 3)
    assert np.abs(fm.matrix - fm.matrix.conj().T).max() < 1e-12
    with pytest.raises(FiberError):
        fiber_matrix([0.0, 0.0], pot, 0)


def test_free_bands_exact():
    V0 = FourierPotential(LAT1, {})
    grid = make_kgrid(LAT1, 32)
    bands = solve_bands(V0, grid, 4, 3)
    assert np.abs(bands.energies[0] - 0.5 * grid.points.ravel() ** 2).max() < 1e-10


def test_free_band_touchings():
    V0 = FourierPotential(LAT1, {})
    # folding: lowest two branches meet at the zone edge, the next two at 0
    edge = np.linalg.eigvalsh(fiber_matrix(np.pi, V0, 4).matrix)
    assert abs(edge[0] - edge[1]) < 1e-10
    center = np.linalg.eigvalsh(fiber_matrix(0.0, V0, 4).matrix)
    assert abs(center[1] - center[2]) < 1e-10


def test_mathieu_band_energy_cross_check():
    pot = mathieu_potential(1.0)
    grid = make_kgrid(LAT1, 16)
    bands = solve_bands(pot, grid, 8, 2)
    k0 = grid.points.ravel()[3]
    oracle = realspace_oracle_1d(pot, k0, n_levels=1)
    assert abs(bands.energies[0, 3] - oracle[0]) < 1e-6


def test_check_gap_free_lowest_touches():
    V0 = FourierPotential(LAT1, {})
    # free bands 1 and 2 touch at k = 0, a point of every odd grid
    grid = make_kgrid(LAT1, 33)
    bands = solve_bands(V0, grid, 4, 3)
    assert check_gap(bands, [1]) < 1e-12


def test_check_gap_mathieu_positive_and_refines():
    pot = mathieu_potential(1.0)
    # the infimum of band 1's gaps, to band 2, sits at k = 0, a point of
    # every odd grid
    coarse = solve_bands(pot, make_kgrid(LAT1, 15), 8, 3)
    fine = solve_bands(pot, make_kgrid(LAT1, 129), 10, 3)
    g_coarse = check_gap(coarse, [1])
    g_fine = check_gap(fine, [1])
    assert g_fine > 0
    assert abs(g_coarse - g_fine) < 1e-6


def test_check_gap_all_bands_uses_guard():
    pot = mathieu_potential(1.0)
    bands = solve_bands(pot, make_kgrid(LAT1, 16), 6, 4)
    g = check_gap(bands, [0, 1, 2, 3])
    # distance to the first omitted eigenvalue of the same matrices
    oracle = np.inf
    for p in range(bands.kgrid.n_points):
        ev = np.linalg.eigvalsh(fiber_matrix(bands.kgrid.points[p],
                                             pot, 6).matrix)
        oracle = min(oracle, ev[4] - ev[3])
    assert abs(g - oracle) < 1e-10


def test_check_gap_rejects_non_contiguous():
    pot = mathieu_potential(1.0)
    bands = solve_bands(pot, make_kgrid(LAT1, 8), 6, 4)
    with pytest.raises(FiberError):
        check_gap(bands, [0, 2])


@pytest.mark.parametrize("index_set, message", [
    ([], "index set is empty"),
    ([0, 0], r"index set \[0, 0\] repeats a band"),
    ([1, 2, 1], r"index set \[1, 1, 2\] repeats a band"),
])
def test_check_gap_rejects_empty_or_repeated_index_sets(index_set, message):
    bands = solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 8), 6, 4)
    with pytest.raises(FiberError, match=message):
        check_gap(bands, index_set)


@pytest.mark.parametrize("n_bands", [0, -1])
def test_solve_bands_rejects_n_bands_below_one(n_bands):
    with pytest.raises(FiberError):
        solve_bands(mathieu_potential(3), make_kgrid(LAT1, 8), 4, n_bands)


NON_EVEN_2D = FourierPotential(LAT2, {(1, 0): 0.3 + 0.4j, (-1, 0): 0.3 - 0.4j,
                                      (0, 1): 0.5j, (0, -1): -0.5j,
                                      (1, 1): 0.7, (-1, -1): 0.7})
# unequal (1, 0) and (0, 1) coefficients break the diagonal mirror
S_BREAKING_2D = FourierPotential(LAT2, {(1, 0): 12.0, (-1, 0): 12.0,
                                        (0, 1): 10.0, (0, -1): 10.0,
                                        (1, 1): 2.0, (-1, -1): 2.0})
LAT_HEX = Lattice.from_basis([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
HEX_2D = FourierPotential(LAT_HEX, {n: 1.5 + 0.0j for n in
                                   [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]})
LAT3 = Lattice.cubic(3)
CUBIC_3D = FourierPotential(LAT3, {n: 2.0 + 0.0j for n in
                                   [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                    (0, 0, 1), (0, 0, -1)]})


@pytest.mark.parametrize("pot, grid, cutoff, n_bands, n_group", [
    (potential_2d(12, 2), make_kgrid(LAT2, 15), 5, 3, 4),
    (potential_2d(12, 2), make_kgrid(LAT2, 14), 5, 3, 4),
    (NON_EVEN_2D, make_kgrid(LAT2, 9), 4, 3, 2),
    (S_BREAKING_2D, make_kgrid(LAT2, 9), 4, 3, 2),
    (HEX_2D, make_kgrid(LAT_HEX, 9), 4, 3, 4),
    (CUBIC_3D, make_kgrid(LAT3, 4), 2, 3, 48),
], ids=["centered-15x15", "centered-14x14", "complex-9x9", "s-breaking-9x9",
        "hexagonal-9x9", "cubic-4x4x4"])
def test_solve_bands_matches_fiber_matrix(pot, grid, cutoff, n_bands, n_group):
    bands = solve_bands(pot, grid, cutoff, n_bands)
    assert bands.vectors.dtype == np.complex128
    k = grid.points
    for p in range(grid.n_points):
        H = fiber_matrix(k[p], pot, cutoff).matrix
        assert H.dtype == (np.complex128 if pot is NON_EVEN_2D else np.float64)
        ev = np.linalg.eigvalsh(H)
        assert np.abs(bands.energies[:, p] - ev[:n_bands]).max() < 1e-10
        assert abs(bands.guard_energies[p] - ev[n_bands]) < 1e-10
        u = bands.vectors[:, p, :]                      # (n_bands, D)
        resid = H @ u.T - u.T * bands.energies[:, p]
        assert np.linalg.norm(resid, axis=0).max() < 1e-10
        assert np.abs(u.conj() @ u.T - np.eye(n_bands)).max() < 1e-10
    # every orbit shares bit-identical energies, and each image really is
    # its representative moved by a metric-preserving element of the group
    group = fiber_symmetries(pot)
    assert len(group) == n_group
    rep, element = kgrid_orbits(grid, group)
    assert np.array_equal(bands.energies, bands.energies[:, rep])
    assert np.array_equal(bands.guard_energies, bands.guard_energies[rep])
    dual = grid.lattice.dual
    R = np.stack([np.linalg.solve(dual, M @ dual) for M, _ in group])
    assert np.abs(np.einsum("pi,pij->pj", k[rep], R[element]) - k).max() < 1e-12
    assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(grid.dim)).max() < 1e-12
    # +-k pairs share bit-identical energies; only a zone-edge point
    # alpha_j = -1/2 could lack a partner, and a cell-centered grid has none
    dist = np.linalg.norm(k[:, None, :] + k[None, :, :], axis=-1)
    p, q = np.nonzero(dist < 1e-12)
    assert np.array_equal(bands.energies[:, p], bands.energies[:, q])
    assert np.array_equal(bands.guard_energies[p], bands.guard_energies[q])
    n_unpaired = grid.n_points - np.unique(p).size
    edge = np.any(np.isclose(bz_coefficients(k, grid.lattice), -0.5), axis=-1)
    assert n_unpaired == edge.sum()


@pytest.mark.parametrize("pot, n, n_solved", [
    (potential_2d(12, 2), 15, 64),
    (potential_2d(12, 2), 21, 121),
    (S_BREAKING_2D, 15, 113),
    # V-hat keeps the mirror, the rectangular metric does not
    (potential_2d(12, 2, Lattice.from_basis([[1.0, 0.0], [0.0, 1.3]])), 15, 113),
], ids=["15x15", "21x21", "s-breaking-15x15", "rectangular-15x15"])
def test_solve_bands_diagonalizes_one_point_per_orbit(monkeypatch, pot, n, n_solved):
    calls = {"eigvalsh": [], "eigh": []}

    def spy(name):
        solver = getattr(np.linalg, name)

        def counting(a, *args, **kwargs):
            calls[name].append(a)
            return solver(a, *args, **kwargs)
        return counting

    for name in calls:
        monkeypatch.setattr(np.linalg, name, spy(name))
    bands = solve_bands(pot, make_kgrid(pot.lattice, n), 5, 3)
    # the full matrices go to eigvalsh, one per orbit representative, in
    # chunks of at most CHUNK_BYTES; eigh sees only 3 x 3 Rayleigh-Ritz blocks
    assert sum(len(a) for a in calls["eigvalsh"]) == n_solved
    assert all(a.shape[1:] == (121, 121) and a.nbytes <= fiber.CHUNK_BYTES
               for a in calls["eigvalsh"])
    assert sum(len(a) for a in calls["eigh"]) == n_solved
    assert all(a.shape[1:] == (3, 3) for a in calls["eigh"])
    assert bands.energies.shape == (3, n * n)


def fiber_stack(pot, cutoff, k):
    """V, and the fiber matrices at the momenta k (N, d) stacked."""
    V, kin = fiber_terms(pot, fiber_basis(pot, cutoff), np.asarray(k, dtype=float))
    ham = np.broadcast_to(V, kin.shape[:1] + V.shape).copy()
    diag = np.arange(V.shape[0])
    ham[:, diag, diag] += kin
    return V, ham


def batched_reference(pot, grid, cutoff):
    """The representatives, all their eigenvalues from one batched eigvalsh
    over the stacked fiber matrices, and their eigenvectors from eigh."""
    rep, _ = kgrid_orbits(grid, fiber_symmetries(pot))
    solved = np.flatnonzero(rep == np.arange(grid.n_points))
    _, ham = fiber_stack(pot, cutoff, grid.points[solved])
    return solved, np.linalg.eigvalsh(ham), np.linalg.eigh(ham)[1]


def projectors(vectors):
    """u u^H of (..., D, n) column vectors."""
    return vectors @ np.swapaxes(vectors.conj(), -1, -2)


@pytest.mark.parametrize("pot, grid, cutoff", [
    (potential_2d(12, 2), make_kgrid(LAT2, 15), 5),
    (NON_EVEN_2D, make_kgrid(LAT2, 9), 4),
    (CUBIC_3D, make_kgrid(LAT3, 4), 2),
], ids=["real-15x15", "complex-9x9", "cubic-4x4x4"])
def test_streamed_solve_is_bit_identical_to_one_batched_eigh(monkeypatch, pot, grid, cutoff):
    n_bands = 3
    solved, evals, evecs = batched_reference(pot, grid, cutoff)
    matrix = evecs[0].nbytes
    assert solved.size > 3 and solved.size % 3
    results = []
    # all in one chunk, one matrix per chunk, 3 (a ragged last chunk)
    for chunk in (solved.size * matrix, 1, 3 * matrix):
        monkeypatch.setattr(fiber, "CHUNK_BYTES", chunk)
        results.append(solve_bands(pot, grid, cutoff, n_bands))
    for bands in results:
        assert np.array_equal(bands.energies[:, solved], evals[:, :n_bands].T)
        assert np.array_equal(bands.guard_energies[solved], evals[:, n_bands])
        for name in ("energies", "guard_energies", "vectors"):
            assert np.array_equal(getattr(bands, name), getattr(results[0], name))
    # the stored vectors span eigh's lowest n_bands, or, where the window's
    # edge cuts a degenerate cluster (bands 1-3 of the cubic grid), lie in
    # the span of the bands up to the cluster's end
    for row, p in enumerate(solved):
        m = np.count_nonzero(evals[row] <= evals[row, n_bands - 1] + 1e-9)
        q, u = evecs[row, :, :m], results[0].vectors[:, p].T
        assert np.abs(u - q @ (q.conj().T @ u)).max() < 1e-10


FREE_1D = FourierPotential(LAT1, {})
FREE_2D = FourierPotential(LAT2, {})
# a (2, 0) coefficient: V reaches two slices along axis 0
REACH_2_2D = FourierPotential(LAT2, {(2, 0): 3.0, (-2, 0): 3.0, (1, 1): 1.5 - 0.5j,
                                     (-1, -1): 1.5 + 0.5j, (0, 1): 2.0, (0, -1): 2.0})
SEPARABLE_2D = potential_2d(12, 0)
CORNER = [np.pi, np.pi]


@pytest.mark.parametrize("pot, cutoff, k, n_bands", [
    (potential_2d(12, 2), 5, [[0.3, -1.1], [0.0, 0.0], [2.0, 2.0]], 3),
    (NON_EVEN_2D, 4, [[0.3, -1.1], [0.0, 0.0], [-2.5, 0.7]], 3),
    (mathieu_potential(1.0), 8, [[0.0], [0.4], [-np.pi + 0.1]], 3),
    (CUBIC_3D, 2, [[0.3, -1.1, 0.5], [0.0, 0.0, 0.0]], 4),
    (FREE_1D, 4, [[0.0], [0.7]], 3),
    (FREE_2D, 3, [[0.0, 0.0], [0.7, -0.2]], 5),
    (REACH_2_2D, 4, [[0.3, -1.1], [0.0, 0.0], [0.0, 2.1]], 3),
    # odd-in-x bands vanish on slice 0 when k_0 = 0 (see fiber._slabs), and
    # nearly so when a tiny w breaks the mirror
    (SEPARABLE_2D, 5, [[0.0, 0.0], [0.0, 1.3], [0.0, -2.9]], 3),
    (potential_2d(12, 1e-6), 5, [[0.0, 0.0], [0.0, 1.3], [0.0, -2.9]], 3),
    # the degenerate pair at the zone corner
    (SEPARABLE_2D, 5, [CORNER], 3),
    (potential_2d(1.0, 0.0), 3, [CORNER, [np.pi, 0.0]], 3),
], ids=["real-2d", "complex-2d", "mathieu-1d", "cubic-3d", "free-1d", "free-2d",
        "reach-2", "separable-k0-axis", "near-mirror-k0-axis", "separable-corner",
        "weak-separable-corner"])
def test_block_solve_matches_dense_eigh(pot, cutoff, k, n_bands):
    V, ham = fiber_stack(pot, cutoff, k)
    evals, evecs = np.linalg.eigh(ham)
    # the stored window's edge is not degenerate, so its projector is unique
    assert np.all(evals[:, n_bands] - evals[:, n_bands - 1] > 1e-3)
    w = np.linalg.eigvalsh(ham)
    basis = fiber_basis(pot, cutoff)
    u, residual = fiber._band_vectors(ham, V, fiber._slabs(fiber._reach(pot), basis), w,
                                      range(n_bands))
    assert u.dtype == ham.dtype and u.shape == ham.shape[:2] + (n_bands,)
    resid = np.linalg.norm(ham @ u - u * w[:, None, :n_bands], axis=1)
    assert resid.max() < 1e-10
    scale = np.abs(w[:, [0, -1]]).max(axis=1)
    assert np.allclose(residual, resid / scale[:, None], rtol=1e-6, atol=1e-18)
    assert np.abs(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(n_bands)).max() < 1e-12
    assert np.abs(projectors(u) - projectors(evecs[:, :, :n_bands])).max() < 1e-10


@pytest.mark.parametrize("p, cutoff, lows", [
    (1, 3, [-3, -2, -1, 1, 2, 3]),
    (2, 5, [-5, -4, -2, 1, 3, 5]),
    (3, 7, [-7, -6, -3, 1, 4, 7]),
    (2, 2, [-2, 1]),
])
def test_slabs_cover_the_box_with_slice_0_above_the_p_below_it(p, cutoff, lows):
    basis = PlaneWaveBasis.build(LAT2, cutoff)
    slabs = fiber._slabs(p, basis)
    n0 = basis.offsets[:, 0]
    assert [int(n0[sl.start]) for sl in slabs] == lows
    assert slabs[0].start == 0 and slabs[-1].stop == basis.size
    assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
    centre = next(sl for sl in slabs if n0[sl.start] <= 0 <= n0[sl.stop - 1])
    assert set(n0[centre]) == set(range(-min(p, cutoff), 1))
    # V couples only neighbouring slabs
    label = np.zeros(basis.size, dtype=int)
    for i, sl in enumerate(slabs):
        label[sl] = i
    far = np.abs(label[:, None] - label[None, :]) > 1
    assert np.all(np.abs(n0[:, None] - n0[None, :])[far] > p)


def test_solve_bands_refuses_vectors_that_miss_the_residual_bound(monkeypatch):
    # one sweep leaves residuals up to 7e-11 of ||H|| on this grid
    monkeypatch.setattr(fiber, "SWEEPS", 1)
    with pytest.raises(FiberError, match=r"band vectors at k = \(.*\) \(grid point \d+\) "
                                         r"miss the residual bound"):
        solve_bands(potential_2d(12, 2), make_kgrid(LAT2, 15), 5, 3)


# no band of these touches a neighbour on its grid, so each band's vectors
# are unique up to a phase
LOW_SYMMETRY_3D = FourierPotential(LAT3, {
    (1, 0, 0): 3.0, (-1, 0, 0): 3.0, (0, 1, 0): 2.0, (0, -1, 0): 2.0,
    (0, 0, 1): 1.2, (0, 0, -1): 1.2, (1, 1, 0): 0.8, (-1, -1, 0): 0.8,
    (0, 1, 1): 0.5, (0, -1, -1): 0.5})
VECTOR_BAND_CASES = [
    (mathieu_potential(1.0), make_kgrid(LAT1, 16), 6),
    (potential_2d(12, 2), make_kgrid(LAT2, 9), 4),
    (LOW_SYMMETRY_3D, make_kgrid(LAT3, 4), 2),
    (NON_EVEN_2D, make_kgrid(LAT2, 9), 4),
]
VECTOR_BAND_IDS = ["mathieu-1d", "cosine-2d", "low-symmetry-3d", "complex-2d"]


@pytest.mark.parametrize("pot, grid, cutoff", VECTOR_BAND_CASES, ids=VECTOR_BAND_IDS)
@pytest.mark.parametrize("vector_bands", [(0,), (1,), (2,), (0, 2)],
                         ids=["band-0", "band-1", "band-2", "bands-0-2"])
def test_vectors_of_listed_bands_match_the_all_band_solve(pot, grid, cutoff, vector_bands):
    n_bands = 3
    full = solve_bands(pot, grid, cutoff, n_bands)
    part = solve_bands(pot, grid, cutoff, n_bands, vector_bands)
    assert np.diff(np.vstack([full.energies, full.guard_energies]), axis=0).min() > 1e-3
    # the energies come from the same eigvalsh whatever vectors are asked for
    assert np.array_equal(part.energies, full.energies)
    assert np.array_equal(part.guard_energies, full.guard_energies)
    assert part.vector_bands == vector_bands
    assert part.vectors.shape == (len(vector_bands), grid.n_points, full.basis.size)
    for band in vector_bands:
        u = part.frame(band).reshape(grid.n_points, -1)
        u_all = full.vectors[band]
        assert np.abs(np.einsum("pc,pc->p", u.conj(), u_all)).min() >= 1 - 1e-12
        for p in range(grid.n_points):
            H = fiber_matrix(grid.points[p], pot, cutoff).matrix
            scale = np.abs(np.linalg.eigvalsh(H)[[0, -1]]).max()
            assert (np.linalg.norm(H @ u[p] - part.energies[band, p] * u[p])
                    <= fiber.RESIDUAL_TOL * scale)


def test_solve_bands_without_vectors_runs_no_inverse_iteration(monkeypatch):
    pot, grid = potential_2d(12, 2), make_kgrid(LAT2, 9)
    full = solve_bands(pot, grid, 4, 3)

    def no_vectors(*args):
        raise AssertionError("inverse iteration ran for a solve without vectors")
    monkeypatch.setattr(fiber, "_band_vectors", no_vectors)
    bands = solve_bands(pot, grid, 4, 3, ())
    assert np.array_equal(bands.energies, full.energies)
    assert np.array_equal(bands.guard_energies, full.guard_energies)
    assert bands.vector_bands == () and bands.vectors.shape == (0, grid.n_points, 81)
    with pytest.raises(FiberError, match=r"band 0 has no vectors: solved for \[\]"):
        bands.frame(0)


def test_frame_of_a_band_without_vectors_is_refused():
    bands = solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 8), 6, 3, (1,))
    assert bands.row(1) == 0 and bands.frame(1).shape == (8, 13)
    for band in (0, 2):
        with pytest.raises(FiberError, match=rf"band {band} has no vectors: solved for \[1\]"):
            bands.frame(band)


@pytest.mark.parametrize("vector_bands, message", [
    ((3,), r"vector_bands \[3\] outside \[0, 3\)"),
    ((-1,), r"vector_bands \[-1\] outside \[0, 3\)"),
    ((1, 1), r"vector_bands \[1, 1\] repeats a band"),
], ids=["above", "negative", "repeated"])
def test_solve_bands_refuses_bad_vector_bands(vector_bands, message):
    with pytest.raises(FiberError, match=message):
        solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 8), 6, 3, vector_bands)


def test_vector_bands_are_stored_ascending():
    bands = solve_bands(mathieu_potential(1.0), make_kgrid(LAT1, 8), 6, 3, (2, 0))
    assert bands.vector_bands == (0, 2) and bands.row(2) == 1


def test_solve_bands_holds_one_chunk_of_matrices_at_a_time():
    # configs/flow_2d.json's band solve: 121 matrices of 225 x 225, 47 MiB
    # when stacked at once
    pot = potential_2d(12, 2)
    grid = make_kgrid(LAT2, 21)
    tracemalloc.start()
    try:
        bands = solve_bands(pot, grid, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = bands.energies.nbytes + bands.guard_energies.nbytes + bands.vectors.nbytes
    assert peak < outputs + 3 * fiber.CHUNK_BYTES + 2**20


def test_solve_bands_refuses_a_grid_beyond_memory_before_allocating(monkeypatch):
    # the faked figure is above 2 chunks of matrices and their block factors
    # (9.3 MiB) and below them plus the 17 MiB of stored vectors, so the
    # estimate must count both; a solve that is let through stays small
    # enough to run
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"available memory": 2**24})
    grid = make_kgrid(LAT2, 41)
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError, match=r"cutoff 7 on grid \(41, 41\)"):
            solve_bands(potential_2d(12, 2), grid, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # 10^20 points overflow an int64 product of the shape
    with pytest.raises(DenseMemoryError):
        check_band_memory(potential_2d(12, 2), (10**10, 10**10), 7, 3)


@pytest.mark.parametrize("pot, grid, cutoff, n_bands", [
    (potential_2d(12, 2), make_kgrid(LAT2, 21), 7, 3),
    (CUBIC_3D, make_kgrid(LAT3, 6), 3, 4),
    (REACH_2_2D, make_kgrid(LAT2, 9), 4, 3),
    (potential_2d(1.0, 0.3), make_kgrid(LAT2, 7), 5, 121),
], ids=["2d-cutoff-7", "3d-cutoff-3", "complex-reach-2", "every-band"])
def test_band_memory_estimate_covers_the_traced_peak(monkeypatch, pot, grid, cutoff, n_bands):
    counted = []
    monkeypatch.setattr(fiber, "check_dense_memory",
                        lambda label, shape, nbytes: counted.append(nbytes))
    tracemalloc.start()
    try:
        solve_bands(pot, grid, cutoff, n_bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1 and peak <= counted[0]


def direct_bands(pot, grid, cutoff, n_bands, rng):
    """Per-point dense diagonalizations with seeded random vector phases."""
    evals, evecs = zip(*(np.linalg.eigh(fiber_matrix(kp, pot, cutoff).matrix)
                         for kp in grid.points))
    evals, evecs = np.array(evals), np.array(evecs)
    phases = np.exp(2j * np.pi * rng.random((n_bands, grid.n_points)))
    return BandStructure(
        kgrid=grid, basis=PlaneWaveBasis.build(pot.lattice, cutoff), potential=pot,
        energies=evals[:, :n_bands].T.copy(), guard_energies=evals[:, n_bands],
        vector_bands=tuple(range(n_bands)),
        vectors=np.transpose(evecs[:, :, :n_bands], (2, 0, 1)) * phases[..., None])


def test_band_data_from_reduced_solve_matches_direct_diagonalization():
    pot, grid = potential_2d(12, 2), make_kgrid(LAT2, 15)
    reduced = BandData.from_geometry(geometric_tensors(solve_bands(pot, grid, 5, 3), 0))
    direct = BandData.from_geometry(geometric_tensors(
        direct_bands(pot, grid, 5, 3, np.random.default_rng(3)), 0))
    for name in ("energy_samples", "connection_samples", "rw_samples",
                 "curvature_samples"):
        a, b = getattr(reduced, name), getattr(direct, name)
        assert np.abs(a - b).max() < 1e-9, name
    kq = np.random.default_rng(4).uniform(-4, 4, (50, 2))
    fa, fb = reduced.at(kq), direct.at(kq)
    for name in ("E", "A", "m", "om"):
        assert np.abs(getattr(fa, name) - getattr(fb, name)).max() < 1e-9, name


def test_tau_equivariance_zero_shift():
    pot = mathieu_potential(1.0)
    assert tau_equivariance_check(pot, 0.37, [0], 8) == 0.0


def test_tau_equivariance_free():
    V0 = FourierPotential(LAT1, {})
    assert tau_equivariance_check(V0, 0.81, [2], 8) < 1e-12


def test_tau_equivariance_mathieu():
    pot = mathieu_potential(1.0)
    assert tau_equivariance_check(pot, 0.37, [1], 8) < 1e-10


def test_tau_equivariance_margin_error():
    pot = mathieu_potential(1.0)
    with pytest.raises(FiberError):
        tau_equivariance_check(pot, 0.1, [9], 8)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_tau_equivariance_2d_property(n1, n2, k1, k2):
    pot = potential_2d(1.0, 0.3)
    dev = tau_equivariance_check(pot, [k1, k2], [n1, n2], 4)
    assert dev < 1e-10


def test_band_periodicity_on_grid():
    pot = mathieu_potential(1.0)
    grid = make_kgrid(LAT1, 32)
    bands = solve_bands(pot, grid, 8, 2)
    for p in (0, 5, 17):
        k = grid.points[p]
        kw = wrap_to_bz(k + 2 * np.pi, LAT1)
        ev = np.linalg.eigvalsh(fiber_matrix(kw, pot, 8).matrix)[0]
        assert abs(ev - bands.energies[0, p]) < 1e-10


def test_spectral_convergence_and_variational_monotonicity():
    pot = mathieu_potential(1.0)
    ks = [0.0, 0.9, 2.2]
    for k in ks:
        e_lo = np.linalg.eigvalsh(fiber_matrix(k, pot, 6).matrix)[:4]
        e_hi = np.linalg.eigvalsh(fiber_matrix(k, pot, 12).matrix)[:4]
        assert abs(e_lo[0] - e_hi[0]) < 1e-8
        # enlarging the basis never raises a level beyond solver noise
        assert np.all(e_hi - e_lo < 1e-11)


def test_potential_hermitian_symmetry_enforced():
    with pytest.raises(FiberError):
        FourierPotential(LAT1, {(1,): 1.0 + 0.0j})
    with pytest.raises(FiberError):
        FourierPotential(LAT1, {(1,): 1.0 + 0.5j, (-1,): 1.0 + 0.5j})


def test_shift_matrix_composition():
    basis = PlaneWaveBasis.build(LAT1, 4)
    S1 = shift_matrix(basis, [1])
    S2 = shift_matrix(basis, [-1])
    # inverse on the common sub-box
    P = S2 @ S1
    keep = np.abs(basis.offsets[:, 0] + 1) <= 4
    assert np.allclose(P[np.ix_(keep, keep)], np.eye(keep.sum()))


@pytest.mark.parametrize("c", [-2, -1, 1, 2])
@pytest.mark.parametrize("basis, cutoff", [([[1.3]], 3), ([[1.0, 0.0], [0.4, 1.1]], 2),
                                           (np.eye(3), 2)], ids=["1d", "2d", "3d"])
def test_translate_gather_matches_dense_shift_matrix(basis, cutoff, c):
    # the index gather of BandStructure.translate against the dense 0/1
    # matrix it replaced, rows that leave the box (zero fill) included
    lat = Lattice.from_basis(basis)
    plane_waves = PlaneWaveBasis.build(lat, cutoff)
    bands = BandStructure(kgrid=make_kgrid(lat, 1), basis=plane_waves,
                          potential=FourierPotential(lat, {}), energies=np.zeros((1, 1)),
                          vector_bands=(), vectors=np.zeros((0, 1, plane_waves.size)),
                          guard_energies=np.zeros(1))
    rng = np.random.default_rng(lat.dim)
    size = (3, 2, plane_waves.size)
    stack = rng.normal(size=size) + 1j * rng.normal(size=size)
    for axis in range(lat.dim):
        n_shift = np.zeros(lat.dim, dtype=int)
        n_shift[axis] = c
        dense = stack @ shift_matrix(plane_waves, n_shift).T
        moved = bands.translate(stack, axis, c)
        assert np.array_equal(moved, dense)
        # the coefficient slices pushed out of the box come back as zeros
        lost = np.abs(plane_waves.offsets[:, axis] - c) > cutoff
        assert lost.sum() == abs(c) * plane_waves.size // (2 * cutoff + 1)
        assert not moved[..., lost].any() and moved[..., ~lost].all()


def mask_loop_fiber_terms(potential, basis, kpoints):
    """fiber_terms before V was built by index: one (D, D, d) offset
    difference mask per coefficient."""
    coeffs = {n: complex(v) for n, v in potential.coefficients.items()}
    real = all(v.imag == 0.0 for v in coeffs.values())
    V = np.zeros((basis.size, basis.size), dtype=float if real else complex)
    diff = basis.offsets[:, None, :] - basis.offsets[None, :, :]
    for n, v in coeffs.items():
        V[np.all(diff == np.asarray(n, dtype=int), axis=-1)] = v.real if real else v
    g = basis.gvectors()
    kin = 0.5 * np.sum((np.asarray(kpoints, dtype=float)[:, None, :] + g) ** 2, axis=-1)
    return V, kin


def random_potential(lattice, order, complex_values, seed):
    """Hermitian coefficients at random n with |n_j| <= order, real or not."""
    rng = np.random.default_rng(seed)
    d, coeffs = lattice.dim, {}
    for n in rng.integers(-order, order + 1, size=(6, d)):
        v = rng.normal() + (1j * rng.normal() if complex_values else 0.0)
        n = tuple(int(c) for c in n)
        coeffs[n] = v.real + 0j if not any(n) else v
        coeffs[tuple(-c for c in n)] = np.conj(coeffs[n])
    return FourierPotential(lattice, coeffs)


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("basis, cutoff", [([[1.3]], 4), ([[1.0, 0.0], [0.4, 1.1]], 3),
                                           (np.eye(3), 2)], ids=["1d", "2d", "3d"])
def test_fiber_terms_by_index_match_mask_loop(basis, cutoff, complex_values):
    lat = Lattice.from_basis(basis)
    pot = random_potential(lat, 2, complex_values, seed=lat.dim)
    plane_waves = PlaneWaveBasis.build(lat, cutoff)
    k = np.random.default_rng(1).uniform(-2, 2, (7, lat.dim))
    V, kin = fiber_terms(pot, plane_waves, k)
    V0, kin0 = mask_loop_fiber_terms(pot, plane_waves, k)
    assert V.dtype == V0.dtype == (complex if complex_values else float)
    assert np.array_equal(V, V0) and np.array_equal(kin, kin0)
    assert np.count_nonzero(V) > plane_waves.size
