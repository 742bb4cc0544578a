"""Quantum propagation harnesses: discrete Zak transform, band projection,
reference propagation of quantized effective Hamiltonians, and the
Egorov-type and semiclassical-limit error measurements.

Propagators are built by exact eigendecomposition of dense Hermitian
matrices (no splitting error), and all time conventions are macroscopic:
states evolve under exp(-i (t/eps) H).

A complex H on a position grid often has an anti-unitary symmetry: a signed
permutation S of the grid axes with S conj(H) S^T = H.  For a constant B in
the symmetric gauge, with a band and phi that are symmetric under the
exchange of two axes, the swap of those axes is one: it reverses the
orientation of their plane and so the sign of B, and so does complex
conjugation.  With no field and a symbol even in the momentum, the
identity is one (H is real).  When S squares to the identity, H is real
symmetric in the pair basis e_a (S a = a), (e_a + e_Sa)/sqrt 2 and
i (e_a - e_Sa)/sqrt 2, so Propagator.of finds S at run time and runs one
real eigh instead of a complex one, about a quarter of the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .effective import BandData, EffectiveHamiltonian
from .fiber import BandStructure, FourierPotential, fiber_on_cell_grid, solve_bands
from .fields import EMFieldConfig
from .flow import _rk4_run
from .geometry import fix_gauge
from .lattice import Lattice, make_kgrid, signed_permutations
from .weyl import (GridSymbol, PhaseSpaceGrid, QuantizedOperator, check_dense_memory,
                   operator_norm, quantize, resample_periodic, sample_broadcast)

__all__ = [
    "RealSpaceBox",
    "WaveFunction",
    "ZakField",
    "zak_transform",
    "zak_inverse",
    "zak_equivariance_defect",
    "Propagator",
    "grid_involutions",
    "realspace_hamiltonian",
    "band_project",
    "band_packet",
    "propagate_reference",
    "heisenberg_evolve",
    "flowed_symbol",
    "egorov_error",
    "semiclassical_limit_check",
]


class QuantumError(RuntimeError):
    pass


@dataclass(frozen=True)
class RealSpaceBox:
    """Periodic box of n_cells unit cells with m sample points per cell (1D).

    Grid points x[(c, j)] = c - n_cells//2 + j/m, C-ordered over (c, j).
    """

    lattice: Lattice
    n_cells: int
    m: int

    @property
    def n_points(self) -> int:
        return self.n_cells * self.m

    def cell_offsets(self) -> np.ndarray:
        return np.arange(self.n_cells) - self.n_cells // 2

    def cell_coords(self) -> np.ndarray:
        return np.arange(self.m) / self.m

    def points(self) -> np.ndarray:
        return (self.cell_offsets()[:, None] + self.cell_coords()[None, :]).ravel()

    def fiber_grid(self):
        """Zero-anchored k-grid matching the box's Zak fibers."""
        return make_kgrid(self.lattice, self.n_cells, centered=False)

    def fiber_momenta_unwrapped(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_cells) / self.n_cells

    def length(self) -> float:
        return float(self.n_cells)


@dataclass
class WaveFunction:
    box: RealSpaceBox
    samples: np.ndarray  # flat, length n_points

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.box, self.samples / self.norm())

    def position_expectation(self) -> float:
        x = self.box.points()
        w = np.abs(self.samples) ** 2
        return float(np.sum(x * w) / np.sum(w))

    def position_variance(self) -> float:
        x = self.box.points()
        w = np.abs(self.samples) ** 2
        w = w / w.sum()
        mu = np.sum(x * w)
        return float(np.sum((x - mu) ** 2 * w))

    def edge_mass(self, fraction: float = 0.1) -> float:
        """Probability mass within the outer fraction of the box."""
        n = self.box.n_points
        lo = int(n * fraction / 2)
        w = np.abs(self.samples) ** 2
        return float((w[:lo].sum() + w[n - lo:].sum()) / w.sum())


@dataclass
class ZakField:
    box: RealSpaceBox
    samples: np.ndarray  # (n_cells, m)

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))


def zak_transform(psi: WaveFunction) -> ZakField:
    """u(k_q, y_j) = N^{-1/2} sum_c e^{-i k_q (y_j + c)} psi(c + y_j)."""
    box = psi.box
    arr = psi.samples.reshape(box.n_cells, box.m)
    gam = box.cell_offsets()
    kq = box.fiber_momenta_unwrapped()
    # sum over cells with e^{-i k_q gamma_c}
    ph_cell = np.exp(-1j * np.outer(kq, gam))
    u = ph_cell @ arr / np.sqrt(box.n_cells)
    y = box.cell_coords()
    u = u * np.exp(-1j * np.outer(kq, y))
    return ZakField(box=box, samples=u)


def zak_inverse(zf: ZakField) -> WaveFunction:
    box = zf.box
    kq = box.fiber_momenta_unwrapped()
    y = box.cell_coords()
    u = zf.samples * np.exp(+1j * np.outer(kq, y))
    gam = box.cell_offsets()
    ph_cell = np.exp(+1j * np.outer(gam, kq))
    arr = ph_cell @ u / np.sqrt(box.n_cells)
    return WaveFunction(box=box, samples=arr.ravel())


def zak_equivariance_defect(psi: WaveFunction, n_fibers: int = 4) -> float:
    """Deviation of the dual-shift identity u(k - 2 pi, y) = e^{2 pi i y} u(k, y)
    evaluated directly from the transform definition."""
    box = psi.box
    zf = zak_transform(psi)
    arr = psi.samples.reshape(box.n_cells, box.m)
    gam = box.cell_offsets()
    y = box.cell_coords()
    worst = 0.0
    for q in range(0, box.n_cells, max(1, box.n_cells // n_fibers)):
        k = 2 * np.pi * q / box.n_cells - 2 * np.pi
        u_shift = (np.exp(-1j * k * gam) @ arr) / np.sqrt(box.n_cells) * np.exp(-1j * k * y)
        target = np.exp(2j * np.pi * y) * zf.samples[q]
        worst = max(worst, float(np.abs(u_shift - target).max()))
    return worst


def _fiber_vectors_on_cells(bands: BandStructure, box: RealSpaceBox, band: int,
                            gauge: bool = True) -> np.ndarray:
    """Cell-grid samples of the band eigenvectors at the box's unwrapped fiber
    momenta (smooth in the fiber index when gauge=True)."""
    if bands.kgrid.shape != (box.n_cells,):
        raise QuantumError("band structure grid does not match the box fibers")
    if gauge:
        frame = fix_gauge(bands, band)
        coeffs = frame.vectors
        bands = replace(bands, vectors=bands.vectors.copy())
        bands.vectors[band] = coeffs
    samples = fiber_on_cell_grid(bands, band, box.m)  # (n_cells, m), wrapped reps
    k_store = bands.kgrid.points.ravel()
    k_unwrapped = box.fiber_momenta_unwrapped()
    shift = k_unwrapped - k_store  # integer multiples of 2 pi
    y = box.cell_coords()
    # u(k + g) = e^{-i g y} u(k) on samples
    return samples * np.exp(-1j * np.outer(shift, y))


def band_project(zf: ZakField, bands: BandStructure, band: int) -> ZakField:
    """Fiberwise rank-one projection onto the band eigenvectors."""
    v = _fiber_vectors_on_cells(bands, zf.box, band, gauge=False)
    amp = np.einsum("qj,qj->q", np.conj(v), zf.samples)
    return ZakField(box=zf.box, samples=v * amp[:, None])


def band_packet(bands: BandStructure, box: RealSpaceBox, band: int,
                k0: float, x0: float, sigma_k: float,
                smooth_gauge: bool = True) -> WaveFunction:
    """Normalized coherent-state-like packet in one band, centered at
    crystal momentum k0 and position x0 (lattice units).

    smooth_gauge=False skips the parallel-transport pass (needed for bands
    that touch at the zone edge, e.g. the free lowest band)."""
    v = _fiber_vectors_on_cells(bands, box, band, gauge=smooth_gauge)
    kq = box.fiber_momenta_unwrapped()
    dk = np.angle(np.exp(1j * (kq - k0)))
    env = np.exp(-dk ** 2 / (4 * sigma_k ** 2))
    u = env[:, None] * np.exp(-1j * kq * x0)[:, None] * v
    psi = zak_inverse(ZakField(box=box, samples=u))
    return psi.normalized()


# -- dense real-space Hamiltonian and propagation --------------------------


def realspace_hamiltonian(box: RealSpaceBox, potential: FourierPotential,
                          field: EMFieldConfig) -> np.ndarray:
    """Dense H = -(1/2) d^2/dx^2 + V(x) + phi(eps x) on the periodic box
    (1D, zero magnetic field)."""
    if field.lam != 0.0:
        raise QuantumError("real-space propagator implemented for B = 0 (1D)")
    n = box.n_points
    # H is the only n x n array: the circulant is copied from a strided view
    check_dense_memory("realspace_hamiltonian", (n,), 8 * n * n)
    h = 1.0 / box.m
    xi = 2 * np.pi * np.fft.fftfreq(n, d=h)
    kin_spec = 0.5 * xi ** 2
    col = np.fft.ifft(kin_spec).real  # circulant generator
    # H[i, j] = col[(i - j) % n] = rev[n - 1 + j - i] with rev = col[::-1] twice
    rev = np.tile(col[::-1], 2)[:-1]
    H = np.lib.stride_tricks.sliding_window_view(rev, n)[::-1].copy()
    x = box.points()
    H.flat[::n + 1] += potential.evaluate(x) + field.phi(field.eps * x[:, None])
    return H


GRID_SYMMETRY_TOL = 1e-13  # S conj(H) S^T = H to this, relative to max|H|
_DEFECT_ROWS = 64          # rows of H per block of the symmetry test
_EIGH_COPIES = 5           # peak memory of Propagator.of in copies of H


def grid_involutions(ns) -> list:
    """The signed permutations S (d, d) of the axes of the centered grid of
    shape ns that map the grid onto itself and square to the identity, as
    (S, p) pairs with p the flat index map: S takes point a to point p[a].
    The identity comes first."""
    ns = np.asarray(ns)
    half = (ns[:, None] - 1) // 2
    coords = np.indices(tuple(ns)).reshape(len(ns), -1) - half
    d = len(ns)
    out = []
    for S in signed_permutations(d):
        image = S @ coords + half
        on_grid = (image >= 0).all() and (image < ns[:, None]).all()
        if on_grid and (S @ S == np.eye(d)).all():
            out.append((S, np.ravel_multi_index(tuple(image), tuple(ns))))
    return out


def _antiunitary_defect(H: np.ndarray, p: np.ndarray, limit: float) -> float:
    """max |conj(H[p][:, p]) - H|, read in row blocks and left early once it
    passes limit."""
    worst = 0.0
    for r in range(0, len(p), _DEFECT_ROWS):
        rows = slice(r, r + _DEFECT_ROWS)
        block = H[p[rows, None], p]
        worst = max(worst, float(np.abs(np.conj(block, out=block) - H[rows]).max()))
        if worst > limit:
            break
    return worst


def _grid_symmetry(H: np.ndarray, ns):
    """(S, p, defect) for the first grid involution whose anti-unitary action
    fixes H to GRID_SYMMETRY_TOL, or (None, None, defect) when none does.
    defect is relative to max|H|; on the fallback it is the least one seen,
    and since each candidate's scan stops at its first row block past the
    tolerance, it is a lower bound on H's distance from every candidate."""
    blocks = range(0, H.shape[0], _DEFECT_ROWS)
    scale = max(float(np.abs(H[r:r + _DEFECT_ROWS]).max()) for r in blocks) or 1.0
    least = np.inf
    for S, p in grid_involutions(ns):
        defect = _antiunitary_defect(H, p, GRID_SYMMETRY_TOL * scale) / scale
        if defect <= GRID_SYMMETRY_TOL:
            return S, p, defect
        least = min(least, defect)
    return None, None, least


def _pair_basis_eigh(H: np.ndarray, p: np.ndarray):
    """(w, U) of a Hermitian H with conj(H[p][:, p]) = H, p an involution.

    In the pair basis, the fixed points F of p, then (e_a + e_b)/sqrt 2 and
    then i (e_a - e_b)/sqrt 2 over the pairs a < b = p[a], H is the real
    symmetric R below, built from blocks of H.real and H.imag with no complex
    N x N temporary.  One real eigh of R gives w and W, and U is W carried
    back to the grid basis in O(N^2).  With no pairs (p the identity) U = W
    is real.
    """
    n = len(p)
    idx = np.arange(n)
    F, A = idx[p == idx], idx[p > idx]
    B = p[A]
    f, m = len(F), len(A)
    v, w = slice(f, f + m), slice(f + m, n)
    re, im = H.real, H.imag
    R = np.empty((n, n))
    R[:f, :f] = re[np.ix_(F, F)]
    R[v, :f] = np.sqrt(2) * re[np.ix_(A, F)]
    R[w, :f] = np.sqrt(2) * im[np.ix_(A, F)]
    re_aa, re_ab = re[np.ix_(A, A)], re[np.ix_(A, B)]
    R[v, v] = re_aa + re_ab
    R[w, w] = re_aa - re_ab
    del re_aa, re_ab
    R[w, v] = im[np.ix_(A, A)] + im[np.ix_(A, B)]
    R[:f, f:] = R[f:, :f].T
    R[v, w] = R[w, v].T
    evals, W = np.linalg.eigh(R)
    del R
    if m == 0:
        return evals, W
    U = np.empty((n, n), dtype=complex)
    U.real[F] = W[:f]
    U.imag[F] = 0.0
    cos_part = W[v] * np.sqrt(0.5)
    sin_part = W[w] * np.sqrt(0.5)
    U.real[A] = cos_part
    U.real[B] = cos_part
    U.imag[A] = sin_part
    U.imag[B] = np.negative(sin_part, out=sin_part)
    return evals, U


@dataclass
class Propagator:
    """Spectral propagator psi(t) = U e^{-i (t/eps) w} U^dagger psi(0).

    symmetry : the signed permutation S (d, d) of the grid axes whose
        anti-unitary action S conj(H) S^T = H the eigensolve used (the
        identity for a real H), or None when it ran the complex eigh.
    symmetry_defect : max |S conj(H) S^T - H| / max|H| for that S (0.0 for a
        real H); on the complex fallback, the least defect seen among the
        candidates, a lower bound (see _grid_symmetry).  None when the
        propagator was not built by Propagator.of.
    """

    w: np.ndarray
    U: np.ndarray
    eps: float
    symmetry: np.ndarray | None = None
    symmetry_defect: float | None = None

    @classmethod
    def of(cls, H: np.ndarray, eps: float, ns=None) -> "Propagator":
        """Eigendecompose the Hermitian H, whose rows index the points of a
        centered position grid of shape ns (C order; None reads them as one
        axis of N points).

        A real H goes to a real eigh.  A complex H is tested against every
        grid involution S (grid_involutions: the identity, axis reflections
        and swaps of equal-length axes) combined with complex conjugation.
        The first S that fixes H to GRID_SYMMETRY_TOL makes H real symmetric
        in its pair basis, and one real eigh of that matrix gives the
        spectrum (see _pair_basis_eigh).  With none, H goes to the complex
        eigh as it is.
        """
        n = H.shape[0]
        ns = tuple(ns) if ns is not None else (n,)
        if np.prod(ns) != n:
            raise QuantumError(f"grid shape {ns} does not index the {n} rows of H")
        # eigh holds H's copy, the eigenvectors and LAPACK's work arrays: at
        # N = 441 the peak RSS rose by 4.5 copies of a complex H on the
        # complex path, 3.5 on the pair-basis path, and 4.3 copies of a
        # real H on the real path
        check_dense_memory("Propagator.of", ns, _EIGH_COPIES * H.dtype.itemsize * n * n)
        if not np.iscomplexobj(H):
            w, U = np.linalg.eigh(H)
            return cls(w=w, U=U, eps=eps, symmetry=np.eye(len(ns), dtype=int),
                       symmetry_defect=0.0)
        S, p, defect = _grid_symmetry(H, ns)
        w, U = np.linalg.eigh(H) if S is None else _pair_basis_eigh(H, p)
        return cls(w=w, U=U, eps=eps, symmetry=S, symmetry_defect=defect)

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """U e^{-i (t/eps) w} U^dagger psi for psi of shape (N,) or (N, m).

        A real U acts on the (N, 2m) real view of psi, so U is neither
        copied nor cast to complex."""
        psi = np.asarray(psi)
        ph = np.exp(-1j * (t / self.eps) * self.w).reshape((-1,) + (1,) * (psi.ndim - 1))
        if np.iscomplexobj(self.U):
            return self.U @ (ph * (self.U.conj().T @ psi))
        n = psi.shape[0]
        re = np.ascontiguousarray(psi, dtype=complex).view(np.float64).reshape(n, -1)
        c = (self.U.T @ re).view(complex).reshape(psi.shape)
        c *= ph
        return (self.U @ c.view(np.float64).reshape(n, -1)).view(complex).reshape(psi.shape)

    def conjugate(self, M: np.ndarray, t: float, idx=None) -> np.ndarray:
        """Heisenberg evolution e^{+i(t/eps)H} M e^{-i(t/eps)H}, or only its
        (idx, idx) block when idx (flat indices) is given.

        The block is L M L^dagger with L = U[idx] e^{i(t/eps)w} U^dagger, the
        idx rows of e^{+i(t/eps)H}: for m = len(idx) rows of an N x N
        problem it costs ~2 m N^2 instead of ~4 N^3 operations.
        """
        ph = np.exp(1j * (t / self.eps) * self.w)
        Uh = self.U.conj().T
        if idx is None:
            inner = Uh @ M @ self.U
            return self.U @ (ph[:, None] * inner * np.conj(ph)[None, :]) @ Uh
        L = (self.U[idx] * ph) @ Uh
        return (L @ M) @ L.conj().T


def propagate_reference(h_op: QuantizedOperator, field: EMFieldConfig,
                        psi: np.ndarray, t: float,
                        herm_tol: float = 1e-10) -> np.ndarray:
    """Evolve psi under the quantized effective Hamiltonian for macroscopic
    time t (spectral, unitary)."""
    defect = h_op.hermiticity_defect()
    if defect > herm_tol:
        raise QuantumError(f"quantized Hamiltonian not Hermitian ({defect:.2e})")
    M = 0.5 * (h_op.matrix + h_op.matrix.conj().T)
    return Propagator.of(M, field.eps, h_op.grid.ns).apply(psi, t)


def heisenberg_evolve(h_op: QuantizedOperator, f_op: QuantizedOperator,
                      field: EMFieldConfig, t: float, idx=None) -> np.ndarray:
    """e^{+i(t/eps)Op(h)} Op(f) e^{-i(t/eps)Op(h)}, or its (idx, idx) block
    (see Propagator.conjugate)."""
    M = 0.5 * (h_op.matrix + h_op.matrix.conj().T)
    return Propagator.of(M, field.eps, h_op.grid.ns).conjugate(f_op.matrix, t, idx)


# -- Egorov-type error ------------------------------------------------------


def flowed_symbol(func, grid: PhaseSpaceGrid, model, field: EMFieldConfig,
                  t: float, dt: float, flow_shape=None) -> GridSymbol:
    """Samples of f o Phi_t (magnetic flow of the model Hamiltonian) on the
    phase-space grid.

    func(k, r) takes (..., d) arrays.  With flow_shape set, trajectories are
    integrated on a coarser phase-space grid and resampled trigonometrically
    (valid for smooth periodic data).
    """
    d = grid.dim
    if flow_shape is None:
        shape = grid.ns + grid.ns
        X, K = (np.broadcast_to(a, shape + (d,)) for a in grid.phase_points())
    else:
        shape = tuple(flow_shape) + tuple(flow_shape)
        axes = []
        for l in range(d):
            Xf = grid.X_axis(l)
            n_c = flow_shape[l]
            # same box, coarser uniform sampling (periodic): endpoints align
            axes.append(Xf[0] + (Xf[1] - Xf[0]) * grid.ns[l] / n_c * np.arange(n_c))
        for l in range(d):
            xif = grid.xi_axis(l)
            n_c = flow_shape[l]
            axes.append(xif[0] + (xif[1] - xif[0]) * grid.ns[l] / n_c * np.arange(n_c))
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack(mesh[:d], axis=-1)
        K = np.stack(mesh[d:], axis=-1)
    kf = K.reshape(-1, d)
    xf = X.reshape(-1, d)
    k_t, r_t = _rk4_run(kf, xf, model, field, None, t, dt, record=False)
    vals = np.asarray(func(k_t, r_t), dtype=complex).reshape(shape)
    if flow_shape is not None:
        vals = resample_periodic(vals, grid.ns + grid.ns)
    return GridSymbol(grid=grid, samples=vals)


def egorov_error(f_func, heff: EffectiveHamiltonian, grid: PhaseSpaceGrid,
                 field: EMFieldConfig, t: float, dt: float = 0.02,
                 flow_shape=None, window: float = 0.5) -> float:
    """Interior-windowed operator norm of
    e^{+i(t/eps)Op(h)} Op(f) e^{-i(t/eps)Op(h)} - Op(f o Phi_t).

    h and f are sampled once on the broadcast axis pair of
    grid.phase_points() (see weyl.sample_broadcast), so f_func(k, r) must
    broadcast k against r.

    The integrator budget is verified by a step-halving probe on a trajectory
    subsample before the norm is computed.
    """
    d = grid.dim
    h_op = quantize(sample_broadcast(heff.value, grid), field, assume_bandlimited=True)
    f_op = quantize(sample_broadcast(f_func, grid), field, assume_bandlimited=True)
    # integrator sanity on a small probe batch
    rng = np.random.default_rng(0)
    kp = rng.uniform(-np.pi, np.pi, (16, d))
    X = [grid.X_axis(l) for l in range(d)]
    xp = rng.uniform([x[0] for x in X], [x[-1] for x in X], (16, d))
    k1, r1 = _rk4_run(kp, xp, heff, field, None, t, dt, record=False)
    k2, r2 = _rk4_run(kp, xp, heff, field, None, t, dt / 2, record=False)
    probe = max(np.abs(k1 - k2).max(), np.abs(r1 - r2).max())
    if probe > 1e-3 * field.eps ** 2:
        raise QuantumError(
            f"integrator budget violation: halving probe {probe:.2e} vs eps^2 scale")
    iw = grid.interior_indices(window)
    evolved = heisenberg_evolve(h_op, f_op, field, t, iw)
    flowed = flowed_symbol(f_func, grid, heff, field, t, dt, flow_shape=flow_shape)
    target = quantize(flowed, field, assume_bandlimited=True)
    return operator_norm(evolved - target.matrix[np.ix_(iw, iw)])


# -- semiclassical limit at the level of expectation values ----------------


def _translation_expectation(psi: WaveFunction, cells: int = 1) -> complex:
    """<psi| T_cells |psi> with T the lattice translation (B = 0)."""
    arr = psi.samples
    shifted = np.roll(arr, -cells * psi.box.m)
    return complex(np.vdot(psi.samples, shifted))


def _flow_oracle(bands: BandStructure, band_index: int, fld: EMFieldConfig,
                 k_batch: np.ndarray, x_batch: np.ndarray, t: float,
                 dt_flow: float) -> np.ndarray:
    """sin k(t) along the corrected flow from each (k, eps x) of the batch."""
    from .effective import SemiclassicalHamiltonian
    geom_band = _band_data_1d(bands, band_index)
    hsc = SemiclassicalHamiltonian(geom_band, fld)
    kt, _ = _rk4_run(k_batch[:, None], x_batch[:, None], hsc, fld, geom_band,
                     t, dt_flow, record=False)
    return np.sin(kt[:, 0])


def semiclassical_limit_check(potential: FourierPotential, field_template: EMFieldConfig,
                              band_index: int, eps_list, t: float,
                              macro_box: float = 4.0, m_per_cell: int = 14,
                              cutoff: int = 6, sigma_scale: float = 1.0,
                              k0: float = 0.6, dt_flow: float = 5e-3,
                              n_hermite: int = 8, n_workers: int = 1) -> dict:
    """Bloch-oscillation expectation test against the corrected flow (1D).

    For each eps an n_cells ~ macro_box/eps periodic box is built, a band
    packet is prepared, propagated with the dense real-space Hamiltonian, and
    <Op(sin k)> is compared with sin(k(t)) along the corrected flow, both for
    the measured packet center (point oracle) and averaged over the packet's
    phase-space Gaussian (quadrature oracle).  Returns errors and log-log
    slopes; the point-oracle slope is the conservative figure.

    Every box's bands, packet and measured center are built first.  With
    n_workers > 1 the flow oracles (band data and one RK4 run per box) then
    go to one background thread, which runs them while the main thread does
    the dense real-space eigendecompositions (numpy's eigh releases the
    GIL); with n_workers = 1 they run inline and no thread is started.  The
    results are the same either way.  The dense boxes are propagated one at
    a time, so only one dense H and its eigenbasis are alive at once.
    """
    from numpy.polynomial.hermite_e import hermegauss
    lat = potential.lattice
    if lat.dim != 1:
        raise QuantumError("expectation test implemented in one dimension")
    nodes, weights = hermegauss(n_hermite)
    weights = weights / np.sqrt(2 * np.pi)
    KK, XX = np.meshgrid(nodes, nodes, indexing="ij")
    WW = np.outer(weights, weights).ravel()
    pool = None
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor   # kept out of start-up
        pool = ThreadPoolExecutor(max_workers=1)
    try:
        boxes = []
        for eps in eps_list:
            fld = replace(field_template, eps=float(eps))
            n_cells = int(round(macro_box / eps))
            if n_cells % 2 == 0:
                n_cells += 1
            box = RealSpaceBox(lattice=lat, n_cells=n_cells, m=m_per_cell)
            bands = solve_bands(potential, box.fiber_grid(), cutoff, 3)
            sigma_k = sigma_scale * np.sqrt(eps)
            psi0 = band_packet(bands, box, band_index, k0=k0, x0=0.0, sigma_k=sigma_k)
            if psi0.edge_mass() > 1e-8:
                raise QuantumError("packet touches the box boundary; enlarge the box")
            # measured initial phase-space center and spreads
            T1 = _translation_expectation(psi0)
            k_bar = float(np.angle(T1))
            sig_k_meas = float(np.sqrt(max(-2.0 * np.log(abs(T1)), 1e-30)))
            x_bar = psi0.position_expectation()
            sig_x = np.sqrt(psi0.position_variance())
            # corrected-flow oracle from the measured center, batched together
            # with the Gauss-Hermite quadrature nodes of the Wigner Gaussian
            k_batch = np.concatenate([[k_bar], (k_bar + sig_k_meas * KK).ravel()])
            x_batch = np.concatenate([[eps * x_bar],
                                      eps * (x_bar + sig_x * XX).ravel()])
            args = (bands, band_index, fld, k_batch, x_batch, t, dt_flow)
            oracle = pool.submit(_flow_oracle, *args) if pool else _flow_oracle(*args)
            boxes.append((eps, fld, box, psi0, oracle, k_bar, x_bar))
        errs_point = []
        errs_avg = []
        results = []
        for eps, fld, box, psi0, oracle, k_bar, x_bar in boxes:
            # neither H nor its eigenbasis outlives this step, so the next,
            # larger box is not allocated beside them
            prop = Propagator.of(realspace_hamiltonian(box, potential, fld), eps)
            psi_t = WaveFunction(box, prop.apply(psi0.samples, t))
            del prop
            if psi_t.edge_mass() > 1e-6:
                raise QuantumError("evolved packet reaches the box boundary")
            # <Op(sin k)> = Im <T_1> exactly for B = 0
            obs = float(np.imag(_translation_expectation(psi_t)))
            vals = oracle.result() if pool else oracle
            val_point = float(vals[0])
            acc = float(np.sum(WW * vals[1:]))
            errs_point.append(abs(obs - val_point))
            errs_avg.append(abs(obs - acc))
            results.append({"eps": eps, "n_cells": box.n_cells, "obs": obs,
                            "oracle_point": val_point, "oracle_avg": acc,
                            "k_bar": k_bar, "x_bar": x_bar})
    finally:
        # every oracle has been collected unless something raised; then the
        # queued ones are dropped and the running one is waited for
        if pool:
            pool.shutdown(cancel_futures=True)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    ep = np.asarray(errs_point)
    ea = np.asarray(errs_avg)
    slope_point = float(np.polyfit(np.log(eps_arr), np.log(ep), 1)[0])
    slope_avg = float(np.polyfit(np.log(eps_arr), np.log(ea), 1)[0])
    return {"eps": eps_arr, "error_point": ep, "error_avg": ea,
            "slope_point": slope_point, "slope_avg": slope_avg,
            "details": results}


def _band_data_1d(bands: BandStructure, band: int) -> BandData:
    """Band data on a centered grid rebuilt from the same potential (the
    zero-anchored fiber grid is not suitable for geometry stencils)."""
    from .geometry import geometric_tensors
    lat = bands.kgrid.lattice
    n = max(64, bands.kgrid.shape[0])
    grid = make_kgrid(lat, n)
    bb = solve_bands(bands.potential, grid, bands.basis.cutoff, max(2, band + 2))
    geom = geometric_tensors(bb, band)
    return BandData.from_geometry(geom)
