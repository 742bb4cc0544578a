"""Quantum propagation harnesses: inverse discrete Zak transform, band
projection and band packets, Heisenberg evolution of quantized effective
Hamiltonians, and the Egorov-type (on a flow grid picked by measurement) and
semiclassical-limit error measurements.

Egorov propagators are exact eigendecompositions of dense Hermitian
matrices.  semiclassical_limit_check steps its boxes by a fourth-order
Bloch-decomposition split-step (split_step), whose splitting error a
step-halving probe bounds.  All time conventions are macroscopic: states
evolve under exp(-i (t/eps) H).

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

from . import PeierlsError
from .effective import BandData, EffectiveHamiltonian, SemiclassicalHamiltonian
from .fiber import BandStructure, FourierPotential, fiber_on_cell_grid, solve_bands
from .fields import EMFieldConfig
from .flow import _rk4_run, loglog_slope
from .geometry import fix_gauge, geometric_tensors
from .lattice import Lattice, make_kgrid, signed_permutations
from .weyl import (_QUANTIZE_BYTES, GridSymbol, PhaseSpaceGrid, QuantizedOperator,
                   _table_bytes, _tail_fraction, check_dense_memory, operator_norm,
                   quantize, resample_periodic, sample_symbol)

__all__ = [
    "RealSpaceBox",
    "odd_points",
    "WaveFunction",
    "ZakField",
    "zak_inverse",
    "Propagator",
    "grid_involutions",
    "realspace_hamiltonian",
    "band_project",
    "band_packet",
    "heisenberg_evolve",
    "flowed_symbol",
    "check_egorov_memory",
    "egorov_error",
    "fiber_blocks",
    "split_step",
    "check_limit_memory",
    "semiclassical_limit_check",
]


class QuantumError(PeierlsError, RuntimeError):
    pass


@dataclass(frozen=True)
class RealSpaceBox:
    """Periodic box of n_cells unit cells with m sample points per cell (1D).

    Grid points x[(c, j)] = c - n_cells//2 + j/m, C-ordered over (c, j).
    n_cells is odd (QuantumError otherwise), so that the box's Zak fiber
    momenta are the points of the cell-centered k-grid (fiber_grid).  Band
    vectors of plane-wave cutoff c sample exactly for m > 2c; the boxes of
    semiclassical_limit_check take the fewest such odd m that also holds V
    (_limit_box), so their n_points is odd.
    """

    lattice: Lattice
    n_cells: int
    m: int

    def __post_init__(self):
        if self.n_cells % 2 == 0:
            raise QuantumError(f"a periodic box needs an odd number of cells, "
                               f"got {self.n_cells}")

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
        """The box's Zak fiber momenta as a k-grid: the cell-centered grid of
        n_cells points, 2 pi q / n_cells for |q| <= (n_cells - 1)/2."""
        return make_kgrid(self.lattice, self.n_cells)


def odd_points(length: float, eps: float) -> int:
    """The odd point count of a grid over a macroscopic length at eps:
    round(length / eps), plus one when that is even (length / eps = 21.6
    gives 23, 22.4 gives 23, 20.6 gives 21)."""
    return int(round(length / eps)) | 1


EDGE_FRACTION = 0.1     # outer share of the box that WaveFunction.edge_mass reads


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

    def edge_mass(self) -> float:
        """Probability mass within the outer EDGE_FRACTION of the box."""
        n = self.box.n_points
        lo = int(n * EDGE_FRACTION / 2)
        w = np.abs(self.samples) ** 2
        return float((w[:lo].sum() + w[n - lo:].sum()) / w.sum())


@dataclass
class ZakField:
    box: RealSpaceBox
    samples: np.ndarray  # (n_cells, m)


def zak_inverse(zf: ZakField) -> WaveFunction:
    """psi(c + y_j) = N^{-1/2} sum_q e^{i k_q (y_j + c)} u(k_q, y_j), with
    k_q the points of box.fiber_grid(): the inverse of the unitary Zak
    transform (tests/oracles.py zak_transform).  Both c and q are centered
    (n_cells is odd), so the sum over q is an inverse FFT between shifts."""
    box = zf.box
    kq = box.fiber_grid().points[:, 0]
    u = zf.samples * np.exp(+1j * np.outer(kq, box.cell_coords()))
    arr = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(u, axes=0), axis=0), axes=0)
    return WaveFunction(box=box, samples=arr.ravel() * np.sqrt(box.n_cells))


def _fiber_vectors_on_cells(bands: BandStructure, box: RealSpaceBox, band: int,
                            gauge: bool = True) -> np.ndarray:
    """Cell-grid samples (n_cells, m) of the band eigenvectors at the box's
    fiber momenta, the points of its fiber_grid() (smooth in the fiber index
    when gauge=True)."""
    if bands.kgrid.shape != (box.n_cells,):
        raise QuantumError("band structure grid does not match the box fibers")
    if gauge:
        coeffs = fix_gauge(bands, band).vectors
    else:
        coeffs = bands.vectors[bands.row(band)]
    return fiber_on_cell_grid(bands, coeffs, box.m)


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
    kq = box.fiber_grid().points[:, 0]
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
    """Spectral propagator psi(t) = U e^{-i (t/eps) w} U^dagger psi(0), or a
    stack of them: w (..., N) and U (..., N, N) for a stack of blocks.

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
        eigh as it is.  A stack of blocks (..., m, m) goes to one batched
        eigh, with no symmetry search; w and U are then stacks too.
        """
        if H.ndim > 2:
            check_dense_memory("Propagator.of", H.shape[:-1], _EIGH_COPIES * H.nbytes)
            w, U = np.linalg.eigh(H)
            return cls(w=w, U=U, eps=eps)
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

        Both are L M L^dagger, L = U[idx] e^{i(t/eps)w} U^dagger the idx rows
        of e^{+i(t/eps)H} (all rows for idx None): ~2 m N^2 operations for
        m = len(idx) rows of an N x N problem, ~3 N^3 for all N.
        """
        ph = np.exp(-1j * (t / self.eps) * self.w)
        # conj(L) = conj(U[idx]) e^{-i(t/eps)w} U^T needs no copy of U^dagger,
        # and L^dagger = conj(L)^T is a view
        L_conj = ((self.U if idx is None else self.U[idx]).conj() * ph) @ self.U.T
        return (L_conj.conj() @ M) @ L_conj.T


def _hermitian_part(h_op: QuantizedOperator) -> np.ndarray:
    """(Op(h) + Op(h)^dagger) / 2, with one N x N temporary."""
    M = h_op.matrix + h_op.matrix.conj().T
    M *= 0.5
    return M


def heisenberg_evolve(h_op: QuantizedOperator, f_op: QuantizedOperator,
                      field: EMFieldConfig, t: float, idx=None) -> np.ndarray:
    """e^{+i(t/eps)Op(h)} Op(f) e^{-i(t/eps)Op(h)}, or its (idx, idx) block
    (see Propagator.conjugate)."""
    return Propagator.of(_hermitian_part(h_op), field.eps,
                         h_op.grid.ns).conjugate(f_op.matrix, t, idx)


# -- Egorov-type error ------------------------------------------------------


# Peak bytes of flowed_symbol per trajectory and dimension, and per N^2
# sample of the resample, from tracemalloc at N = 129, 441 and 343 in 1D, 2D
# and 3D (constant field, band spline): 240, 568 and 1016 per trajectory, 53.
_FLOW_BYTES, _RESAMPLE_BYTES = 384, 64
FLOW_TAIL_TOL = 1e-8    # largest spectral tail fraction of an accepted flow grid


def _flow_bytes(grid: PhaseSpaceGrid, flow_shape) -> int:
    """flowed_symbol's estimated peak bytes on grid for one flow grid."""
    M = int(np.prod(flow_shape))
    return _FLOW_BYTES * grid.dim * M * M + _RESAMPLE_BYTES * grid.n_points ** 2


def _flow_values(func, grid: PhaseSpaceGrid, model, field: EMFieldConfig,
                 t: float, dt: float, j: np.ndarray) -> np.ndarray:
    """func at Phi_t of the points at fractional grid indices j (P, X then k)."""
    d, ns, h = grid.dim, np.array(grid.ns), np.array(grid.h)
    k_t, r_t = _rk4_run(2 * np.pi * j[:, d:] / (ns * h), grid.eps * (j[:, :d] * h),
                        model, field, None, t, dt, record=False)
    return np.asarray(func(k_t, r_t), dtype=complex)


def flowed_symbol(func, grid: PhaseSpaceGrid, model, field: EMFieldConfig,
                  t: float, dt: float, flow_shape=None) -> GridSymbol:
    """Samples of f o Phi_t (magnetic flow of the model Hamiltonian) on the
    phase-space grid.

    func(k, r) takes (..., d) arrays.  Trajectories start on a flow grid of
    the same box, which checks its memory first.  flow_shape None climbs from
    5 points per axis by the smallest odd m >= m 2^(1/d), capped at each n,
    to the first flow grid whose samples' spectral tail fraction is at most
    FLOW_TAIL_TOL and whose trigonometric resample matches f o Phi_t at 64
    probe points to that energy fraction (aliasing leaves no tail), or to
    the grid itself, not resampled.  An explicit flow_shape is resampled.
    """
    d, ns2, m = grid.dim, grid.ns + grid.ns, 5
    while True:
        ms = tuple(min(m, n) for n in grid.ns) if flow_shape is None else tuple(flow_shape)
        check_dense_memory("flowed_symbol", grid.ns, _flow_bytes(grid, ms))
        # fractional fine-grid indices, the grid's own at m = n
        axes = [np.arange(m) * (n / m) - (n - 1) // 2 for n, m in zip(ns2, ms + ms)]
        j = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * d)
        vals = _flow_values(func, grid, model, field, t, dt, j).reshape(ms + ms)
        if flow_shape is not None:
            return GridSymbol(grid=grid, samples=resample_periodic(vals, ns2))
        if ms == grid.ns:
            return GridSymbol(grid=grid, samples=vals)
        if _tail_fraction(np.fft.fftn(vals)) <= FLOW_TAIL_TOL:
            full = resample_periodic(vals, ns2)
            idx = np.random.default_rng(0).integers(0, ns2, (64, 2 * d))
            miss = full[tuple(idx.T)] - _flow_values(func, grid, model, field, t, dt,
                                                     idx - (np.array(ns2) - 1) // 2)
            if np.mean(abs(miss) ** 2) <= FLOW_TAIL_TOL * np.mean(abs(vals) ** 2):
                return GridSymbol(grid=grid, samples=full)
        m = int(np.ceil(m * 2 ** (1 / d))) | 1


def check_egorov_memory(grid: PhaseSpaceGrid, field: EMFieldConfig) -> None:
    """Refuse (DenseMemoryError) an egorov_error whose dense steps would not
    fit: Op(h), Op(f) and the interior block of Op(f o Phi_t) beside the
    largest of a quantize (its table build included) and the Heisenberg
    eigensolve of the Hermitian part of Op(h).  Its flow runs before them,
    and flowed_symbol checks each flow grid before it integrates it."""
    N, W = grid.n_points, len(grid.interior_indices())
    step = max(_QUANTIZE_BYTES, _table_bytes(grid.dim, field), 16 * (1 + _EIGH_COPIES))
    check_dense_memory("egorov_error", grid.ns, (2 * 16 + step) * N * N + 16 * W * W)


def egorov_error(f_func, heff: EffectiveHamiltonian, grid: PhaseSpaceGrid,
                 field: EMFieldConfig, t: float, dt: float = 0.02,
                 flow_shape=None) -> float:
    """Interior-windowed operator norm of
    e^{+i(t/eps)Op(h)} Op(f) e^{-i(t/eps)Op(h)} - Op(f o Phi_t).

    h and f are sampled once on the broadcast axis pair of
    grid.phase_points() (see weyl.sample_symbol), so f_func(k, r) must
    broadcast k against r.

    The dense steps' memory is checked first (check_egorov_memory), and the
    integrator budget by a step-halving probe on a trajectory subsample.
    f o Phi_t is sampled (flowed_symbol, flow_shape as there) before Op(h)
    and Op(f) exist.
    """
    d = grid.dim
    check_egorov_memory(grid, field)
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
    iw = grid.interior_indices()
    target = quantize(flowed_symbol(f_func, grid, heff, field, t, dt, flow_shape=flow_shape),
                      field, assume_bandlimited=True).matrix[np.ix_(iw, iw)]
    h_op = quantize(sample_symbol(heff.value, grid), field, assume_bandlimited=True)
    f_op = quantize(sample_symbol(f_func, grid), field, assume_bandlimited=True)
    evolved = heisenberg_evolve(h_op, f_op, field, t, iw)
    return operator_norm(evolved - target)


# -- semiclassical limit at the level of expectation values ----------------


def _translation_expectation(psi: WaveFunction) -> complex:
    """<psi| T_1 |psi> with T_1 the translation by one cell (B = 0)."""
    arr = psi.samples
    shifted = np.roll(arr, -psi.box.m)
    return complex(np.vdot(psi.samples, shifted))


# semiclassical_limit_check: bands solved per box (band_index is below this),
# the RK4 step of the flow oracle, the packet's momentum width over sqrt(eps)
# and its central momentum.  A box samples each cell at the fewest points
# that hold both its band vectors and V exactly (_limit_box)
LIMIT_BANDS = 3
LIMIT_DT_FLOW = 5e-3
LIMIT_SIGMA_SCALE = 1.0
LIMIT_K0 = 0.6

# the values of numpy.polynomial.hermite_e.hermegauss(8), written out: the
# 8 Gauss-Hermite nodes per axis of the quadrature oracle, with weights for
# the weight exp(-x^2 / 2); importing numpy.polynomial for them cost every
# propagate run its load
_GH_NODES = np.array([-4.1445471861258945, -2.8024858612875416, -1.636519042435108,
                      -0.5390798113513751, 0.5390798113513751, 1.636519042435108,
                      2.8024858612875416, 4.1445471861258945])
_GH_WEIGHTS = np.array([0.00028228278602621435, 0.02415191518706137, 0.2938768674600929,
                        0.9350030718823198, 0.9350030718823198, 0.2938768674600929,
                        0.02415191518706137, 0.00028228278602621435])


def _limit_box(potential: FourierPotential, cutoff: int, eps: float,
               macro_box: float) -> RealSpaceBox:
    """The periodic box of semiclassical_limit_check at eps: odd_points(
    macro_box, eps) cells of m = 2 max(cutoff, reach) + 1 points, reach the
    largest |n| in V's support (potential.max_order).  That is the fewest
    points per cell on which the cutoff-c band vectors (fiber_on_cell_grid
    needs m > 2 cutoff) and V both sample without aliasing; Mathieu at
    cutoff 6 gives 13.  Both counts are odd, so the box's n_points is odd."""
    m = 2 * max(cutoff, potential.max_order) + 1
    return RealSpaceBox(lattice=potential.lattice, n_cells=odd_points(macro_box, eps), m=m)


# -- Bloch-decomposition split-step ------------------------------------------

# semiclassical_limit_check's micro time step, and the bound on its probe
# |Im<T_1>_tau - Im<T_1>_2tau|: 12x the largest probe of the shipped configs
# and test fixtures, 4.1e-10 at eps 0.1 and t = 1 (2.7e-11 at eps 0.02)
SPLIT_TAU, SPLIT_PROBE_TOL = 0.05, 5e-9
# its peak bytes per N m (N points, m per cell): blocks, eigenvectors and
# half-step unitaries, beside the previous box's; tracemalloc read 78-103 over
# eps lists down to 0.035 and 0.01 at cutoffs 3-7 (N = 805 to 6015)
_SPLIT_BYTES = 128


def fiber_blocks(box: RealSpaceBox, potential: FourierPotential) -> np.ndarray:
    """The blocks (n_cells, m, m) of the box's H_per = -(1/2) d^2/dx^2 + V(x)
    on the FFT of its cell axis.  The box momenta xi = 2 pi n / n_cells of
    realspace_hamiltonian with n = q mod n_cells land on fiber q, so block q
    is E_q^dagger diag(xi^2 / 2) E_q + diag V(y_j), E_q[G, j] =
    m^{-1/2} e^{-i xi_qG y_j} over those m momenta."""
    m = box.m
    xi = (2 * np.pi * np.fft.fftfreq(box.n_points, d=1.0 / m)).reshape(m, -1).T
    y = box.cell_coords()
    E = np.exp(-1j * xi[..., None] * y) / np.sqrt(m)
    H = np.conj(E.transpose(0, 2, 1)) @ (0.5 * xi[..., None] ** 2 * E)
    H[:, range(m), range(m)] += potential.evaluate(y)
    return H


def split_step(blocks: Propagator, box: RealSpaceBox, field: EMFieldConfig,
               psi: np.ndarray, t: float, tau: float) -> np.ndarray:
    """e^{-i (t/eps) H} psi (flat) for H = H_per + W, W = phi(eps x), in
    n = ceil((t/eps) / tau) steps of tau = (t/eps) / n of Chin's fourth-order
    factorization (Phys. Lett. A 226, 344 (1997)), e^{-i tau W/6}
    e^{-i tau H_per/2} e^{-2i tau W~/3} e^{-i tau H_per/2} e^{-i tau W/6} with
    W~ = W - tau^2 |W'|^2 / 48, W' = eps field.grad_phi(eps x), since
    [W, [H_per, W]] = |W'|^2 exactly.  The H_per
    half-steps are exact: a cell-axis FFT, the fiber unitaries of blocks
    (Propagator.of of fiber_blocks) and the inverse FFT, the Bloch-
    decomposition split-step of Huang, Jin, Markowich and Sparber (SIAM J.
    Sci. Comput. 29, 515 (2007))."""
    if field.lam != 0.0:
        raise QuantumError("split-step propagator implemented for B = 0 (1D)")
    # the guard keeps a quotient like 400.00000000000006 at 400 steps
    steps = max(1, int(np.ceil(t / field.eps / tau - 1e-9)))
    tau = t / field.eps / steps
    half = (blocks.U * np.exp(-0.5j * tau * blocks.w)[:, None, :]) @ np.conj(
        blocks.U.transpose(0, 2, 1))
    x = field.eps * box.points()[:, None]
    W = field.phi(x).reshape(box.n_cells, box.m)
    W_mid = W - (tau * field.eps * field.grad_phi(x)[:, 0].reshape(W.shape)) ** 2 / 48
    edge, inner, mid = (np.exp(-1j * c * tau * w) for c, w in
                        ((1 / 6, W), (1 / 3, W), (2 / 3, W_mid)))
    psi = psi.reshape(W.shape) * edge
    for step in range(steps):
        for after in (mid, edge if step == steps - 1 else inner):
            psi = np.fft.ifft((half @ np.fft.fft(psi, axis=0)[..., None])[..., 0], axis=0)
            psi *= after
    return psi.ravel()


def check_limit_memory(potential: FourierPotential, cutoff: int, eps_list,
                       macro_box: float) -> None:
    """Refuse (DenseMemoryError) a semiclassical_limit_check whose largest
    box, the _limit_box of the potential and cutoff at the smallest eps,
    would not fit its split-step (_SPLIT_BYTES)."""
    box = _limit_box(potential, cutoff, min(eps_list), macro_box)
    check_dense_memory("semiclassical_limit_check", (box.n_points,),
                       _SPLIT_BYTES * box.n_points * box.m)


def semiclassical_limit_check(potential: FourierPotential, field_template: EMFieldConfig,
                              band_index: int, eps_list, t: float,
                              macro_box: float = 4.0, cutoff: int = 6) -> dict:
    """Bloch-oscillation expectation test against the corrected flow (1D).

    For each eps an n_cells ~ macro_box/eps periodic box is built, with
    m = 2 max(cutoff, reach) + 1 points per cell (_limit_box: the fewest that
    hold the band vectors and V exactly, 13 for Mathieu at cutoff 6), and a
    band packet is prepared and propagated by split_step at SPLIT_TAU.
    <Op(sin k)> is compared with sin(k(t)) along the corrected flow, both for
    the measured packet center (point oracle) and averaged over the packet's
    phase-space Gaussian (quadrature oracle).  Returns errors and log-log
    slopes; the point-oracle slope is the conservative figure.

    The packet is also propagated at 2 SPLIT_TAU; a probe |Im<T_1>_tau -
    Im<T_1>_2tau| past SPLIT_PROBE_TOL is refused (QuantumError).  The scheme
    is fourth order, so probe / 15 estimates the splitting error; each eps's
    details carry its probe.
    """
    lat = potential.lattice
    if lat.dim != 1:
        raise QuantumError("expectation test implemented in one dimension")
    if not 0 <= band_index < LIMIT_BANDS:
        raise QuantumError(f"band_index {band_index} outside [0, {LIMIT_BANDS})")
    check_limit_memory(potential, cutoff, eps_list, macro_box)
    weights = _GH_WEIGHTS / np.sqrt(2 * np.pi)
    KK, XX = np.meshgrid(_GH_NODES, _GH_NODES, indexing="ij")
    WW = np.outer(weights, weights).ravel()
    errs_point, errs_avg, results = [], [], []
    for eps in eps_list:
        fld = replace(field_template, eps=float(eps))
        box = _limit_box(potential, cutoff, eps, macro_box)
        bands = solve_bands(potential, box.fiber_grid(), cutoff, LIMIT_BANDS, (band_index,))
        sigma_k = LIMIT_SIGMA_SCALE * np.sqrt(eps)
        psi0 = band_packet(bands, box, band_index, k0=LIMIT_K0, x0=0.0, sigma_k=sigma_k)
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
        geom_band = _band_data_1d(bands, band_index)
        kt, _ = _rk4_run(k_batch[:, None], x_batch[:, None],
                         SemiclassicalHamiltonian(geom_band, fld), fld, geom_band,
                         t, LIMIT_DT_FLOW, record=False)
        vals = np.sin(kt[:, 0])
        blocks = Propagator.of(fiber_blocks(box, potential), eps)
        psi_t, psi_2t = (WaveFunction(box, split_step(blocks, box, fld, psi0.samples, t, tau))
                         for tau in (SPLIT_TAU, 2 * SPLIT_TAU))
        if psi_t.edge_mass() > 1e-6:
            raise QuantumError("evolved packet reaches the box boundary")
        # <Op(sin k)> = Im <T_1> exactly for B = 0
        obs = float(np.imag(_translation_expectation(psi_t)))
        probe = abs(obs - float(np.imag(_translation_expectation(psi_2t))))
        if probe > SPLIT_PROBE_TOL:
            raise QuantumError(f"split-step probe {probe:.2e} at eps {eps} passes "
                               f"{SPLIT_PROBE_TOL:.0e}")
        val_point = float(vals[0])
        acc = float(np.sum(WW * vals[1:]))
        errs_point.append(abs(obs - val_point))
        errs_avg.append(abs(obs - acc))
        results.append({"eps": eps, "n_cells": box.n_cells, "obs": obs,
                        "oracle_point": val_point, "oracle_avg": acc,
                        "k_bar": k_bar, "x_bar": x_bar, "split_probe": probe})
    eps_arr = np.asarray(list(eps_list), dtype=float)
    ep, ea = np.asarray(errs_point), np.asarray(errs_avg)
    return {"eps": eps_arr, "error_point": ep, "error_avg": ea,
            "slope_point": loglog_slope(eps_arr, ep), "slope_avg": loglog_slope(eps_arr, ea),
            "details": results}


def _band_data_1d(bands: BandStructure, band: int) -> BandData:
    """Band data of one band, re-solved from the same potential on a grid of
    at least 64 points: the box's fiber grid can be too coarse for the
    spline of the flow oracle."""
    lat = bands.kgrid.lattice
    n = max(64, bands.kgrid.shape[0])
    grid = make_kgrid(lat, n)
    bb = solve_bands(bands.potential, grid, bands.basis.cutoff, max(2, band + 2), (band,))
    geom = geometric_tensors(bb, band)
    return BandData.from_geometry(geom)
