"""Plane-wave discretization of the periodic fiber Hamiltonian and band solving.

The fiber operator at crystal momentum k acts on cell-periodic functions as
(1/2)(-i d/dy + k)^2 + V(y).  In the plane-wave basis e^{i g.y} indexed by
dual-lattice vectors g inside a coefficient box |n_j| <= cutoff, the matrix is

    H(k)[g, g'] = (1/2)|k + g|^2 delta_{gg'} + Vhat(g - g'),

which makes dual-lattice equivariance an exact index shift and keeps the free
case exact.  Fourier coefficients must decay; rough potentials that are merely
integrable on the cell are outside the supported class.

The magnetic field enters the effective dynamics only through the Peierls
substitution, never the fiber, so the fiber family keeps the symmetries of
the lattice and of V.  Let M be an integer matrix acting on coefficient rows,
n -> n M, that preserves the dual metric G = dual dual^T (M G M^T = G) and
fixes Vhat, either plainly, Vhat(n M) = Vhat(n), or up to complex
conjugation, Vhat(n M) = conj(Vhat(n)).  Then, with P_M : e_n -> e_{n M},

    H(alpha M) = P_M H(alpha) P_M^T    or    P_M conj(H(alpha)) P_M^T,

in zone coefficients alpha, so E(alpha M) = E(alpha) and the vectors are
P_M u or P_M conj(u).  Only signed permutations map the box |n_j| <= cutoff
onto itself, so fiber_symmetries searches those 2 / 8 / 48 candidates
(d = 1 / 2 / 3).  Time reversal is the element (-I, conj): V is real, so
Vhat(-g) = conj(Vhat(g)) always holds.  solve_bands diagonalizes one point
of each orbit of the grid and maps the result onto the others.  When every
Vhat(g) is real (V even, as in all presets) H(k) is real symmetric and is
assembled and diagonalized in real arithmetic.

The representatives are solved in chunks of at most CHUNK_BYTES of
matrices: each chunk is assembled and cut down to the stored window
(n_bands + 1 eigenvalues, the vectors of the bands asked for) before the
next one is built, so the matrices a solve holds at once do not grow with
the grid.  LAPACK gives only the eigenvalues (one batched eigvalsh); the
stored vectors come from inverse iteration on a block LU factorization of
H - lambda, which is cheap because H is block tridiagonal: V couples
coefficient slice n_0 only to the slices within p = max(1, max |n_0| of V's
support) of it, so slabs of p slices along axis 0 leave only the
neighbouring slabs coupled.  Slice 0 shares its slab with the p slices
below it.  A band odd under the mirror n_0 -> -n_0 vanishes on slice 0, so
the slices below it alone have its eigenvalue too, and a slab edge there
would make a factor in the middle of the elimination singular.
check_band_memory refuses a solve whose chunk working set, block factors
and stored vectors would not fit, before anything is allocated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import PeierlsError
from .lattice import KGrid, Lattice, signed_permutations
from .weyl import check_dense_memory

__all__ = [
    "FourierPotential",
    "PlaneWaveBasis",
    "BandStructure",
    "fiber_basis",
    "fiber_terms",
    "fiber_symmetries",
    "kgrid_orbits",
    "solve_bands",
    "check_band_memory",
    "check_gap",
    "mathieu_potential",
    "potential_2d",
]

DEGENERACY_TOL = 1e-9
SYMMETRY_TOL = 1e-12    # Hermitian partners and Vhat under a symmetry agree to this
# Bytes of fiber matrices solve_bands assembles and diagonalizes at once (one
# matrix when a single one is larger).  Against 4 MiB, 2 MiB cut the flow-2d
# benchmark's peak RSS further (-17% against -13%) but raised egorov-2d's by
# 1.1 MB: freeing a smaller chunk leaves glibc's dynamic mmap threshold below
# the 3.1 MB matrices of its N = 441 Egorov stage.
CHUNK_BYTES = 4 * 2**20
# chunks of matrices check_band_memory counts beside the block factors: one
# is the reused buffer of assembled matrices (eigvalsh keeps no vectors), and
# one covers the temporaries beside it, the image vectors among them;
# tracemalloc put a solve's peak, less its outputs and factors, at 1.3-1.8
# chunks (2-D at cutoffs 5 and 7, 3-D at cutoff 3)
_CHUNK_COPIES = 2
# The stored vectors' inverse iteration (_band_vectors).  Each eigenvalue
# lambda is shifted up by SHIFT * ||H||_2, so that the diagonal H of the free
# potential never meets an exactly singular block.  On 60 random and
# symmetric 2-D potentials (cutoffs 3-6, 13 k-points each, 1, 3 and 5
# bands) the worst residual over ||H|| was 3.3e-14 at 1e-14, against 7.4e-13,
# 1.4e-13, 2.4e-12 and 1.6e-10 at 1e-15, 1e-13, 1e-12 and 1e-10: below
# 1e-14 eigvalsh's own error rivals the shift, above it the sweeps converge
# more slowly.  At 1e-14 the same sweep gave 4.2e-15 in 1-D and 2.0e-13 in
# 3-D (cutoffs 2-3).
SHIFT = 1e-14
# sweeps of (H - lambda - delta)^-1 from the fixed starts: on flow-2d's 64
# matrices one sweep left residuals of 6.9e-11 of ||H||, two 1.9e-15 (and
# three no less); on the 2-D sweep above one sweep left 1.1e-8
SWEEPS = 2
# a returned vector u of eigenvalue lambda has |H u - lambda u| at most
# RESIDUAL_TOL * ||H||_2, 5 times the worst of the sweeps above
RESIDUAL_TOL = 1e-12


class FiberError(PeierlsError, ValueError):
    pass


@dataclass(frozen=True)
class FourierPotential:
    """Real periodic potential given by its Fourier coefficients.

    coefficients maps integer dual-basis tuples n to complex amplitudes
    Vhat(g) with g = sum_j n_j e*_j.  Hermitian symmetry
    Vhat(-g) = conj(Vhat(g)) is enforced at construction.
    """

    lattice: Lattice
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        for n, v in self.coefficients.items():
            if len(n) != self.lattice.dim:
                raise FiberError(f"coefficient {n} needs {self.lattice.dim} indices")
            nm = tuple(-int(c) for c in n)
            if nm not in self.coefficients:
                raise FiberError(f"missing Hermitian partner for coefficient {n}")
            if abs(np.conj(self.coefficients[nm]) - v) > SYMMETRY_TOL:
                raise FiberError(f"coefficient {n} breaks Hermitian symmetry")

    @property
    def even(self) -> bool:
        """Every Vhat(g) is real (V is even): the fiber matrices are real."""
        return not any(complex(v).imag for v in self.coefficients.values())

    @property
    def max_order(self) -> int:
        if not self.coefficients:
            return 0
        return max(max(abs(int(c)) for c in n) for n in self.coefficients)

    def vhat(self, n: tuple) -> complex:
        return self.coefficients.get(tuple(int(c) for c in n), 0.0 + 0.0j)

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Sample V on real-space points y with last axis = d."""
        y = np.asarray(y, dtype=float)
        if self.lattice.dim == 1 and (y.ndim == 0 or y.shape[-1] != 1):
            y = y[..., None]
        out = np.zeros(y.shape[:-1], dtype=complex)
        for n, v in self.coefficients.items():
            g = self.lattice.dual_vector(n)
            out = out + v * np.exp(1j * (y @ g))
        return out.real


def mathieu_potential(v: float = 1.0, lattice: Lattice | None = None) -> FourierPotential:
    """1D cosine potential V(y) = 2 v cos(2 pi y) on the unit lattice."""
    lat = lattice if lattice is not None else Lattice.cubic(1)
    return FourierPotential(lat, {(1,): v + 0.0j, (-1,): v + 0.0j})


def potential_2d(v: float = 1.0, w: float = 0.0, lattice: Lattice | None = None) -> FourierPotential:
    """2D cosine potential, optionally non-separable.

    V(y) = 2v [cos(g1.y) + cos(g2.y)] + 2w cos((g1+g2).y).  A nonzero w breaks
    separability, which is what makes the mixed geometric tensors nonzero.
    """
    lat = lattice if lattice is not None else Lattice.cubic(2)
    coeffs = {
        (1, 0): v + 0.0j, (-1, 0): v + 0.0j,
        (0, 1): v + 0.0j, (0, -1): v + 0.0j,
    }
    if w != 0.0:
        coeffs[(1, 1)] = w + 0.0j
        coeffs[(-1, -1)] = w + 0.0j
    return FourierPotential(lat, coeffs)


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Integer coefficient box |n_j| <= cutoff, C-ordered ascending."""

    lattice: Lattice
    cutoff: int
    offsets: np.ndarray  # (D, d) integer coefficients

    @classmethod
    def build(cls, lattice: Lattice, cutoff: int) -> "PlaneWaveBasis":
        if cutoff < 1:
            raise FiberError("cutoff must be >= 1")
        rng = np.arange(-cutoff, cutoff + 1)
        mesh = np.meshgrid(*([rng] * lattice.dim), indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=-1)
        return cls(lattice=lattice, cutoff=cutoff, offsets=offsets)

    @property
    def size(self) -> int:
        return self.offsets.shape[0]

    def gvectors(self) -> np.ndarray:
        return self.offsets @ self.lattice.dual

    def index_of(self, n: np.ndarray) -> np.ndarray:
        """Flat index of integer coefficient vectors n (must lie in the box)."""
        n = np.asarray(n, dtype=int)
        w = 2 * self.cutoff + 1
        idx = np.zeros(n.shape[:-1], dtype=int)
        for ax in range(self.lattice.dim):
            idx = idx * w + (n[..., ax] + self.cutoff)
        return idx

    def take(self, vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Index gather: out[..., j] = vectors[..., index_of(rows[j])] for the
        integer coefficient rows (D, d), zero where a row leaves the box."""
        inside = np.all(np.abs(rows) <= self.cutoff, axis=-1)
        out = vectors[..., self.index_of(np.where(inside[:, None], rows, 0))]
        if not inside.all():
            out[..., ~inside] = 0
        return out


def fiber_basis(potential: FourierPotential, cutoff: int,
                n_bands: int = 1) -> PlaneWaveBasis:
    """The plane-wave basis of a band solve, refused (FiberError) when it
    cannot hold the potential's support or n_bands eigenvalues."""
    basis = PlaneWaveBasis.build(potential.lattice, cutoff)
    if potential.max_order > cutoff:
        raise FiberError(f"cutoff {cutoff} cannot contain potential support "
                         f"{potential.max_order}")
    if n_bands < 1:
        raise FiberError(f"n_bands must be >= 1, got {n_bands}")
    if n_bands > basis.size:
        raise FiberError(f"n_bands {n_bands} exceeds matrix size {basis.size}")
    return basis


def fiber_terms(potential: FourierPotential, basis: PlaneWaveBasis,
                kpoints) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of H(k) = V + diag(kin(k)) at a batch of momenta.

    Returns the potential matrix V (D, D), float64 when every Vhat(g) is real
    and complex128 otherwise, and the kinetic diagonals
    kin (N, D) = (1/2)|k + g|^2 at the momenta kpoints (N, d).
    """
    if potential.max_order > basis.cutoff:
        raise FiberError(
            f"cutoff {basis.cutoff} cannot contain potential support {potential.max_order}")
    n = np.array(list(potential.coefficients), dtype=int).reshape(-1, basis.lattice.dim)
    v = np.array([complex(c) for c in potential.coefficients.values()], dtype=complex)
    real = potential.even
    V = np.zeros((basis.size, basis.size), dtype=float if real else complex)
    # V[i, j] = Vhat(n) where offsets[i] - offsets[j] = n: for each n, row i
    # meets column index_of(offsets[i] - n) when that lies in the box
    cols = basis.offsets - n[:, None]                       # (K, D, d)
    which, rows = np.nonzero(np.all(np.abs(cols) <= basis.cutoff, axis=-1))
    V[rows, basis.index_of(cols[which, rows])] = v.real[which] if real else v[which]
    g = basis.gvectors()
    kin = 0.5 * np.sum((np.asarray(kpoints, dtype=float)[:, None, :] + g) ** 2, axis=-1)
    return V, kin


@dataclass(frozen=True)
class BandStructure:
    """Eigenvalues/vectors of the fiber family over a k-grid.

    energies : (n_bands, N) ascending per k-point.
    vector_bands : the ascending bands whose vectors were solved.
    vectors : (len(vector_bands), N, D) plane-wave coefficients, row i
        holding band vector_bands[i] (row(band) finds it), orthonormal per k.
    guard_energies : (N,) first eigenvalue above the stored window (+inf if
        the window exhausts the matrix), used by gap checks.

    The coefficient layout stays in this module: geometry reads a family only
    through kgrid, energies, guard_energies, n_bands, frame, translate and
    shifted_hamiltonian, so any family offering those runs through it.
    """

    kgrid: KGrid
    basis: PlaneWaveBasis
    potential: FourierPotential
    energies: np.ndarray
    vector_bands: tuple
    vectors: np.ndarray
    guard_energies: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.energies.shape[0]

    def row(self, band: int) -> int:
        """The row of vectors holding this band's vectors; FiberError when
        they were not solved."""
        if band not in self.vector_bands:
            raise FiberError(f"band {band} has no vectors: solved for "
                             f"{list(self.vector_bands)}")
        return self.vector_bands.index(band)

    def frame(self, band: int) -> np.ndarray:
        """Eigenvector field of one band, shape (grid shape..., D)."""
        return self.kgrid.reshape(self.vectors[self.row(band)])

    def translate(self, vectors: np.ndarray, axis: int, c: int) -> np.ndarray:
        """Vectors (..., D) continued across c dual translations along axis:
        times e^{i c e*_axis . y}, coefficient g sent to g + c e*_axis, and
        dropped (zero fill) where that leaves the box."""
        shift = np.zeros(self.basis.lattice.dim, dtype=int)
        shift[axis] = c
        return self.basis.take(vectors, self.basis.offsets - shift)

    def shifted_hamiltonian(self, x: np.ndarray, band: int) -> np.ndarray:
        """(H(k) - E_band(k)) x at every grid point, for x (..., N, D)."""
        V, kin = fiber_terms(self.potential, self.basis, self.kgrid.points)
        return x @ V.T + (kin - self.energies[band][:, None]) * x


def fiber_symmetries(potential: FourierPotential) -> list:
    """The symmetry group of the fiber family as (M, conj) pairs.

    M runs over the signed permutation matrices (d, d) that preserve the dual
    metric to relative SYMMETRY_TOL and fix Vhat to SYMMETRY_TOL; conj is
    False when Vhat(n M) = Vhat(n) and True when only
    Vhat(n M) = conj(Vhat(n)) holds (see the module docstring).  The
    identity comes first, and (-I, conj) or (-I, plain) is always present.
    """
    lat = potential.lattice
    d = lat.dim
    G = lat.dual @ lat.dual.T
    coeffs = [(np.asarray(n, dtype=int), complex(v))
              for n, v in potential.coefficients.items()]

    def fixes(M, conj):
        return all(abs(potential.vhat(n @ M) - (np.conj(v) if conj else v)) <= SYMMETRY_TOL
                   for n, v in coeffs)

    group = []
    for M in signed_permutations(d):
        if np.abs(M @ G @ M.T - G).max() > SYMMETRY_TOL * np.abs(G).max():
            continue
        for conj in (False, True):
            if fixes(M, conj):
                group.append((M, conj))
                break
    return group


def kgrid_orbits(kgrid: KGrid, symmetries) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the grid under symmetries, a list of (M, conj) pairs.

    Returns rep (N,), the lowest index in each point's orbit, and element
    (N,), the position in symmetries of an M with alpha_p = alpha_rep[p] M
    (the identity, position 0, for every representative).  A point is an
    image only when alpha M lands exactly on a grid point without wrapping,
    so an element may leave some points without an image, as a swap of two
    axes of unequal length does.  The test is exact: the cell-centered
    alpha = (2m + 1 - n) / 2n is held as integers c = L alpha with
    L = 2 lcm(shape).
    """
    shape, d = kgrid.shape, kgrid.dim
    L = 2 * int(np.lcm.reduce(shape))
    lookup = np.full((d, L + 1), -1)
    axes = []
    for ax, n in enumerate(shape):
        m = np.arange(n)
        axes.append(L // (2 * n) * (2 * m + 1 - n))
        lookup[ax, axes[-1] + L // 2] = m
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    N = coords.shape[0]
    targets = np.empty((len(symmetries), N), dtype=int)
    for s, (M, _) in enumerate(symmetries):
        idx = lookup[np.arange(d), coords @ M + L // 2]
        targets[s] = np.where(np.all(idx >= 0, axis=1), idx @ strides, N)
    rep = targets.min(axis=0)
    element = np.argmax(targets[:, rep] == np.arange(N), axis=0)
    return rep, element


def _reach(potential: FourierPotential) -> int:
    """p = max(1, largest |n_0| in V's support): V couples coefficient slices
    n_0 and n_0' only when |n_0 - n_0'| <= p."""
    return max([1] + [abs(int(n[0])) for n in potential.coefficients])


def _slabs(p: int, basis: PlaneWaveBasis) -> list:
    """The slabs of the block LU, as slices of the flat basis index in
    ascending n_0: slice 0 and the p slices below it form one slab, and the
    others hold p slices each, counted outwards from it (the outermost ones
    may be shorter)."""
    c = basis.cutoff
    width = basis.size // (2 * c + 1)
    runs = -(-c // p)
    lows = ([max(-c, -p * j) for j in range(runs, 0, -1)]
            + [1 + p * j for j in range(runs)] + [c + 1])
    return [slice((lo + c) * width, (hi + c) * width) for lo, hi in zip(lows, lows[1:])]


def _band_vectors(ham: np.ndarray, V: np.ndarray, slabs: list, evals: np.ndarray,
                  bands) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the fiber matrices ham (m, D, D) = V +
    diag(kin) for the listed bands (ascending indices), given all their
    eigenvalues in evals (m, D) ascending.

    Each listed eigenvalue lambda gets a block LU factorization of
    H - lambda - SHIFT ||H||_2 over slabs (_slabs): V supplies the
    off-diagonal blocks B_i = H[i, i-1] and C_i = H[i, i+1], which every
    matrix and band share, and only the inverses G_i of the Schur
    complements S_i = A_i - B_i G_{i-1} C_{i-1} are kept, at most
    m n D x (slab width) numbers for n listed bands.  SWEEPS sweeps of
    inverse iteration from fixed starts (band b's start does not depend on
    which other bands are listed) follow, then one QR and a Rayleigh-Ritz
    step in the span of the listed bands, so listed bands that are
    degenerate or nearly so come out orthonormal.  Returns the vectors
    (m, D, n) and each one's residual |H u - lambda u| / ||H||_2 (m, n).
    """
    bands = np.asarray(bands, dtype=int)
    m, D = ham.shape[:2]
    scale = np.abs(evals[:, [0, -1]]).max(axis=1)
    lam = evals[:, bands]
    shift = (lam + SHIFT * scale[:, None])[..., None, None]
    inv = []
    for i, sl in enumerate(slabs):
        s = ham[:, None, sl, sl] - shift * np.eye(sl.stop - sl.start)
        if i:
            up = slabs[i - 1]
            s -= V[sl, up] @ inv[-1] @ V[up, sl]
        inv.append(np.linalg.inv(s))
    # fixed starts without symmetry: a start that a fiber symmetry fixes is
    # orthogonal to every band odd under it
    x = np.sin(1.0 + np.outer(1.0 + 0.618 * bands, np.arange(D)))
    x = np.repeat(x[None].astype(ham.dtype), m, axis=0)              # (m, n, D)
    for _ in range(SWEEPS):
        # x <- (H - shift)^-1 x: y_i = x_i - B_i G_{i-1} y_{i-1} downwards,
        # then x_i = G_i (y_i - C_i x_{i+1}) upwards, both in place
        for i in range(1, len(slabs)):
            up = slabs[i - 1]
            x[..., slabs[i]] -= (inv[i - 1] @ x[..., up, None])[..., 0] @ V[slabs[i], up].T
        for i in range(len(slabs) - 1, -1, -1):
            rhs = x[..., slabs[i], None]
            if i + 1 < len(slabs):
                down = slabs[i + 1]
                rhs = rhs - V[slabs[i], down] @ x[..., down, None]
            x[..., slabs[i]] = (inv[i] @ rhs)[..., 0]
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    q = np.linalg.qr(np.swapaxes(x, 1, 2))[0]                        # (m, D, n)
    _, ritz = np.linalg.eigh(np.swapaxes(q.conj(), 1, 2) @ ham @ q)
    u = q @ ritz
    residual = np.linalg.norm(ham @ u - u * lam[:, None, :], axis=1) / scale[:, None]
    return u, residual


def _vector_bands(n_bands: int, vector_bands) -> tuple:
    """The bands whose vectors a solve stores, ascending: all n_bands for
    None; FiberError for an index outside [0, n_bands) or a repeated one."""
    if vector_bands is None:
        return tuple(range(n_bands))
    listed = [operator.index(b) for b in vector_bands]
    if len(set(listed)) < len(listed):
        raise FiberError(f"vector_bands {listed} repeats a band")
    if any(not 0 <= b < n_bands for b in listed):
        raise FiberError(f"vector_bands {listed} outside [0, {n_bands})")
    return tuple(sorted(listed))


def check_band_memory(potential: FourierPotential, shape, cutoff: int,
                      n_bands: int, vector_bands=None) -> None:
    """Refuse (DenseMemoryError) a solve_bands on a k-grid of this shape
    whose working set would not fit: _CHUNK_COPIES chunks of fiber matrices
    beside a chunk's block factors (chunk x n x D x the widest slab), the
    stored vectors (n, N, D) and the kinetic diagonals (N, D), for the
    n bands of vector_bands (as in solve_bands).  Needs only the shape, so
    nothing grid-sized exists yet."""
    w = 2 * cutoff + 1
    D = w ** potential.lattice.dim
    N = math.prod(shape)
    item = 8 if potential.even else 16
    per_chunk = min(max(CHUNK_BYTES // (item * D * D), 1), N)
    n_vec = min(n_bands if vector_bands is None else len(vector_bands), D)
    slab = min(_reach(potential) + 1, w) * D // w
    check_dense_memory(f"solve_bands at cutoff {cutoff}", tuple(shape),
                       per_chunk * item * D * (_CHUNK_COPIES * D + n_vec * slab)
                       + (16 * n_vec + 8) * N * D)


def solve_bands(potential: FourierPotential, kgrid: KGrid, cutoff: int,
                n_bands: int, vector_bands=None) -> BandStructure:
    """Diagonalize the fiber family over the cell-centered k-grid,
    eigenvalues ascending: the n_bands lowest energies everywhere, and the
    vectors of the bands in vector_bands (indices below n_bands, each at
    most once; None for all n_bands, () for none).

    The grid splits into orbits of the symmetry group of fiber_symmetries
    (kgrid_orbits: alpha M must land on a grid point without wrapping).
    Only the representative of each orbit is solved, in chunks of
    CHUNK_BYTES of matrices, each cut down to the stored window before the
    next is built (check_band_memory refuses first a solve that would not
    fit); an image alpha_p = alpha_rep M gets bit-identical energies and
    guard energy and the vectors P_M u, or P_M conj(u) for a conj element.
    On potential_2d(v, w) over the square lattice the group is {+-I, +-S}
    with S the diagonal mirror, so a 15 x 15 grid needs 64 solved matrices.

    A chunk's energies and guard energies are LAPACK's, from one batched
    eigvalsh, whichever vectors are asked for; the vectors come from
    _band_vectors (block LU over the slabs of _slabs, SWEEPS
    inverse-iteration sweeps at the shift SHIFT ||H||_2, QR and
    Rayleigh-Ritz in the span of the listed bands), whose cost grows with
    the number of listed bands.  A vector whose residual |H u - E u|
    exceeds RESIDUAL_TOL ||H||_2 is never returned: the solve raises
    FiberError naming its k-point.  The matrices are float64 when every
    Vhat(g) is real and complex128 otherwise; vectors are returned as
    complex128 either way.
    """
    check_band_memory(potential, kgrid.shape, cutoff, n_bands, vector_bands)
    basis = fiber_basis(potential, cutoff, n_bands)
    vector_bands = _vector_bands(n_bands, vector_bands)
    N, D = kgrid.n_points, basis.size
    symmetries = fiber_symmetries(potential)
    rep, element = kgrid_orbits(kgrid, symmetries)
    solved = np.flatnonzero(rep == np.arange(N))
    V, kin = fiber_terms(potential, basis, kgrid.points[solved])
    slabs = _slabs(_reach(potential), basis)
    window = min(n_bands + 1, D)
    evals = np.empty((solved.size, window))
    vectors = np.empty((len(vector_bands), N, D), dtype=complex)
    step = max(CHUNK_BYTES // V.nbytes, 1)
    diag = np.arange(D)
    # one buffer serves every chunk: matrices allocated afresh per chunk
    # mostly come from the heap, and what is freed there stays resident
    chunk = np.empty((min(step, solved.size), D, D), dtype=V.dtype)
    for start in range(0, solved.size, step):
        part = slice(start, start + step)
        ham = chunk[:len(kin[part])]
        ham[...] = V
        ham[:, diag, diag] += kin[part]
        w = np.linalg.eigvalsh(ham)
        evals[part] = w[:, :window]
        if not vector_bands:
            continue
        u, residual = _band_vectors(ham, V, slabs, w, vector_bands)
        bad = np.flatnonzero(~np.all(residual <= RESIDUAL_TOL, axis=1))     # NaN is bad
        if bad.size:
            p = solved[start + bad[0]]
            raise FiberError(
                f"band vectors at k = {tuple(kgrid.points[p].tolist())} (grid point {p}) "
                f"miss the residual bound: {residual[bad[0]].max():.1e} of ||H|| "
                f"> {RESIDUAL_TOL:.0e}")
        vectors[:, solved[part]] = np.transpose(u, (2, 0, 1))
    row = np.searchsorted(solved, rep)
    energies = np.ascontiguousarray(evals[row, :n_bands].T)
    for s, (M, conj) in enumerate(symmetries[1:], start=1):
        images = np.flatnonzero(element == s)
        if images.size:
            # (P_M u)[j] = u[index(offsets[j] M^-1)], and M^-1 = M^T
            u = basis.take(vectors[:, rep[images]], basis.offsets @ M.T)
            vectors[:, images] = u.conj() if conj else u
    if n_bands < D:
        guard = evals[row, n_bands]
    else:
        guard = np.full(N, np.inf)
    return BandStructure(kgrid=kgrid, basis=basis, potential=potential,
                         energies=energies, vector_bands=vector_bands,
                         vectors=vectors, guard_energies=guard)


def check_gap(bands: BandStructure, index_set) -> float:
    """Infimum over the grid of the distance between the selected band family
    and the complementary spectrum.  Returns 0.0 when bands touch."""
    idx = sorted(int(i) for i in index_set)
    if not idx:
        raise FiberError("index set is empty")
    if len(set(idx)) < len(idx):
        raise FiberError(f"index set {idx} repeats a band")
    if idx != list(range(idx[0], idx[-1] + 1)):
        raise FiberError("index set must be contiguous")
    if idx[0] < 0 or idx[-1] >= bands.n_bands:
        raise FiberError("index set outside computed bands")
    sel_lo, sel_hi = idx[0], idx[-1]
    dists = []
    if sel_lo > 0:
        dists.append(bands.energies[sel_lo] - bands.energies[sel_lo - 1])
    if sel_hi + 1 < bands.n_bands:
        dists.append(bands.energies[sel_hi + 1] - bands.energies[sel_hi])
    else:
        dists.append(bands.guard_energies - bands.energies[sel_hi])
    return float(max(0.0, min(np.min(d) for d in dists)))


def fiber_on_cell_grid(bands: BandStructure, coeffs: np.ndarray,
                       m_per_axis: int) -> np.ndarray:
    """Sample fiber vectors, given by their (N_k, D) coefficients in the basis
    of bands (a band's vectors or a gauged frame), on a uniform cell grid.

    Returns (N_k, m^d) complex samples, discretely normalized so that
    sum_j |phi_j|^2 = 1 on each fiber.  Exact provided m_per_axis > 2*cutoff.
    """
    basis = bands.basis
    lat = basis.lattice
    d = lat.dim
    if m_per_axis <= 2 * basis.cutoff:
        raise FiberError("cell grid too coarse for the plane-wave content")
    frac = np.arange(m_per_axis) / m_per_axis
    mesh = np.meshgrid(*([frac] * d), indexing="ij")
    y = sum(mesh[ax][..., None] * lat.basis[ax] for ax in range(d))
    phases = np.exp(1j * np.tensordot(y, basis.gvectors().T, axes=1))  # (grid..., D)
    samples = np.tensordot(coeffs, phases, axes=([1], [d]))  # (N_k, grid...)
    samples = samples.reshape(coeffs.shape[0], -1)
    samples /= np.sqrt(m_per_axis ** d)
    return samples
