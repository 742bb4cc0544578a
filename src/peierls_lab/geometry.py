"""Gauge fixing and geometric band data on k-grids of any dimension d.

A smooth periodic gauge is built by recursion over the axes: the slice
k_d = 0 is gauged as a (d-1)-dimensional field, and every point of it is
parallel-transported along the last axis with the loop phase distributed
uniformly.  Centered finite differences of the frame are then second-order
accurate everywhere, including across the zone boundary (closed with the
exact dual-lattice index shift).  The loop phases must lift continuously over
the (d-1)-torus; a winding is a nonzero Chern number and has no smooth
periodic gauge.  The curvature is computed from plaquette link phases in
every coordinate plane, which is manifestly gauge invariant and produces
integer Chern numbers without any gauge-obstruction bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import PeierlsError
from .fiber import DEGENERACY_TOL, BandStructure, fiber_terms

__all__ = [
    "Frame",
    "GeometricTensors",
    "fix_gauge",
    "berry_connection",
    "berry_curvature",
    "curvature_from_vectors",
    "chern_from_vectors",
    "rammal_wilkinson",
    "wilson_loop",
    "geometric_tensors",
]


class GaugeError(PeierlsError, RuntimeError):
    pass


@dataclass(frozen=True)
class Frame:
    """Gauge-fixed eigenvector field of a single band over the k-grid.

    vectors : (n_1, ..., n_d, D) complex, unit norm per point.
    """

    bands: BandStructure
    band: int
    vectors: np.ndarray

    @property
    def kgrid(self):
        return self.bands.kgrid


def _translate(basis, vecs: np.ndarray, axis: int, c: int) -> np.ndarray:
    """A stack of vectors continued across c dual translations along axis
    (the dual-translation index shift)."""
    if c == 0:
        return vecs
    n_shift = np.zeros(basis.lattice.dim, dtype=int)
    n_shift[axis] = c
    return vecs @ basis.shift_matrix(n_shift).T


def _lift(theta: np.ndarray, axis: int) -> np.ndarray:
    """Continuous lift of the loop phases of the lines along `axis` over the
    torus of their base points, one torus axis at a time.

    A winding of the phases along torus axis a is the Chern number of the
    plane (a, axis), which obstructs a smooth periodic gauge: GaugeError.
    """
    for a in range(theta.ndim):
        # torus axis a is at the front here; each pass moves it to the back
        steps = np.angle(np.exp(1j * (np.roll(theta, -1, axis=0) - theta)))
        winding = np.round(np.sum(steps, axis=0) / (2 * np.pi))
        if np.any(winding != 0):
            raise GaugeError(
                f"loop phases along axis {axis} wind {int(winding[winding != 0][0])} "
                f"times along axis {a}: a nonzero Chern number in plane "
                f"({a}, {axis}) obstructs a smooth periodic gauge")
        rise = np.cumsum(steps[:-1], axis=0)
        theta = np.moveaxis(theta[0] + np.concatenate((np.zeros_like(theta[:1]), rise)), 0, -1)
    return theta


def _smooth_gauge(vectors: np.ndarray, shift, points: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge of an (n_1, ..., n_m, D) vector field on a
    cell-centered k-grid.

    The closure of the torus: only the seam link of a line along axis a,
    from its last point back to its first, crosses a dual translation, and
    it crosses -1 of them (KGrid); shift(v, a, c) continues vectors v across
    c dual translations along axis a (_translate).  One vector (m = 0) is
    anchored: its first significant component becomes real positive.
    points, the (n_1, ..., n_m, d) k-points of the field, name the point
    where parallel transport loses overlap.
    """
    if vectors.ndim == 1:
        iref = int(np.argmax(np.abs(vectors) > 1e-8 * np.abs(vectors).max()))
        return vectors * np.conj(vectors[iref] / abs(vectors[iref]))
    axis = vectors.ndim - 2
    n = vectors.shape[-2]
    out = vectors.copy()
    out[..., 0, :] = _smooth_gauge(vectors[..., 0, :], shift, points[..., 0, :])
    chart = out[..., 0, :]
    for j in range(1, n + 1):
        # step j = n closes the loop onto the start of the line
        w = out[..., j, :] if j < n else shift(out[..., 0, :], axis, -1)
        ov = (np.conj(chart)[..., None, :] @ w[..., :, None])[..., 0, 0]
        if j == n:
            break
        # hypot, not np.abs: numpy rounds a complex abs differently on arrays
        # and on scalars, and a line's frame must not depend on its batch
        size = np.hypot(ov.real, ov.imag)
        if size.min() < 1e-6:
            at = np.unravel_index(np.argmin(size), size.shape) + (j,)
            raise GaugeError(f"parallel transport lost overlap at k = {points[at]} "
                             "(grid too coarse)")
        ph = (np.conj(ov) / size)[..., None]
        chart = w * ph
        out[..., j, :] *= ph
    theta = np.angle(ov)
    # holonomies at the branch cut (pi) must pick a deterministic side
    theta = np.where(theta < -np.pi + 1e-7, theta + 2 * np.pi, theta)
    theta = _lift(theta, axis)
    # spread the loop phase so every link carries the same tiny angle
    out *= np.exp(1j * np.arange(n) * theta[..., None] / n)[..., None]
    return out


def fix_gauge(bands: BandStructure, band: int) -> Frame:
    """Smooth periodic gauge for a non-degenerate band on a k-grid of any d.

    Raises GaugeError if the band approaches a neighbor anywhere on the grid,
    or if a nonzero Chern number obstructs a smooth periodic gauge.
    """
    grid = bands.kgrid
    E = bands.energies
    upper = E[band + 1] if band + 1 < bands.n_bands else bands.guard_energies
    lower = E[band - 1] if band > 0 else np.full(grid.n_points, -np.inf)
    gmin = np.minimum(E[band] - lower, upper - E[band])
    worst = int(np.argmin(gmin))
    if gmin[worst] < DEGENERACY_TOL:
        raise GaugeError(
            f"band {band} degenerate at k = {bands.kgrid.points[worst]} "
            f"(separation {gmin[worst]:.3e})")
    vectors = _smooth_gauge(bands.frame(band),
                            functools.partial(_translate, bands.basis),
                            grid.reshape(grid.points))
    return Frame(bands=bands, band=band, vectors=vectors)


def _neighbor(frame: Frame, axis: int, step: int) -> np.ndarray:
    """Neighbor vectors along axis, step = +-1, with equivariant closure, same
    shape as frame: the seam row, whose neighbor lies across the zone
    boundary, is continued across -step dual translations (KGrid)."""
    out = np.moveaxis(np.roll(frame.vectors, -step, axis=axis), axis, 0).copy()
    seam = -1 if step == 1 else 0
    out[seam] = _translate(frame.bands.basis, out[seam], axis, -step)
    return np.moveaxis(out, 0, axis)


def _k_derivatives(frame: Frame) -> np.ndarray:
    """Centered-difference Cartesian derivatives of the frame.

    Returns (d, grid shape..., D): component m is d(phi)/dk_m.
    """
    grid = frame.kgrid
    # derivative w.r.t. alpha_ax
    dalpha = np.stack([(_neighbor(frame, ax, +1) - _neighbor(frame, ax, -1)) * (n / 2.0)
                       for ax, n in enumerate(grid.shape)])
    # dk/dalpha_j = e*_j  =>  d/dk_m = sum_j (basis[j,m]/2pi) d/dalpha_j
    T = grid.lattice.basis / (2 * np.pi)  # (j, m)
    return np.tensordot(T.T, dalpha, axes=([1], [0]))


def berry_connection(frame: Frame, dphi: np.ndarray):
    """Connection A_m(k) = Re[i <phi, d phi/dk_m>] on the grid, from the
    frame's derivatives dphi = _k_derivatives(frame).

    Returns (A, residue): A with shape (grid..., d) real, and the largest
    imaginary residue |Im(i<phi, dphi>)| as a stencil diagnostic.
    """
    raw = 1j * np.einsum("...c,m...c->...m", np.conj(frame.vectors), dphi)
    return raw.real, float(np.abs(raw.imag).max())


def wilson_loop(frame: Frame, axis: int = 0) -> np.ndarray:
    """Closed-loop Berry phases along one grid axis.

    Returns the per-line phase in [-pi, pi): the discrete integral of A.dk
    along the closed line (with equivariant closure).
    """
    plus = _neighbor(frame, axis, +1)
    links = np.einsum("...c,...c->...", np.conj(frame.vectors), plus)
    prod = np.prod(np.moveaxis(links, axis, 0), axis=0)
    return -np.angle(prod)


def curvature_from_vectors(vectors: np.ndarray, closure=None):
    """Plaquette curvature angles for an (n1, n2, ..., D) eigenvector field.

    The plaquettes span the first two axes, batched over any axes before D.
    closure: optional pair of callables (close_axis0, close_axis1) mapping the
    (m, ..., D) boundary stack to its continuation; defaults to periodic wrap.
    Returns the (n1, n2, ...) plaquette angles; minus their plane sum / 2 pi
    is the Chern number.  Raises GaugeError if any plaquette phase reaches pi.
    """
    vp1 = np.roll(vectors, -1, axis=0)
    vp2 = np.roll(vectors, -1, axis=1)
    vp12 = np.roll(vp1, -1, axis=1)
    if closure is not None:
        c0, c1 = closure
        vp1[-1] = c0(vectors[0])
        vp12[-1] = c0(vp2[0])
        vp2[:, -1] = c1(vectors[:, 0])
        vp12[:, -1] = c1(vp1[:, 0])
    u1 = np.einsum("ij...c,ij...c->ij...", np.conj(vectors), vp1)
    u2 = np.einsum("ij...c,ij...c->ij...", np.conj(vp1), vp12)
    u3 = np.einsum("ij...c,ij...c->ij...", np.conj(vp12), vp2)
    u4 = np.einsum("ij...c,ij...c->ij...", np.conj(vp2), vectors)
    loop = u1 * u2 * u3 * u4
    ang = np.angle(loop)
    if np.abs(ang).max() >= np.pi - 1e-9:
        raise GaugeError("plaquette phase reached pi: refine the grid")
    return ang


def chern_from_vectors(vectors: np.ndarray) -> float:
    """Chern number of a periodic (n1, n2, D) family (float; integer up to
    rounding)."""
    ang = curvature_from_vectors(vectors)
    return float(-np.sum(ang) / (2 * np.pi))


def _plane_cofactors(dual: np.ndarray) -> np.ndarray:
    """C[a, b, m, n] = det(dual) x the (m, n) Cartesian component of a unit
    alpha-space 2-form in the plane (a, b), for a < b.

    That component is the 2x2 minor of dual^-1 = basis.T / 2 pi, the map of
    _k_derivatives.  By Jacobi's theorem it is the signed complementary minor
    of dual over det(dual): exactly 1 / det(dual) in 2-D.
    """
    d = len(dual)
    out = np.zeros((d,) * 4)
    planes = list(itertools.combinations(range(d), 2))
    for (a, b), (m, n) in itertools.product(planes, planes):
        minor = np.delete(np.delete(dual, (a, b), axis=0), (m, n), axis=1)
        out[a, b, m, n] = (-1) ** (a + b + m + n) * np.linalg.det(minor)
    return out - np.swapaxes(out, 2, 3)


def berry_curvature(frame: Frame):
    """Berry curvature field and Chern number on a k-grid of any d.

    Each coordinate plane (a, b) gives plaquette angles on all its parallel
    slices at once.  Returns (Omega, chern): Omega (grid..., d, d) is
    antisymmetric, in Cartesian components (zeros in 1-D, which has no
    planes); chern is the signed Chern number (float plaquette sum / 2 pi)
    of largest magnitude over all planes and slices, None in 1-D.
    """
    grid = frame.kgrid
    d = grid.dim

    def close(axis):
        return lambda stack: _translate(frame.bands.basis, stack, axis, -1)

    cofactors = _plane_cofactors(grid.lattice.dual)
    det_dual = float(np.linalg.det(grid.lattice.dual))
    Omega = np.zeros(grid.shape + (d, d))
    cherns = []
    for a, b in itertools.combinations(range(d), 2):
        ang = curvature_from_vectors(np.moveaxis(frame.vectors, (a, b), (0, 1)),
                                     (close(a), close(b)))
        cherns.append(np.ravel(-np.sum(ang, axis=(0, 1)) / (2 * np.pi)))
        # plaquette angle ~ -Omega^alpha_ab * dalpha_a * dalpha_b
        omega = -ang * (grid.shape[a] * grid.shape[b]) / det_dual
        Omega += np.moveaxis(omega, (0, 1), (a, b))[..., None, None] * cofactors[a, b]
    if not cherns:
        return Omega, None
    cherns = np.concatenate(cherns)
    return Omega, float(cherns[np.argmax(np.abs(cherns))])


def rammal_wilkinson(bands: BandStructure, frame: Frame, dphi: np.ndarray):
    """Band-energy second-moment tensor M_lj(k), real and antisymmetric,
    from the frame's derivatives dphi = _k_derivatives(frame).

    M_lj = Re[(i/2) <d_l phi, (H(k) - E) d_j phi>].  The imaginary part,
    (1/2) Re<d_l phi, (H(k) - E) d_j phi>, is symmetric in l, j and is a
    physical quantity, not a stencil residue: it does not fall under grid
    refinement, so it is not returned.
    """
    grid = frame.kgrid
    d = grid.dim
    x = dphi.reshape(d, grid.n_points, -1)  # (d, N, D)
    # (H(k) - E) x = V x + (kin(k) - E) x, all k-points at once
    V, kin = fiber_terms(bands.potential, bands.basis, bands.kgrid.points)
    w = x @ V.T + (kin - bands.energies[frame.band][:, None]) * x
    t = np.einsum("lpg,jpg->ljp", np.conj(x), w)
    M = np.real(0.5j * t)  # (d, d, N)
    return np.moveaxis(M, -1, 0).reshape(grid.shape + (d, d))


@dataclass(frozen=True)
class GeometricTensors:
    """Geometric data of one band on its k-grid.

    connection : (grid..., d); curvature : (grid..., d, d) (zeros in 1-D);
    rw : (grid..., d, d); chern : the plane Chern number of largest
    magnitude (berry_curvature), None in 1-D; diagnostics carry the
    largest imaginary residue of the connection stencil.
    """

    frame: Frame
    connection: np.ndarray
    curvature: np.ndarray
    rw: np.ndarray
    chern: float | None
    diagnostics: dict


def geometric_tensors(bands: BandStructure, band: int) -> GeometricTensors:
    """Full geometric pipeline: gauge, connection, curvature, RW tensor
    (connection and RW tensor from one set of frame derivatives)."""
    frame = fix_gauge(bands, band)
    dphi = _k_derivatives(frame)
    A, res_a = berry_connection(frame, dphi)
    Omega, chern = berry_curvature(frame)
    M = rammal_wilkinson(bands, frame, dphi)
    return GeometricTensors(
        frame=frame, connection=A, curvature=Omega, rw=M, chern=chern,
        diagnostics={"connection_imag_residue": res_a})
