"""Gauge fixing and geometric band data on k-grids of any dimension d.

A smooth periodic gauge is built by recursion over the axes: the slice
k_d = 0 is gauged as a (d-1)-dimensional field, and every point of it is
parallel-transported along the last axis with the loop phase distributed
uniformly.  Centered finite differences of the frame are then second-order
accurate everywhere, including across the zone boundary.  The loop phases
must lift continuously over the (d-1)-torus; a winding is a nonzero Chern
number and has no smooth periodic gauge.  The curvature is computed from
plaquette link phases in every coordinate plane, which is manifestly gauge
invariant and produces integer Chern numbers without any gauge-obstruction
bookkeeping.

One neighbour rule closes the k-torus (_neighbor), and a band family is read
only through the BandStructure interface, whose translate crosses the seam:
any family offering that interface runs through here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import PeierlsError
from .fiber import DEGENERACY_TOL, BandStructure

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


def _neighbor(vectors: np.ndarray, axis: int, step: int, translate=None) -> np.ndarray:
    """Neighbor vectors along a grid axis of a (grid..., D) field, step = +-1:
    the seam row, whose neighbor lies across the zone boundary, is continued
    across -step dual translations by translate(stack, axis, c), a family's
    translate (KGrid); None is a plain periodic wrap."""
    out = np.roll(vectors, -step, axis=axis)
    if translate is not None:
        seam = (slice(None),) * axis + (-1 if step == 1 else 0,)
        out[seam] = translate(out[seam], axis, -step)
    return out


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


def _smooth_gauge(vectors: np.ndarray, translate, points: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge of an (n_1, ..., n_m, D) vector field on a
    cell-centered k-grid.

    Each line along the last axis is parallel-transported from its first
    point through its neighbors (_neighbor with translate, None for a plain
    periodic wrap), the last of which is its first point across the seam.
    One vector (m = 0) is anchored: its first significant component becomes
    real positive.  points, the (n_1, ..., n_m, d) k-points of the field,
    name the point where parallel transport loses overlap.
    """
    if vectors.ndim == 1:
        iref = int(np.argmax(np.abs(vectors) > 1e-8 * np.abs(vectors).max()))
        return vectors * np.conj(vectors[iref] / abs(vectors[iref]))
    axis = vectors.ndim - 2
    n = vectors.shape[-2]
    out = vectors.copy()
    out[..., 0, :] = _smooth_gauge(vectors[..., 0, :], translate, points[..., 0, :])
    # step j reaches point j; step n closes the loop onto the start of the line
    following = _neighbor(out, axis, +1, translate)
    chart = out[..., 0, :]
    for j in range(1, n + 1):
        w = following[..., j - 1, :]
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
    vectors = _smooth_gauge(bands.frame(band), bands.translate, grid.reshape(grid.points))
    return Frame(bands=bands, band=band, vectors=vectors)


def _k_derivatives(frame: Frame) -> np.ndarray:
    """Centered-difference Cartesian derivatives of the frame.

    Returns (d, grid shape..., D): component m is d(phi)/dk_m.
    """
    grid = frame.kgrid
    v, translate = frame.vectors, frame.bands.translate
    # derivative w.r.t. alpha_ax
    dalpha = np.stack([(_neighbor(v, ax, +1, translate) - _neighbor(v, ax, -1, translate))
                       * (n / 2.0) for ax, n in enumerate(grid.shape)])
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
    along the closed line (closed across the seam, _neighbor).
    """
    plus = _neighbor(frame.vectors, axis, +1, frame.bands.translate)
    links = np.einsum("...c,...c->...", np.conj(frame.vectors), plus)
    prod = np.prod(np.moveaxis(links, axis, 0), axis=0)
    return -np.angle(prod)


def _plaquette_angles(vectors: np.ndarray, a: int, b: int, translate=None) -> np.ndarray:
    """Plaquette angles of a (grid..., D) field in the plane of grid axes
    (a, b) on every parallel slice, the torus closed by _neighbor(translate).
    Plaquette (i, j) spans points i..i+1 along a and j..j+1 along b and is
    stored at point (i, j).  GaugeError if a plaquette phase reaches pi."""
    vp1 = _neighbor(vectors, a, +1, translate)
    vp2 = _neighbor(vectors, b, +1, translate)
    vp12 = _neighbor(vp1, b, +1, translate)
    u1 = np.einsum("...c,...c->...", np.conj(vectors), vp1)
    u2 = np.einsum("...c,...c->...", np.conj(vp1), vp12)
    u3 = np.einsum("...c,...c->...", np.conj(vp12), vp2)
    u4 = np.einsum("...c,...c->...", np.conj(vp2), vectors)
    loop = u1 * u2 * u3 * u4
    ang = np.angle(loop)
    if np.abs(ang).max() >= np.pi - 1e-9:
        raise GaugeError("plaquette phase reached pi: refine the grid")
    return ang


def curvature_from_vectors(vectors: np.ndarray) -> np.ndarray:
    """Plaquette angles (n1, n2, ...) of an (n1, n2, ..., D) eigenvector field
    that wraps plainly (a theta-torus), in the plane of the first two axes,
    batched over the others; minus their plane sum / 2 pi is the Chern number.
    GaugeError if a plaquette phase reaches pi."""
    return _plaquette_angles(vectors, 0, 1)


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
    cofactors = _plane_cofactors(grid.lattice.dual)
    det_dual = float(np.linalg.det(grid.lattice.dual))
    Omega = np.zeros(grid.shape + (d, d))
    cherns = []
    for a, b in itertools.combinations(range(d), 2):
        ang = _plaquette_angles(frame.vectors, a, b, frame.bands.translate)
        cherns.append(np.ravel(-np.sum(ang, axis=(a, b)) / (2 * np.pi)))
        # plaquette angle ~ -Omega^alpha_ab * dalpha_a * dalpha_b
        omega = -ang * (grid.shape[a] * grid.shape[b]) / det_dual
        Omega += omega[..., None, None] * cofactors[a, b]
    if not cherns:
        return Omega, None
    cherns = np.concatenate(cherns)
    return Omega, float(cherns[np.argmax(np.abs(cherns))])


def rammal_wilkinson(frame: Frame, dphi: np.ndarray):
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
    w = frame.bands.shifted_hamiltonian(x, frame.band)
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
    M = rammal_wilkinson(frame, dphi)
    return GeometricTensors(
        frame=frame, connection=A, curvature=Omega, rw=M, chern=chern,
        diagnostics={"connection_imag_residue": res_a})
