"""Harper/Hofstadter spectra from the Peierls-substituted cosine band.

At rational flux alpha = p/q the magnetic Bloch reduction of the band
E(k) = cos k_1 + cos k_2 is the q x q family

    H(theta)[n, n] = cos(2 pi alpha n + theta_2),
    H(theta)[n, n+1] = e^{-i theta_1} / 2   (cyclic),

whose spectrum is contained in [-2, 2].  Each eigenvalue branch depends on
the angles only through cos q theta_1 + cos q theta_2, so its extrema sit
at the four Chambers points (q theta_i in {0, pi}; W. G. Chambers,
Phys. Rev. 140, A135 (1965)).  Subband edges are therefore the per-branch
min/max over those four matrices, exactly; only the subband Chern numbers,
which integrate over the torus, need a theta grid.

A flux is a `fractions.Fraction`; the layer reads only its reduced
denominator q and float(alpha), so Fraction(2, 4) is the flux 1/2 with two
subbands.  `butterfly` returns its sweep as a plain per-flux table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import PeierlsError
from .geometry import chern_from_vectors

__all__ = [
    "harper_bloch_matrix",
    "spectrum_at_flux",
    "butterfly",
    "subband_cherns",
]


class HofstadterError(PeierlsError, ValueError):
    pass


def harper_bloch_matrix(flux: Fraction, theta1, theta2) -> np.ndarray:
    """q x q Hermitian Bloch matrices at magnetic Bloch phases (theta1, theta2).

    The angles broadcast against each other; the result has shape
    broadcast(theta1, theta2).shape + (q, q).
    """
    q = flux.denominator
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float),
                                 np.asarray(theta2, dtype=float))
    n = np.arange(q)
    H = np.zeros(t1.shape + (q, q), dtype=complex)
    H[..., n, n] = np.cos(2 * np.pi * float(flux) * n + t2[..., None])
    if q == 1:
        H[..., 0, 0] += np.cos(t1)
        return H
    hop = 0.5 * np.exp(-1j * t1)
    H[..., n[:-1], n[:-1] + 1] = hop[..., None]
    H[..., n[:-1] + 1, n[:-1]] = np.conj(hop)[..., None]
    H[..., q - 1, 0] += hop
    H[..., 0, q - 1] += np.conj(hop)
    return H


def _bloch_family(flux: Fraction, n_theta: int, reduced: bool = True):
    """Angles th and stacked H(theta) over the n_theta x n_theta grid th x th.

    reduced=True spans [0, 2 pi / q) per angle (n_theta = 2 gives the four
    Chambers points); otherwise the full [0, 2 pi) torus.
    """
    period = 2 * np.pi / flux.denominator if reduced else 2 * np.pi
    th = period * np.arange(n_theta) / n_theta
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    return th, harper_bloch_matrix(flux, T1, T2)


def spectrum_at_flux(flux: Fraction) -> np.ndarray:
    """Exact subband intervals [(e_min, e_max)] * q: per-branch extrema of
    the Bloch family over the four Chambers points."""
    _, H = _bloch_family(flux, 2, reduced=True)
    evals = np.linalg.eigvalsh(H)  # (2, 2, q) ascending
    lo = evals.min(axis=(0, 1))
    hi = evals.max(axis=(0, 1))
    return np.stack([lo, hi], axis=-1)


CHERN_Q_MAX = 10    # largest flux denominator butterfly labels with Chern numbers


def butterfly(q_max: int, chern_labels: bool = False, n_workers: int = 1) -> dict:
    """Subband table {alpha: [(e_min, e_max, chern)] * q} over all reduced
    fluxes alpha = p/q (Fractions) with 0 <= p <= q <= q_max, in ascending
    alpha and band order; chern is None when labels were not requested.

    Edges come from the Chambers points (`spectrum_at_flux`); Chern labels,
    for q <= CHERN_Q_MAX, come from `subband_cherns`, one torus
    diagonalization per flux shared by its q subbands.  A flux whose
    subbands touch gets no labels.

    Edges run serially on the calling thread: four q x q solves per flux
    cost less than a pool hand-off (q_max 12, one BLAS thread: 9 ms serial
    against 17 ms on 2 workers).  With n_workers > 1 the Chern tori, whose
    batched eigh releases the GIL, go to a pool of n_workers threads while
    the edges are computed.
    """
    if q_max < 1:
        raise HofstadterError(f"q_max must be >= 1, got {q_max}")
    fluxes = sorted({Fraction(p, q) for q in range(1, q_max + 1)
                     for p in range(0, q + 1)})

    def labels(flux):
        q = flux.denominator
        if not (chern_labels and q <= CHERN_Q_MAX):
            return [None] * q
        try:
            return subband_cherns(flux)
        except HofstadterError:
            return [None] * q

    pool = None
    if chern_labels and n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        all_labels = (pool.map if pool else map)(labels, fluxes)
        return {flux: [(lo, hi, c) for (lo, hi), c
                       in zip(spectrum_at_flux(flux).tolist(), cherns)]
                for flux, cherns in zip(fluxes, all_labels)}
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


GAP_TOL = 1e-9    # smallest subband separation on the theta torus


def subband_cherns(flux: Fraction) -> list:
    """Chern numbers of the q magnetic subbands, from one diagonalization of
    the Bloch family on the full theta torus.

    The plaquette sum runs over the full theta torus, which is a q-fold cover
    of the magnetic Brillouin zone along theta_1; the subband invariant is the
    covered value divided by q, with the orientation fixed so that the
    standard gap-labeling convention (p t = r mod q) is reproduced.  Raises
    on the first band that touches a neighbor anywhere on the grid.
    """
    evals, evecs = _torus_eigh(flux)
    return [_chern_on_torus(flux, j, evals, evecs) for j in range(flux.denominator)]


def _torus_eigh(flux: Fraction):
    """Eigenpairs of the Bloch family on the full theta torus, max(24, 6q)
    points per angle."""
    _, H = _bloch_family(flux, max(24, 6 * flux.denominator), reduced=False)
    return np.linalg.eigh(H)


def _chern_on_torus(flux: Fraction, band: int, evals, evecs) -> int:
    q = flux.denominator
    if band > 0 and np.min(evals[..., band] - evals[..., band - 1]) < GAP_TOL:
        raise HofstadterError(f"subband {band} touches band {band - 1}")
    if band + 1 < q and np.min(evals[..., band + 1] - evals[..., band]) < GAP_TOL:
        raise HofstadterError(f"subband {band} touches band {band + 1}")
    c = -chern_from_vectors(evecs[..., band]) / q
    ci = int(np.round(c))
    if abs(c - ci) > 1e-6:
        raise HofstadterError(f"Chern number not integral: {c}")
    return ci
