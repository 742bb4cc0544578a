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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import PeierlsError
from .geometry import chern_from_vectors

__all__ = [
    "FluxRational",
    "ButterflyData",
    "harper_bloch_matrix",
    "spectrum_at_flux",
    "butterfly",
    "subband_cherns",
]


class HofstadterError(PeierlsError, ValueError):
    pass


@dataclass(frozen=True)
class FluxRational:
    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise HofstadterError("q must be >= 1")

    @property
    def alpha(self) -> float:
        return self.p / self.q


@dataclass(frozen=True)
class ButterflyData:
    """Subband intervals per flux: entries (alpha: Fraction, band_index,
    e_min, e_max, chern) with chern None when labels were not requested.
    `entries` is stored as a tuple; `fluxes` and `intervals` read a
    per-flux table built from it once."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @cached_property
    def _by_flux(self) -> dict:
        table = {}
        for e in self.entries:
            table.setdefault(e[0], []).append((e[2], e[3]))
        return {fr: table[fr] for fr in sorted(table)}

    def fluxes(self):
        return list(self._by_flux)

    def intervals(self, alpha):
        key = alpha if isinstance(alpha, Fraction) else Fraction(alpha).limit_denominator(10 ** 6)
        return list(self._by_flux.get(key, ()))


def harper_bloch_matrix(flux: FluxRational, theta1, theta2) -> np.ndarray:
    """q x q Hermitian Bloch matrices at magnetic Bloch phases (theta1, theta2).

    The angles broadcast against each other; the result has shape
    broadcast(theta1, theta2).shape + (q, q).
    """
    q = flux.q
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float),
                                 np.asarray(theta2, dtype=float))
    n = np.arange(q)
    H = np.zeros(t1.shape + (q, q), dtype=complex)
    H[..., n, n] = np.cos(2 * np.pi * flux.alpha * n + t2[..., None])
    if q == 1:
        H[..., 0, 0] += np.cos(t1)
        return H
    hop = 0.5 * np.exp(-1j * t1)
    H[..., n[:-1], n[:-1] + 1] = hop[..., None]
    H[..., n[:-1] + 1, n[:-1]] = np.conj(hop)[..., None]
    H[..., q - 1, 0] += hop
    H[..., 0, q - 1] += np.conj(hop)
    return H


def _bloch_family(flux: FluxRational, n_theta: int, reduced: bool = True):
    """Angles th and stacked H(theta) over the n_theta x n_theta grid th x th.

    reduced=True spans [0, 2 pi / q) per angle (n_theta = 2 gives the four
    Chambers points); otherwise the full [0, 2 pi) torus.
    """
    period = 2 * np.pi / flux.q if reduced else 2 * np.pi
    th = period * np.arange(n_theta) / n_theta
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    return th, harper_bloch_matrix(flux, T1, T2)


def spectrum_at_flux(flux: FluxRational) -> np.ndarray:
    """Exact subband intervals [(e_min, e_max)] * q: per-branch extrema of
    the Bloch family over the four Chambers points."""
    _, H = _bloch_family(flux, 2, reduced=True)
    evals = np.linalg.eigvalsh(H)  # (2, 2, q) ascending
    lo = evals.min(axis=(0, 1))
    hi = evals.max(axis=(0, 1))
    return np.stack([lo, hi], axis=-1)


CHERN_Q_MAX = 10    # largest flux denominator butterfly labels with Chern numbers


def butterfly(q_max: int, chern_labels: bool = False, n_workers: int = 1) -> ButterflyData:
    """Subband intervals for all reduced fluxes p/q with q <= q_max,
    deterministic ordering by (alpha, band index).

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
    fracs = sorted({Fraction(p, q) for q in range(1, q_max + 1)
                    for p in range(0, q + 1)})
    fluxes = [FluxRational(fr.numerator, fr.denominator) for fr in fracs]

    def labels(fl):
        if not (chern_labels and fl.q <= CHERN_Q_MAX):
            return [None] * fl.q
        try:
            return subband_cherns(fl)
        except HofstadterError:
            return [None] * fl.q

    pool = None
    if chern_labels and n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=n_workers)
    try:
        entries = []
        all_labels = (pool.map if pool else map)(labels, fluxes)
        for fr, fl, cherns in zip(fracs, fluxes, all_labels):
            ivals = spectrum_at_flux(fl)
            entries.extend((fr, j, float(ivals[j, 0]), float(ivals[j, 1]), cherns[j])
                           for j in range(fl.q))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return ButterflyData(entries=entries)


GAP_TOL = 1e-9    # smallest subband separation on the theta torus


def subband_cherns(flux: FluxRational) -> list:
    """Chern numbers of the q magnetic subbands, from one diagonalization of
    the Bloch family on the full theta torus.

    The plaquette sum runs over the full theta torus, which is a q-fold cover
    of the magnetic Brillouin zone along theta_1; the subband invariant is the
    covered value divided by q, with the orientation fixed so that the
    standard gap-labeling convention (p t = r mod q) is reproduced.  Raises
    on the first band that touches a neighbor anywhere on the grid.
    """
    evals, evecs = _torus_eigh(flux)
    return [_chern_on_torus(flux, j, evals, evecs) for j in range(flux.q)]


def _torus_eigh(flux: FluxRational):
    """Eigenpairs of the Bloch family on the full theta torus, max(24, 6q)
    points per angle."""
    _, H = _bloch_family(flux, max(24, 6 * flux.q), reduced=False)
    return np.linalg.eigh(H)


def _chern_on_torus(flux: FluxRational, band: int, evals, evecs) -> int:
    q = flux.q
    if band > 0 and np.min(evals[..., band] - evals[..., band - 1]) < GAP_TOL:
        raise HofstadterError(f"subband {band} touches band {band - 1}")
    if band + 1 < q and np.min(evals[..., band + 1] - evals[..., band]) < GAP_TOL:
        raise HofstadterError(f"subband {band} touches band {band + 1}")
    c = -chern_from_vectors(evecs[..., band]) / q
    ci = int(np.round(c))
    if abs(c - ci) > 1e-6:
        raise HofstadterError(f"Chern number not integral: {c}")
    return ci
