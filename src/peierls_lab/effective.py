"""First-order Peierls effective Hamiltonian and the effective-variable map.

For a single isolated band the effective symbol reads

    h = h0 + eps h1,
    h0(k, r) = E(k) + phi(r),
    h1(k, r) = -F_l(k, r) A_l(k) - lam B_lj(r) M_lj(k),
    F_l = -d_l phi(r) + lam B_lj(r) d_j E(k),

with A the Berry connection and M the Rammal-Wilkinson tensor.  The
effective-variable map and the semiclassical Hamiltonian

    k_eff = k + eps lam B(r) A(k),   r_eff = r + eps A(k),
    h_sc(k, r) = E(k) + phi(r) - eps lam B(r) . M(k)

reproduce h (composed with the inverse map) up to second order, which the
test suite measures as a convergence rate.  All band quantities are held by
one stacked periodic spline in the zone coefficients, built from their FFT
spectra in one pass, so dual-lattice periodicity is exact: the channels
[E, dE, A, m, omega], 1 + 2d + d(d-1) of them, with the 2-forms M and Omega
stored by their pair components m and omega (fields.pairs).  BandData.at
evaluates them for a batch of k as one BandFields record, values and
k-derivatives together.  EffectiveHamiltonian and SemiclassicalHamiltonian
offer value(k, r) and the flow protocol grad_pair(k, r) -> (grad_k h,
grad_r h, fields), contracting B with the components, B:M = sum_p 2 B_p m_p,
so no full M is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import PeierlsError
from .fields import (EMFieldConfig, _contract, _vecmat, pair_weights, pairs,
                     wedge)
from .geometry import GeometricTensors
from .interp import PeriodicSpline
from .lattice import Lattice

__all__ = [
    "BandData",
    "BandFields",
    "EffectiveHamiltonian",
    "SemiclassicalHamiltonian",
    "t_eff",
    "t_eff_inverse",
]


class EffectiveError(PeierlsError, ValueError):
    pass


# Largest symmetric part of M and Omega samples, relative to their largest
# entry or 1, that BandData drops (geometric_tensors' M: below 5e-16).
ANTISYMMETRY_TOL = 1e-9


class _Field:
    """A BandFields field: a basic index into the record's block, made when
    first read and kept in the record's __dict__, where later reads find it."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        view = rec.__dict__[self.name] = rec._block[rec._layout[self.name]]
        return view


class BandFields:
    """Band fields at a batch of points k (..., d), derivatives in Cartesian k.

    A field is made when first read, as a plain view into the batch's one
    spline block (..., [E, dE, A, m, omega], [value, d/dk]); a caller that
    reads three fields pays for three.  Copy before writing.  The 2-forms
    come as their pair components p = (l < j) (fields.pairs).
    """

    E = _Field()                        # (...)
    A = _Field()                        # (..., l)       Berry connection
    m = _Field()                        # (..., p)       Rammal-Wilkinson M_lj
    om = _Field()                       # (..., p)       Berry curvature Omega_lj
    dE = _Field()                       # (..., n)
    hessE = _Field()                    # (..., q, n)    d dE_q / d k_n
    dA = _Field()                       # (..., l, n)    d A_l / d k_n
    dm = _Field()                       # (..., p, n)    d m_p / d k_n

    def __init__(self, block, layout):
        self._block, self._layout = block, layout


@dataclass
class BandData:
    """Periodic band quantities of one isolated band with one evaluator.

    Samples live on the band's (cell-centered) k-grid; evaluation happens in
    zone coefficients alpha = k . dual^{-1}, so any Bravais lattice works.
    All fields are held by one stacked PeriodicSpline with field axis
    [E, dE/dk_1..d, A_l, m_p, omega_p] on a grid `upsample` times finer
    (m, omega: the pair components of the M and Omega samples, refused when
    not antisymmetric to ANTISYMMETRY_TOL), built from one FFT of the
    samples: their spectrum, zero-padded to the fine grid (dE's is E's times
    2 pi i P), goes straight into the spline's coefficients, so no fine-grid
    values are formed.  `at` evaluates the fields for Cartesian k of shape
    (..., d) (bare floats in 1D).
    """

    lattice: Lattice
    shape: tuple
    energy_samples: np.ndarray
    connection_samples: np.ndarray      # (grid..., d)
    rw_samples: np.ndarray              # (grid..., d, d)
    curvature_samples: np.ndarray       # (grid..., d, d)
    upsample: int = 8

    def __post_init__(self):
        d, shape = self.lattice.dim, tuple(self.shape)
        n_f = tuple(self.upsample * n for n in shape)
        forms = []
        for name in ("rw_samples", "curvature_samples"):
            T = np.reshape(getattr(self, name), shape + (d, d))
            skew = 0.5 * (T - np.swapaxes(T, -1, -2))
            if np.abs(T - skew).max() > ANTISYMMETRY_TOL * max(1.0, np.abs(T).max()):
                raise EffectiveError(f"{name} are not antisymmetric to {ANTISYMMETRY_TOL:g}")
            forms.append(pairs(skew))
        samples = np.concatenate(
            [np.reshape(self.energy_samples, shape + (1,)),
             np.reshape(self.connection_samples, shape + (d,))] + forms, axis=-1)
        # the fine grid's spectrum of the trigonometric interpolant of the
        # cell-centered samples: the frequencies |P| <= (n - 1) // 2 of each
        # axis (an even axis drops its Nyquist term), scaled by n_f / n and
        # moved half a coarse cell, exp(-i pi P / n)
        c = np.fft.rfftn(samples, axes=tuple(range(d))) * (np.prod(n_f) / np.prod(shape))
        P = []
        for ax, n in enumerate(shape):
            h = (n - 1) // 2
            keep = np.arange(h + 1) if ax == d - 1 else np.r_[0:h + 1, -h:0]
            P.append(keep.reshape([-1 if a == ax else 1 for a in range(d)] + [1]))
            c = np.take(c, keep, axis=ax) * np.exp(-1j * np.pi * P[-1] / n)
        # dE/dk = dE/dalpha @ to_cart_T, since alpha = k . dual^{-1}: the dE
        # spectra are E's times 2 pi i P @ to_cart_T, so the dE fields are
        # exact derivatives of the fine E values and value/gradient pairs are
        # Hamiltonian-consistent (flows conserve the interpolated energy to
        # integrator accuracy); their own spline derivatives give the Hessian
        to_cart_T = self.lattice.basis / (2 * np.pi)
        ddk = 2j * np.pi * sum(P[ax] * to_cart_T[ax] for ax in range(d))
        # each BandFields field: its fields and columns of the block
        # (..., [E, dE/dk, A, m, omega], [value, d/dk_1..d])
        e, a, m = 1 + d, 1 + 2 * d, 1 + 2 * d + d * (d - 1) // 2
        val, grad = 0, slice(1, None)
        self._layout = {
            "E": (..., 0, val), "A": (..., slice(e, a), val), "m": (..., slice(a, m), val),
            "om": (..., slice(m, None), val), "dE": (..., 0, grad),
            "hessE": (..., slice(1, e), grad), "dA": (..., slice(e, a), grad),
            "dm": (..., slice(a, m), grad)}
        # fine node i sits at k = (i / n_f - 1/2) @ dual: the spline takes
        # Cartesian k and returns Cartesian k-derivatives
        dual = self.lattice.dual
        self._spline = PeriodicSpline.from_spectrum(
            np.concatenate([c[..., :1], c[..., :1] * ddk, c[..., 1:]], axis=-1),
            n_f, -0.5 * dual.sum(0), dual / np.array(n_f)[:, None])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_geometry(cls, geom: GeometricTensors) -> "BandData":
        bands = geom.frame.bands
        grid = bands.kgrid
        E = grid.reshape(bands.energies[geom.frame.band])
        return cls(lattice=grid.lattice, shape=grid.shape,
                   energy_samples=E, connection_samples=geom.connection,
                   rw_samples=geom.rw, curvature_samples=geom.curvature)

    # -- evaluation -----------------------------------------------------

    def at(self, k) -> BandFields:
        """Band fields at Cartesian k (..., d): the values E, A, m, om and
        the derivatives dE, hessE, dA, dm, all from one spline evaluation."""
        k = _as_points(k, self.lattice.dim)
        block = self._spline(k.reshape(-1, k.shape[-1]))
        return BandFields(block.reshape(k.shape[:-1] + block.shape[1:]).swapaxes(-1, -2),
                          self._layout)


def _as_points(v, d):
    v = np.asarray(v, dtype=float)
    if d == 1 and (v.ndim == 0 or v.shape[-1] != 1):
        v = v[..., None]
    return v


def _coupling(b: BandFields) -> np.ndarray:
    """Pair components of the antisymmetric part of W = A dE^T + M, the
    tensor B meets in h1: B:W = sum_p 2 B_p w_p."""
    return b.m + 0.5 * wedge(b.A, b.dE)


@dataclass(frozen=True)
class _BandModel:
    band: BandData
    field: EMFieldConfig

    @property
    def dim(self) -> int:
        return self.band.lattice.dim


@dataclass(frozen=True)
class EffectiveHamiltonian(_BandModel):
    """h = h0 + eps h1 for a single isolated band in an external field."""

    def _h1(self, b: BandFields, r) -> np.ndarray:
        # -F.A - lam B:M = d phi.A - lam B:(A dE^T + M): each term pairs an
        # r-field with a k-field, so they meet only in _contract's products
        out = _contract(self.field.grad_phi(r), b.A)
        if self.field.lam != 0.0:
            out = out - self.field.lam * _contract(pair_weights(self.field.B(r)), _coupling(b))
        return out

    def value(self, k, r) -> np.ndarray:
        """h at momenta k (..., d) and positions r (..., d).

        The leading shapes of k and r need only broadcast against each other:
        band fields are evaluated at the points of k, field terms at those of
        r, and the result has the broadcast shape (see weyl.phase_points).
        """
        r = _as_points(r, self.dim)
        b = self.band.at(k)
        return b.E + self.field.phi(r) + self.field.eps * self._h1(b, r)

    def grad_pair(self, k, r):
        """(grad_k h, grad_r h, fields): the gradients and the BandFields
        record at k they were computed from (one band evaluation per batch;
        flows read omega from it).  The gradients broadcast to the batch of
        (k, r); a term of k alone, as in a constant field, keeps the shape
        of k."""
        r = _as_points(r, self.dim)
        fld = self.field
        eps, lam = fld.eps, fld.lam
        b = self.band.at(k)
        if eps == 0.0:
            return b.dE, fld.grad_phi(r), b
        gphi, hphi = fld.grad_hess_phi(r)
        # with the Lorentz force F = -grad phi + lam B dE,
        # d_{k_n} h1 = -F_l d_n A_l - (d_n F_l) A_l - lam B_lj d_n M_lj,
        #   where (d_n F_l) A_l = lam (A B)_j d_j d_n E;
        # d_{r_n} h1 = (d_n d_l phi) A_l - lam (d_n B_lj)(A_l d_j E + M_lj)
        F = -gphi
        term_r = _vecmat(b.A, hphi)
        if lam != 0.0:
            t = fld.lam_terms(r)
            F = F + _vecmat(b.dE, t.lamB_T)
            term_k = -(_vecmat(F, b.dA) + _vecmat(_vecmat(b.A, t.lamB), b.hessE)
                       + _vecmat(t.weights, b.dm))
            if callable(fld.bfield):
                term_r = term_r - lam * _vecmat(_coupling(b), pair_weights(fld.dB(r), 1))
        else:
            term_k = -_vecmat(F, b.dA)
        return b.dE + eps * term_k, gphi + eps * term_r, b


@dataclass(frozen=True)
class SemiclassicalHamiltonian(_BandModel):
    """h_sc(k, r) = E(k) + phi(r) - eps lam B(r) . M(k) on effective variables."""

    def value(self, k, r) -> np.ndarray:
        """h_sc at momenta k (..., d) and positions r (..., d) whose leading
        shapes broadcast against each other; the result has the broadcast
        shape."""
        r = _as_points(r, self.dim)
        b = self.band.at(k)
        out = b.E + self.field.phi(r)
        eps, lam = self.field.eps, self.field.lam
        if eps != 0.0 and lam != 0.0:
            out = out - eps * lam * _contract(pair_weights(self.field.B(r)), b.m)
        return out

    def grad_pair(self, k, r):
        """(grad_k h_sc, grad_r h_sc, fields): the gradients and the
        BandFields record at k they were computed from (one band evaluation
        per batch); shapes as for EffectiveHamiltonian.grad_pair."""
        r = _as_points(r, self.dim)
        fld = self.field
        eps, lam = fld.eps, fld.lam
        b = self.band.at(k)
        gk, gr = b.dE, fld.grad_phi(r)
        if eps != 0.0 and lam != 0.0:
            # grad_k (B : M) = B_lj d_n M_lj, grad_r (B : M) = d_n B_lj M_lj
            gk = gk - _vecmat(fld.lam_terms(r).eps_weights, b.dm)
            if callable(fld.bfield):
                gr = gr - (eps * lam) * _vecmat(b.m, pair_weights(fld.dB(r), 1))
        return gk, gr, b


def t_eff(k, r, band: BandData, field: EMFieldConfig):
    """First-order effective-variable map (k, r) -> (k_eff, r_eff); k_eff
    keeps the shape of k unless B depends on r, as at lam = 0."""
    d = band.lattice.dim
    k, r = _as_points(k, d), _as_points(r, d)
    eps, lam = field.eps, field.lam
    A = band.at(k).A
    k_eff = k.copy()
    if lam != 0.0:
        k_eff = k + eps * lam * _vecmat(A, field.B(r).swapaxes(-1, -2))
    r_eff = r + eps * A
    return k_eff, r_eff


T_EFF_INVERSE_TOL = 1e-12      # fixed-point step size at which t_eff_inverse stops
T_EFF_INVERSE_MAX_ITER = 50


def t_eff_inverse(k_eff, r_eff, band: BandData, field: EMFieldConfig):
    """Invert the effective-variable map by fixed-point iteration."""
    d = band.lattice.dim
    k_eff, r_eff = _as_points(k_eff, d), _as_points(r_eff, d)
    k, r = k_eff.copy(), r_eff.copy()
    for _ in range(T_EFF_INVERSE_MAX_ITER):
        k2, r2 = t_eff(k, r, band, field)
        dk, dr = k_eff - k2, r_eff - r2
        k, r = k + dk, r + dr
        if max(np.abs(dk).max(), np.abs(dr).max()) < T_EFF_INVERSE_TOL:
            return k, r
    raise EffectiveError("effective-map inversion did not converge; eps too large")
