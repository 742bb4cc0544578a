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
test suite measures as a convergence rate.  All band quantities are
FFT-upsampled in the zone coefficients and held by one stacked periodic
spline, so dual-lattice periodicity is exact; BandData.at returns them for a
batch of k as one BandFields record, with the k-derivatives a caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import EMFieldConfig, _contract, _vecmat
from .geometry import GeometricTensors
from .interp import PeriodicSpline, fourier_coeffs_centered
from .lattice import KGrid, Lattice
from .weyl import GridSymbol, PhaseSpaceGrid, sample_broadcast

__all__ = [
    "BandData",
    "BandFields",
    "EffectiveHamiltonian",
    "SemiclassicalHamiltonian",
    "t_eff",
    "t_eff_inverse",
    "effective_observable",
]


class EffectiveError(ValueError):
    pass


def _upsampled(samples: np.ndarray, factor: int) -> np.ndarray:
    """Fine-grid values (zero-anchored at -1/2) from cell-centered samples."""
    c = fourier_coeffs_centered(samples)
    fine_shape = tuple(factor * n for n in samples.shape)
    out = np.zeros(fine_shape, dtype=complex)
    idx = []
    for n_old, n_new in zip(samples.shape, fine_shape):
        half = (n_old - 1) // 2
        idx.append(np.r_[0:half + 1, n_new - half:n_new])
    src = []
    for n_old in samples.shape:
        half = (n_old - 1) // 2
        src.append(np.r_[0:half + 1, n_old - half:n_old])
    out[np.ix_(*idx)] = c[np.ix_(*src)]
    # evaluate sum c_P e^{2 pi i P alpha} on alpha_m = -1/2 + m/n_fine
    for ax, n_new in enumerate(fine_shape):
        P = np.fft.fftfreq(n_new, d=1.0 / n_new).astype(int)
        sh = [1] * len(fine_shape)
        sh[ax] = n_new
        out = out * np.exp(2j * np.pi * P * (-0.5)).reshape(sh)
    return np.fft.ifftn(out).real * np.prod(fine_shape)


@dataclass(frozen=True)
class BandFields:
    """Band fields at a batch of points k (..., d), derivatives in Cartesian k.

    The gradient fields are None unless BandData.at was asked for them.  The
    arrays are views into one spline evaluation block; copy before writing.
    """

    E: np.ndarray                       # (...)
    A: np.ndarray                       # (..., l)       Berry connection
    M: np.ndarray                       # (..., l, j)    Rammal-Wilkinson tensor
    Om: np.ndarray                      # (..., l, j)    Berry curvature
    dE: np.ndarray | None = None        # (..., m)
    hessE: np.ndarray | None = None     # (..., m, n)
    dA: np.ndarray | None = None        # (..., l, m)    d A_l / d k_m
    dM: np.ndarray | None = None        # (..., l, j, m) d M_lj / d k_m


@dataclass
class BandData:
    """Periodic band quantities of one isolated band with one evaluator.

    Samples live on the band's (cell-centered) k-grid; evaluation happens in
    zone coefficients alpha = k . dual^{-1}, so any Bravais lattice works.
    All fields are FFT-upsampled and held by one stacked PeriodicSpline with
    field axis [E, dE/dk_1..d, A_l, M_lj, Omega_lj]; `at` evaluates them
    for Cartesian k of shape (..., d) (bare floats in 1D).
    """

    lattice: Lattice
    shape: tuple
    energy_samples: np.ndarray
    connection_samples: np.ndarray      # (grid..., d)
    rw_samples: np.ndarray              # (grid..., d, d)
    curvature_samples: np.ndarray       # (grid..., d, d)
    upsample: int = 8

    def __post_init__(self):
        d = self.lattice.dim
        # grad_k f = grad_alpha f @ to_cart_T, since alpha = k . dual^{-1}
        to_cart_T = self.lattice.basis / (2 * np.pi)
        n_f = tuple(self.upsample * n for n in self.shape)
        geo = np.concatenate([self.connection_samples.reshape(self.shape + (d,)),
                              self.rw_samples.reshape(self.shape + (d * d,)),
                              self.curvature_samples.reshape(self.shape + (d * d,))],
                             axis=-1)
        fields = np.empty(n_f + (1 + d + geo.shape[-1],))
        E_f = _upsampled(self.energy_samples, self.upsample)
        fields[..., 0] = E_f
        # the dE/dk fields are exact derivatives of the fine E values, so
        # value/gradient pairs are Hamiltonian-consistent (flows conserve the
        # interpolated energy to integrator accuracy); their own spline
        # derivatives give the Hessian
        F = np.fft.fftn(E_f)
        dE_alpha = np.empty(n_f + (d,))
        for ax, n in enumerate(n_f):
            P = np.fft.fftfreq(n, d=1.0 / n)
            sh = [1] * d
            sh[ax] = n
            dE_alpha[..., ax] = np.fft.ifftn(F * (2j * np.pi * P).reshape(sh)).real
        fields[..., 1:1 + d] = dE_alpha @ to_cart_T
        for f in range(geo.shape[-1]):
            fields[..., 1 + d + f] = _upsampled(geo[..., f], self.upsample)
        # fine node i sits at k = (i / n_f - 1/2) @ dual: the spline takes
        # Cartesian k and returns Cartesian k-derivatives
        dual = self.lattice.dual
        self._spline = PeriodicSpline(fields, -0.5 * dual.sum(0),
                                      dual / np.array(n_f)[:, None])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_geometry(cls, geom: GeometricTensors, upsample: int = 8) -> "BandData":
        bands = geom.frame.bands
        grid = bands.kgrid
        if not grid.centered:
            raise EffectiveError("band data requires a cell-centered k-grid")
        E = grid.reshape(bands.energies[geom.frame.band])
        return cls(lattice=grid.lattice, shape=grid.shape,
                   energy_samples=E, connection_samples=geom.connection,
                   rw_samples=geom.rw, curvature_samples=geom.curvature,
                   upsample=upsample)

    @classmethod
    def synthetic(cls, lattice: Lattice, shape, energy, connection=None,
                  rw=None, curvature=None, upsample: int = 8) -> "BandData":
        """Build from callables of k evaluated on a cell-centered grid."""
        from .lattice import make_kgrid
        grid = make_kgrid(lattice, shape)
        d = lattice.dim
        k = grid.points
        E = grid.reshape(np.asarray(energy(k), dtype=float))
        A = grid.reshape(np.asarray(connection(k), dtype=float)) if connection \
            else np.zeros(grid.shape + (d,))
        M = grid.reshape(np.asarray(rw(k), dtype=float)) if rw \
            else np.zeros(grid.shape + (d, d))
        Om = grid.reshape(np.asarray(curvature(k), dtype=float)) if curvature \
            else np.zeros(grid.shape + (d, d))
        return cls(lattice=lattice, shape=grid.shape, energy_samples=E,
                   connection_samples=A, rw_samples=M, curvature_samples=Om,
                   upsample=upsample)

    # -- evaluation -----------------------------------------------------

    def at(self, k, grad: str = "none") -> BandFields:
        """Band fields at Cartesian k (..., d).

        grad selects the derivatives returned: "none"; "energy" for dE;
        "all" for dE, hessE, dA and dM (what the gradient of h needs).
        """
        if grad not in ("none", "energy", "all"):
            raise EffectiveError(f"grad must be 'none', 'energy' or 'all', not {grad!r}")
        d = self.lattice.dim
        k = _as_points(k, d)
        lead = k.shape[:-1]
        out = self._spline(k.reshape(-1, d))            # (P, 1 + d, F)
        v = out[:, 0]
        rec = {"E": v[:, 0].reshape(lead),
               "A": v[:, 1 + d:1 + 2 * d].reshape(lead + (d,)),
               "M": v[:, 1 + 2 * d:1 + 2 * d + d * d].reshape(lead + (d, d)),
               "Om": v[:, 1 + 2 * d + d * d:].reshape(lead + (d, d))}
        if grad == "none":
            return BandFields(**rec)
        rec["dE"] = out[:, 1:, 0].reshape(lead + (d,))
        if grad == "all":
            # g[p, f, m] = d field_f / d k_m, a view
            g = out[:, 1:].transpose(0, 2, 1)
            rec["hessE"] = g[:, 1:1 + d].reshape(lead + (d, d))
            rec["dA"] = g[:, 1 + d:1 + 2 * d].reshape(lead + (d, d))
            rec["dM"] = g[:, 1 + 2 * d:1 + 2 * d + d * d].reshape(lead + (d, d, d))
        return BandFields(**rec)


def _flat2(a, trailing: int = 0) -> np.ndarray:
    """a (..., l, j, *t) with its (l, j) axes merged, for t the `trailing`
    axes: B_lj X_lj... contractions become vector-matrix products."""
    cut = a.ndim - trailing
    return a.reshape(a.shape[:cut - 2] + (-1,) + a.shape[cut:])


def _as_points(v, d):
    v = np.asarray(v, dtype=float)
    if d == 1 and (v.ndim == 0 or v.shape[-1] != 1):
        v = v[..., None]
    return v


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """h = h0 + eps h1 for a single isolated band in an external field."""

    band: BandData
    field: EMFieldConfig

    @property
    def dim(self) -> int:
        return self.band.lattice.dim

    def _h1(self, b: BandFields, r) -> np.ndarray:
        # -F.A - lam B:M = d phi.A - lam B:(A dE^T + M): each term pairs an
        # r-field with a k-field, so they meet only in _contract's products
        out = _contract(self.field.grad_phi(r), b.A, 1)
        if self.field.lam != 0.0:
            W = b.A[..., :, None] * b.dE[..., None, :] + b.M
            out = out - self.field.lam * _contract(self.field.B(r), W, 2)
        return out

    def _value_fields(self, k) -> BandFields:
        # the Lorentz force needs dE only in a magnetic field
        return self.band.at(k, "energy" if self.field.lam != 0.0 else "none")

    def h0(self, k, r) -> np.ndarray:
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        return self.band.at(k).E + self.field.phi(r)

    def h1(self, k, r) -> np.ndarray:
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        return self._h1(self._value_fields(k), r)

    def value(self, k, r) -> np.ndarray:
        """h at momenta k (..., d) and positions r (..., d).

        The leading shapes of k and r need only broadcast against each other:
        band fields are evaluated at the points of k, field terms at those of
        r, and the result has the broadcast shape (see weyl.phase_points).
        """
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        b = self._value_fields(k)
        return b.E + self.field.phi(r) + self.field.eps * self._h1(b, r)

    def grad_pair(self, k, r):
        """(grad_k h, grad_r h, fields): the gradients and the BandFields
        record at k they were computed from (one band evaluation per batch;
        flows read Omega from it).  The gradients broadcast to the batch of
        (k, r); a term of k alone, as in a constant field, keeps the shape
        of k."""
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        fld = self.field
        eps, lam = fld.eps, fld.lam
        b = self.band.at(k, "all" if eps != 0.0 else "energy")
        gphi = fld.grad_phi(r)
        if eps == 0.0:
            return b.dE, gphi, b
        # with the Lorentz force F = -grad phi + lam B dE,
        # d_{k_m} h1 = -F_l d_m A_l - (d_m F_l) A_l - lam B_lj d_m M_lj,
        #   where (d_m F_l) A_l = lam (A B)_j d_j d_m E;
        # d_{r_m} h1 = (d_m d_l phi) A_l - lam (d_m B_lj)(A_l d_j E + M_lj)
        F = -gphi
        term_r = _vecmat(b.A, fld.hess_phi(r))
        if lam != 0.0:
            lamB = lam * fld.B_at(r)
            F = F + _vecmat(b.dE, lamB.swapaxes(-1, -2))
            term_k = -(_vecmat(F, b.dA) + _vecmat(_vecmat(b.A, lamB), b.hessE)
                       + _vecmat(_flat2(lamB), _flat2(b.dM, 1)))
            if fld.dbfield is not None:
                W = b.A[..., :, None] * b.dE[..., None, :] + b.M
                term_r = term_r - lam * _vecmat(_flat2(W), _flat2(fld.dB(r), 1))
        else:
            term_k = -_vecmat(F, b.dA)
        return b.dE + eps * term_k, gphi + eps * term_r, b


@dataclass(frozen=True)
class SemiclassicalHamiltonian:
    """h_sc(k, r) = E(k) + phi(r) - eps lam B(r) . M(k) on effective variables."""

    band: BandData
    field: EMFieldConfig

    @property
    def dim(self) -> int:
        return self.band.lattice.dim

    def value(self, k, r) -> np.ndarray:
        """h_sc at momenta k (..., d) and positions r (..., d) whose leading
        shapes broadcast against each other; the result has the broadcast
        shape."""
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        b = self.band.at(k)
        out = b.E + self.field.phi(r)
        eps, lam = self.field.eps, self.field.lam
        if eps != 0.0 and lam != 0.0:
            out = out - eps * lam * _contract(self.field.B(r), b.M, 2)
        return out

    def grad_pair(self, k, r):
        """(grad_k h_sc, grad_r h_sc, fields): the gradients and the
        BandFields record at k they were computed from (one band evaluation
        per batch); shapes as for EffectiveHamiltonian.grad_pair."""
        k, r = _as_points(k, self.dim), _as_points(r, self.dim)
        fld = self.field
        eps, lam = fld.eps, fld.lam
        coupled = eps != 0.0 and lam != 0.0
        b = self.band.at(k, "all" if coupled else "energy")
        gk = b.dE
        gr = fld.grad_phi(r)
        if coupled:
            # grad_k (B : M) = B_lj d_m M_lj, grad_r (B : M) = d_m B_lj M_lj
            elB = (eps * lam) * fld.B_at(r)
            gk = gk - _vecmat(_flat2(elB), _flat2(b.dM, 1))
            if fld.dbfield is not None:
                gr = gr - (eps * lam) * _vecmat(_flat2(b.M), _flat2(fld.dB(r), 1))
        return gk, gr, b


def t_eff(k, r, band: BandData, field: EMFieldConfig):
    """First-order effective-variable map (k, r) -> (k_eff, r_eff)."""
    d = band.lattice.dim
    k = _as_points(k, d)
    r = _as_points(r, d)
    eps, lam = field.eps, field.lam
    A = band.at(k).A
    k_eff = k.copy()
    if lam != 0.0:
        k_eff = k + eps * lam * _vecmat(A, field.B(r).swapaxes(-1, -2))
    r_eff = r + eps * A
    return k_eff, r_eff


def t_eff_inverse(k_eff, r_eff, band: BandData, field: EMFieldConfig,
                  tol: float = 1e-12, max_iter: int = 50):
    """Invert the effective-variable map by fixed-point iteration."""
    d = band.lattice.dim
    k_eff = _as_points(k_eff, d)
    r_eff = _as_points(r_eff, d)
    k, r = k_eff.copy(), r_eff.copy()
    for _ in range(max_iter):
        k2, r2 = t_eff(k, r, band, field)
        dk = k_eff - k2
        dr = r_eff - r2
        k = k + dk
        r = r + dr
        if max(np.abs(dk).max(), np.abs(dr).max()) < tol:
            return k, r
    raise EffectiveError("effective-map inversion did not converge; eps too large")


def effective_observable(func, grid: PhaseSpaceGrid, band: BandData,
                         field: EMFieldConfig, check_periodic: bool = True) -> GridSymbol:
    """Samples of f o T_eff on a phase-space grid.

    func(k, r) takes (..., d) arrays (momentum first) whose leading shapes
    broadcast; it must be periodic in k under dual-lattice shifts, which is
    verified on a sample unless check_periodic is disabled.
    """
    d = grid.dim
    if check_periodic:
        rng = np.random.default_rng(0)
        kp = rng.normal(size=(16, d))
        rp = rng.normal(size=(16, d))
        g = band.lattice.dual[0]
        dev = np.abs(np.asarray(func(kp + g, rp)) - np.asarray(func(kp, rp))).max()
        if dev > 1e-8:
            raise EffectiveError("observable is not periodic in k under dual shifts")
    return sample_broadcast(lambda k, r: func(*t_eff(k, r, band, field)), grid)
