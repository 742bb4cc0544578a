"""Semiclassical equations of motion and their integration.

One right-hand side, vector_field(k, r, model, field, band=None), serves two
phase-space structures.  Without a band it is the magnetic one

    [[lam B(r), -I], [I, 0]] (rdot, kdot)^T = (grad_r H, grad_k H)^T;

with a band it is the curvature-corrected one, with eps Omega(k) in the
lower-right block at eps = field.eps.  Both are solved in closed form on the
reduced d x d system

    kdot = (I + eps lam B Omega)^{-1} (lam B grad_k H - grad_r H),
    rdot = grad_k H - eps Omega kdot,   det J = det(I + eps lam B Omega),

which for antisymmetric B and Omega is the identity in 1D, a division by the
scalar 1 - lam B_12 eps omega in 2D (omega = Omega_12, fields.pairs), and
one small batched solve on the full Omega for d >= 3.

Models and observables offer grad_pair(k, r) -> (grad_k H, grad_r H,
fields), fields the BandFields record the gradients came from (or None), so
a model that holds the flow's band hands omega over and a corrected
right-hand side evaluates the band once; lam B and its pair weights come
from EMFieldConfig.lam_terms, made once for a constant field.  Contractions
(fields._vecmat) are one BLAS product where a matrix is shared by all points
and per-entry sums otherwise: large batches use no einsum, and one point
costs a fixed number of numpy calls, about 28 us per corrected h_sc stage in
2D (1 BLAS thread, 2-vCPU VM), half of it the band's spline.  RK4 with a
fixed step advances one phase-space state y = (k, r) of shape (..., 2d) by
whole-state operations, each stage reading k and r as views of y;
quantum.egorov_error probes the step by halving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import PeierlsError
from .fields import EMFieldConfig, _vecmat, antisymmetric

__all__ = [
    "FlowState",
    "Trajectory",
    "vector_field",
    "integrate",
    "compare_flows",
    "loglog_slope",
]


class FlowError(PeierlsError, RuntimeError):
    pass


@dataclass(frozen=True)
class FlowState:
    """Phase-space point; k and r are 1-d arrays of equal length."""

    k: np.ndarray
    r: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if np.ndim(self.k) != 1 or np.shape(self.k) != np.shape(self.r):
            raise FlowError(f"k and r must be 1-d arrays of equal length, got shapes "
                            f"{np.shape(self.k)} and {np.shape(self.r)}")

    @classmethod
    def of(cls, k, r, t: float = 0.0) -> "FlowState":
        return cls(k=np.atleast_1d(np.asarray(k, dtype=float)),
                   r=np.atleast_1d(np.asarray(r, dtype=float)), t=float(t))


@dataclass
class Trajectory:
    times: np.ndarray
    k: np.ndarray          # (n_t, d)
    r: np.ndarray          # (n_t, d)
    energy: np.ndarray     # (n_t,)
    diagnostics: dict = dc_field(default_factory=dict)

    def energy_drift(self) -> float:
        return float(np.abs(self.energy - self.energy[0]).max())


_FLIP = np.array([1.0, -1.0])


def _reduced(terms, epsom):
    """I + eps lam B Omega for lam B given by its LamTerms and eps Omega by
    its pair components epsom: the scalar field as (..., 1) in 2D, where
    B Omega = -B_12 Omega_12 I, else (..., d, d)."""
    if terms.b12 is not None:
        return 1.0 - terms.b12 * epsom
    d = terms.lamB.shape[-1]
    return np.eye(d) + terms.lamB @ antisymmetric(epsom, d)


def _solve_structure(gk, gr, terms, omega=None, eps: float = 0.0):
    """(kdot, rdot) solving J (rdot, kdot) = (grad_r H, grad_k H) for
    J = [[lam B, -I], [I, eps Omega]], with terms the field's lam_terms(r)
    (None at lam = 0) and omega the pair components of Omega.

    The second row gives rdot = grad_k H - eps Omega kdot; the first then
    reads (I + eps lam B Omega) kdot = lam B grad_k H - grad_r H.  Without
    omega (or at eps = 0, or in 1D) that is the magnetic structure, det J = 1.
    """
    kdot = -gr if terms is None else _vecmat(gk, terms.lamB_T) - gr
    if omega is None or eps == 0.0 or not omega.shape[-1]:
        return kdot, gk
    d = gk.shape[-1]
    epsom = eps * omega
    if terms is not None:
        red = _reduced(terms, epsom)
        # det J = red^2 in 2D; count_nonzero is one call at any batch size
        det = red * red if d == 2 else abs(np.linalg.det(red))
        if np.count_nonzero(det < 1e-10):
            raise FlowError("corrected structure matrix is degenerate")
        kdot = kdot / red if d == 2 else np.linalg.solve(red, kdot[..., None])[..., 0]
    if d == 2:      # eps Omega kdot = eps omega (kdot_2, -kdot_1)
        return kdot, gk - epsom * kdot[..., ::-1] * _FLIP
    return kdot, gk + _vecmat(kdot, antisymmetric(epsom, d))


def vector_field(k, r, model, field: EMFieldConfig, band=None):
    """(kdot, rdot) of model: the curvature-corrected structure at
    field.eps when band supplies omega(k), the magnetic one otherwise
    (rdot = grad_k H, kdot = -grad_r H + lam B grad_k H).

    Raises FlowError where det J vanishes (see structure_factor for its
    square root as a diagnostic).
    """
    gk, gr, fields = model.grad_pair(k, r)
    omega = None
    if band is not None and field.eps != 0.0:
        # a model that holds the band already evaluated it at k
        omega = (fields if getattr(model, "band", None) is band else band.at(k)).om
    terms = field.lam_terms(r) if field.lam != 0.0 else None
    return _solve_structure(gk, gr, terms, omega, field.eps)


def structure_factor(k, r, field: EMFieldConfig, band):
    """sqrt(|det J|) of the corrected structure at field.eps;
    |1 - eps lam B_12 Omega_12| in 2D, 1 in 1D.  The result has the
    broadcast shape of the points k and r in every case."""
    d = np.shape(r)[-1]
    shape = np.broadcast_shapes(np.shape(k), np.shape(r))[:-1]
    if band is None or field.eps == 0.0 or field.lam == 0.0 or d == 1:
        return np.ones(shape)
    red = _reduced(field.lam_terms(r), field.eps * band.at(k).om)
    sf = np.sqrt(np.abs((red * red)[..., 0] if d == 2 else np.linalg.det(red)))
    # a constant B leaves red with the shape of k alone
    return np.broadcast_to(sf, shape).copy()


# _rk4_run's stage function, called k first; perfbench/tracing.py wraps it
# by this name and reads the point count from k
_rhs = vector_field


def _rk4_run(k0, r0, model, field, band, t_final, dt, record=True):
    if not (np.isfinite(dt) and dt > 0):
        raise FlowError(f"dt must be a positive finite number, got {dt!r}")
    if not (np.isfinite(t_final) and t_final >= 0):
        raise FlowError(f"t_final must be a finite number >= 0, got {t_final!r}")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-12 * max(1.0, abs(t_final)):
        n_steps += 1
        dt = t_final / n_steps
    # one phase-space state y = (k, r), shape (..., 2d); the step's scalars
    # are 0-d arrays, which numpy multiplies faster than floats, to the same bits
    d = np.shape(k0)[-1]
    y = np.concatenate(np.broadcast_arrays(k0, r0), axis=-1, dtype=float)
    ys = [y]
    dt, half, sixth, two = map(np.array, (dt, 0.5 * dt, dt / 6.0, 2.0))

    def stage(y):
        return np.concatenate(_rhs(y[..., :d], y[..., d:], model, field, band), axis=-1)
    for _ in range(n_steps):
        dy1 = stage(y)
        dy2 = stage(y + half * dy1)
        dy3 = stage(y + half * dy2)
        dy4 = stage(y + dt * dy3)
        y = y + sixth * (dy1 + two * dy2 + two * dy3 + dy4)
        if record:
            ys.append(y)
    if not record:
        return y[..., :d], y[..., d:]
    ys = np.asarray(ys)
    return np.arange(n_steps + 1) * dt, ys[..., :d], ys[..., d:]


def integrate(state0: FlowState, model, field: EMFieldConfig, t_final: float,
              dt: float, band=None) -> Trajectory:
    """RK4 trajectory of vector_field with energy monitor: the corrected
    flow when band is given (its structure factor is then recorded in the
    diagnostics), the magnetic flow otherwise."""
    ts, ks, rs = _rk4_run(state0.k, state0.r, model, field, band, t_final, dt)
    energy = np.asarray(model.value(ks, rs)).reshape(len(ts))
    diag = {"dt": dt, "n_steps": len(ts) - 1}
    if band is not None:
        diag["structure_factor"] = structure_factor(ks, rs, field, band)
    return Trajectory(times=ts, k=ks, r=rs, energy=energy, diagnostics=diag)


def compare_flows(state0: FlowState, band, field: EMFieldConfig, eps_list,
                  t_final: float, dt: float) -> dict:
    """Distance between the corrected flow of h_sc and the conjugated
    magnetic flow of h_eff per eps, with the log-log slope.

    Returns {"eps": ..., "distance": ..., "slope": ...}.
    """
    import dataclasses
    from .effective import (EffectiveHamiltonian, SemiclassicalHamiltonian,
                            t_eff, t_eff_inverse)
    dists = []
    for eps in eps_list:
        fld = dataclasses.replace(field, eps=float(eps))
        # macro flow from (k0, r0); only the endpoints are compared
        sc = _rk4_run(state0.k, state0.r, SemiclassicalHamiltonian(band, fld), fld, band,
                      t_final, dt, record=False)
        # conjugated flow: T_eff o Phi_eff o T_eff^{-1}
        k_in, r_in = t_eff_inverse(state0.k, state0.r, band, fld)
        k_eff, r_eff = _rk4_run(k_in, r_in, EffectiveHamiltonian(band, fld), fld, None,
                                t_final, dt, record=False)
        out = t_eff(k_eff, r_eff, band, fld)
        dists.append(max(np.abs(a - b).max() for a, b in zip(sc, out)))
    eps_arr, dists = np.asarray(list(eps_list), dtype=float), np.asarray(dists)
    return {"eps": eps_arr, "distance": dists, "slope": loglog_slope(eps_arr, dists)}


def loglog_slope(eps, values) -> float:
    """Least-squares slope of log values against log eps: nan for fewer than
    two points, which fix no slope, and inf where a value is 0."""
    if len(eps) < 2:
        return float("nan")
    if np.any(np.asarray(values) == 0):
        return float("inf")
    return float(np.polyfit(np.log(eps), np.log(values), 1)[0])
