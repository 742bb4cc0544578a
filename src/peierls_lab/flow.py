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

Models and observables offer one method, grad_pair(k, r) -> (grad_k H,
grad_r H, fields), where fields is the BandFields record the gradients came
from, or None.  A model that holds the flow's band hands omega over in that
record, so each corrected right-hand side evaluates the band once.  The
structure and the models read B through EMFieldConfig.B, which for a
constant field is the stored matrix, not a copy broadcast to the points.
There is one right-hand side for every batch size; its contractions
(fields._vecmat) are one BLAS product where a matrix is shared by all points
and per-entry sums over the points otherwise, so a single trajectory pays a
fixed, small number of numpy calls per stage and large batches use no einsum.
Integration is classical RK4 with a fixed step; quantum.egorov_error probes
it by step halving, which keeps integrator error far below the second-order
comparisons the flows are used for.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import PeierlsError
from .fields import EMFieldConfig, _contract, _vecmat, antisymmetric

__all__ = [
    "FlowState",
    "Trajectory",
    "vector_field",
    "integrate",
    "compare_flows",
    "poisson_corrected",
    "AnalyticHamiltonian",
]


class FlowError(PeierlsError, RuntimeError):
    pass


@dataclass(frozen=True)
class FlowState:
    """Phase-space point; k and r are 1-d arrays of equal length."""

    k: np.ndarray
    r: np.ndarray
    t: float = 0.0

    @classmethod
    def of(cls, k, r, t: float = 0.0) -> "FlowState":
        return cls(k=np.atleast_1d(np.asarray(k, dtype=float)),
                   r=np.atleast_1d(np.asarray(r, dtype=float)), t=float(t))


@dataclass
class AnalyticHamiltonian:
    """Adapter for closed-form Hamiltonians used in tests and experiments:
    f is the value, fk and fr its k- and r-gradients."""

    f: object
    fk: object
    fr: object

    def value(self, k, r):
        return self.f(k, r)

    def grad_pair(self, k, r):
        return self.fk(k, r), self.fr(k, r), None


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


def _reduced(lamB, epsom):
    """I + eps lam B Omega for eps Omega given by its pair components epsom:
    a scalar field (...) in 2D, where B Omega = -B_12 Omega_12 I, else
    (..., d, d)."""
    d = lamB.shape[-1]
    if d == 2:
        return 1.0 - lamB[..., 0, 1] * epsom[..., 0]
    return np.eye(d) + lamB @ antisymmetric(epsom, d)


def _solve_structure(gk, gr, B, lam, omega=None, eps: float = 0.0):
    """(kdot, rdot) solving J (rdot, kdot) = (grad_r H, grad_k H) for
    J = [[lam B, -I], [I, eps Omega]], with B the field's B(r) (unused
    at lam = 0) and omega the pair components of Omega.

    The second row gives rdot = grad_k H - eps Omega kdot; the first then
    reads (I + eps lam B Omega) kdot = lam B grad_k H - grad_r H.  Without
    omega (or at eps = 0, or in 1D) that is the magnetic structure, det J = 1.
    """
    lamB = lam * B if lam != 0.0 else None
    kdot = -gr if lamB is None else _vecmat(gk, lamB.swapaxes(-1, -2)) - gr
    if omega is None or eps == 0.0 or not omega.shape[-1]:
        return kdot, gk
    d = gk.shape[-1]
    epsom = eps * omega
    if lamB is not None:
        red = _reduced(lamB, epsom)
        # det J = red^2 in 2D; count_nonzero is one call at any batch size
        det = red * red if d == 2 else np.linalg.det(red)
        if np.count_nonzero(abs(det) < 1e-10):
            raise FlowError("corrected structure matrix is degenerate")
        kdot = kdot / red[..., None] if d == 2 else \
            np.linalg.solve(red, kdot[..., None])[..., 0]
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
    B = field.B(r) if field.lam != 0.0 else None
    return _solve_structure(gk, gr, B, field.lam, omega, field.eps)


def structure_factor(k, r, field: EMFieldConfig, band):
    """sqrt(|det J|) of the corrected structure at field.eps;
    |1 - eps lam B_12 Omega_12| in 2D, 1 in 1D.  The result has the
    broadcast shape of the points k and r in every case."""
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    d = r.shape[-1]
    shape = np.broadcast_shapes(k.shape, r.shape)[:-1]
    if band is None or field.eps == 0.0 or field.lam == 0.0 or d == 1:
        return np.ones(shape)
    red = _reduced(field.lam * field.B(r), field.eps * band.at(k).om)
    sf = np.sqrt(np.abs(red * red if d == 2 else np.linalg.det(red)))
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
    k = np.array(k0, dtype=float)
    r = np.array(r0, dtype=float)
    ts = [0.0]
    ks = [k.copy()]
    rs = [r.copy()]
    for s in range(n_steps):
        dk1, dr1 = _rhs(k, r, model, field, band)
        dk2, dr2 = _rhs(k + 0.5 * dt * dk1, r + 0.5 * dt * dr1, model, field, band)
        dk3, dr3 = _rhs(k + 0.5 * dt * dk2, r + 0.5 * dt * dr2, model, field, band)
        dk4, dr4 = _rhs(k + dt * dk3, r + dt * dr3, model, field, band)
        k = k + dt / 6.0 * (dk1 + 2 * dk2 + 2 * dk3 + dk4)
        r = r + dt / 6.0 * (dr1 + 2 * dr2 + 2 * dr3 + dr4)
        if record:
            ts.append((s + 1) * dt)
            ks.append(k.copy())
            rs.append(r.copy())
    if not record:
        return k, r
    return np.asarray(ts), np.asarray(ks), np.asarray(rs)


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
        heff = EffectiveHamiltonian(band, fld)
        hsc = SemiclassicalHamiltonian(band, fld)
        # macro flow from (k0, r0); only the endpoints are compared
        k_sc, r_sc = _rk4_run(state0.k, state0.r, hsc, fld, band, t_final, dt,
                              record=False)
        # conjugated flow: T_eff o Phi_eff o T_eff^{-1}
        k_in, r_in = t_eff_inverse(state0.k, state0.r, band, fld)
        k_eff, r_eff = _rk4_run(k_in, r_in, heff, fld, None, t_final, dt, record=False)
        k_out, r_out = t_eff(k_eff, r_eff, band, fld)
        dist = max(np.abs(k_sc - k_out).max(), np.abs(r_sc - r_out).max())
        dists.append(dist)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    dists = np.asarray(dists)
    slope = float(np.polyfit(np.log(eps_arr), np.log(dists), 1)[0]) \
        if np.all(dists > 0) else np.inf
    return {"eps": eps_arr, "distance": dists, "slope": slope}


def poisson_corrected(f, g, k, r, field: EMFieldConfig, band):
    """Corrected Poisson bracket of two observables at sampled points.

    f and g offer grad_pair(k, r) like the models; band supplies omega(k)
    and field.eps its weight.  The bracket follows the flow orientation
    df/dt = {h, f}, i.e. {f, g} = -(grad f)^T J^{-1} grad g, so that
    {r_l, r_j} = -eps Omega_lj at leading order.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    omega = band.at(k).om if band is not None else None
    B = field.B(r) if field.lam != 0.0 else None
    fk, fr, _ = f.grad_pair(k, r)
    gk, gr, _ = g.grad_pair(k, r)
    # J^{-1} grad g is the vector field of g: (rdot, kdot)
    kdot, rdot = _solve_structure(gk, gr, B, field.lam, omega, field.eps)
    return -(_contract(fr, rdot) + _contract(fk, kdot))
