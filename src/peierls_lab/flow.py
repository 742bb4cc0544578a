"""Semiclassical equations of motion and their integration.

One right-hand side, vector_field(k, r, model, field, band=None), serves two
phase-space structures.  Without a band it is the magnetic one

    [[lam B(r), -I], [I, 0]] (rdot, kdot)^T = (grad_r H, grad_k H)^T;

with a band it is the curvature-corrected one, with eps Omega(k) in the
lower-right block at eps = field.eps.  Both are solved in closed form on the
reduced d x d system

    kdot = (I + eps lam B Omega)^{-1} (lam B grad_k H - grad_r H),
    rdot = grad_k H - eps Omega kdot,   det J = det(I + eps lam B Omega),

which for antisymmetric B and Omega in d <= 2 is a division by the scalar
1 + lam B_12 eps Omega_21 (one small batched solve for d >= 3).

Models and observables offer one method, grad_pair(k, r) -> (grad_k H,
grad_r H, fields), where fields is the BandFields record the gradients came
from, or None.  A model that holds the flow's band hands Omega over in that
record, so each corrected right-hand side evaluates the band once.  The
structure and the models read B through EMFieldConfig.B_at, which for a
constant field is the stored matrix, not a copy broadcast to the points.
There is one right-hand side for every batch size; its contractions
(fields._vecmat) are one BLAS product where a matrix is shared by all points
and per-entry sums over the points otherwise, so a single trajectory pays a
fixed, small number of numpy calls per stage and large batches use no einsum.
Integration is classical RK4 with a fixed step plus an optional step-halving
verification, which keeps integrator error far below the second-order
comparisons the flows are used for.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import EMFieldConfig, _contract, _vecmat

__all__ = [
    "FlowState",
    "Trajectory",
    "vector_field",
    "integrate",
    "compare_flows",
    "poisson_corrected",
    "AnalyticHamiltonian",
]


class FlowError(RuntimeError):
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


def _reduced(lamB, epsOm):
    """I + eps lam B Omega: a scalar field (...) for d <= 2, else (..., d, d).

    For antisymmetric B and Omega, B Omega is 0 in 1D and B_12 Omega_21 I in
    2D, so the matrix is 1 + lam B_12 eps Omega_21 times I.
    """
    d = lamB.shape[-1]
    if d <= 2:
        return 1.0 + lamB[..., 0, d - 1] * epsOm[..., d - 1, 0]
    return np.eye(d) + lamB @ epsOm


def _reduced_det(red, d):
    """det J = det(I + eps lam B Omega) from _reduced's output."""
    return red ** d if d <= 2 else np.linalg.det(red)


def _solve_structure(gk, gr, B, lam, omega=None, eps: float = 0.0):
    """(kdot, rdot) solving J (rdot, kdot) = (grad_r H, grad_k H) for
    J = [[lam B, -I], [I, eps Omega]], with B the field's B_at(r) (unused
    at lam = 0).

    The second row gives rdot = grad_k H - eps Omega kdot; the first then
    reads (I + eps lam B Omega) kdot = lam B grad_k H - grad_r H.  Without
    Omega (or at eps = 0) that is the magnetic structure, det J = 1.
    """
    lamB = lam * B if lam != 0.0 else None
    kdot = -gr if lamB is None else _vecmat(gk, lamB.swapaxes(-1, -2)) - gr
    if omega is None or eps == 0.0:
        return kdot, gk
    epsOm = eps * omega
    if lamB is not None:
        d = gk.shape[-1]
        red = _reduced(lamB, epsOm)
        if np.abs(_reduced_det(red, d)).min() < 1e-10:
            raise FlowError("corrected structure matrix is degenerate")
        kdot = kdot / red[..., None] if d <= 2 else \
            np.linalg.solve(red, kdot[..., None])[..., 0]
    return kdot, gk - _vecmat(kdot, epsOm.swapaxes(-1, -2))


def vector_field(k, r, model, field: EMFieldConfig, band=None):
    """(kdot, rdot) of model: the curvature-corrected structure at
    field.eps when band supplies Omega(k), the magnetic one otherwise
    (rdot = grad_k H, kdot = -grad_r H + lam B grad_k H).

    Raises FlowError where det J vanishes (see structure_factor for its
    square root as a diagnostic).
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    gk, gr, fields = model.grad_pair(k, r)
    omega = None
    if band is not None and field.eps != 0.0:
        # a model that holds the band already evaluated it at k
        omega = (fields if getattr(model, "band", None) is band else band.at(k)).Om
    B = field.B_at(r) if field.lam != 0.0 else None
    return _solve_structure(gk, gr, B, field.lam, omega, field.eps)


def structure_factor(k, r, field: EMFieldConfig, band):
    """sqrt(|det J|) of the corrected structure at field.eps;
    1 - eps lam B_12 Omega_12 in 2D."""
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    if band is None or field.eps == 0.0 or field.lam == 0.0:
        return np.ones(r.shape[:-1])
    red = _reduced(field.lam * field.B(r), field.eps * band.at(k).Om)
    return np.sqrt(np.abs(_reduced_det(red, r.shape[-1])))


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
              dt: float, band=None,
              halving_budget: float | None = 1e-8) -> Trajectory:
    """RK4 trajectory of vector_field with energy monitor: the corrected
    flow when band is given (its structure factor is then recorded in the
    diagnostics), the magnetic flow otherwise.

    With halving_budget set, the endpoint is re-computed at dt/2 and a
    FlowError is raised if the two disagree beyond the budget.
    """
    ts, ks, rs = _rk4_run(state0.k, state0.r, model, field, band, t_final, dt)
    if halving_budget is not None:
        k2, r2 = _rk4_run(state0.k, state0.r, model, field, band, t_final,
                          dt / 2, record=False)
        dev = max(np.abs(ks[-1] - k2).max(), np.abs(rs[-1] - r2).max())
        if dev > halving_budget:
            raise FlowError(
                f"step-halving disagreement {dev:.3e} exceeds budget "
                f"{halving_budget:.0e}; reduce dt")
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
        # macro flow from (k0, r0)
        traj_macro = integrate(state0, hsc, fld, t_final, dt, band=band,
                               halving_budget=None)
        # conjugated flow: T_eff o Phi_eff o T_eff^{-1}
        k_in, r_in = t_eff_inverse(state0.k, state0.r, band, fld)
        traj_eff = integrate(FlowState(k=k_in, r=r_in), heff, fld, t_final, dt,
                             halving_budget=None)
        k_out, r_out = t_eff(traj_eff.k[-1], traj_eff.r[-1], band, fld)
        dist = max(np.abs(traj_macro.k[-1] - k_out).max(),
                   np.abs(traj_macro.r[-1] - r_out).max())
        dists.append(dist)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    dists = np.asarray(dists)
    slope = float(np.polyfit(np.log(eps_arr), np.log(dists), 1)[0]) \
        if np.all(dists > 0) else np.inf
    return {"eps": eps_arr, "distance": dists, "slope": slope}


def poisson_corrected(f, g, k, r, field: EMFieldConfig, band):
    """Corrected Poisson bracket of two observables at sampled points.

    f and g offer grad_pair(k, r) like the models; band supplies Omega(k)
    and field.eps its weight.  The bracket follows the flow orientation
    df/dt = {h, f}, i.e. {f, g} = -(grad f)^T J^{-1} grad g, so that
    {r_l, r_j} = -eps Omega_lj at leading order.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    omega = band.at(k).Om if band is not None else None
    B = field.B_at(r) if field.lam != 0.0 else None
    fk, fr, _ = f.grad_pair(k, r)
    gk, gr, _ = g.grad_pair(k, r)
    # J^{-1} grad g is the vector field of g: (rdot, kdot)
    kdot, rdot = _solve_structure(gk, gr, B, field.lam, omega, field.eps)
    return -(_contract(fr, rdot, 1) + _contract(fk, kdot, 1))
