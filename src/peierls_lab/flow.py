"""Semiclassical equations of motion and their integration.

Two phase-space structures appear: the magnetic one

    [[lam B(r), -I], [I, 0]] (rdot, kdot)^T = (grad_r H, grad_k H)^T

and the curvature-corrected one with eps Omega(k) in the lower-right block.
Both are realized as batched linear solves (the structure matrices are tiny).
Integration is classical RK4 with a fixed step plus an optional step-halving
verification, which keeps integrator error far below the second-order
comparisons the flows are used for.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import EMFieldConfig

__all__ = [
    "FlowState",
    "Trajectory",
    "vector_field_magnetic",
    "vector_field_corrected",
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
    """Adapter for closed-form Hamiltonians used in tests and experiments."""

    f: object
    fk: object
    fr: object

    def value(self, k, r):
        return self.f(k, r)

    def grad_k(self, k, r):
        return self.fk(k, r)

    def grad_r(self, k, r):
        return self.fr(k, r)


@dataclass
class Trajectory:
    times: np.ndarray
    k: np.ndarray          # (n_t, d)
    r: np.ndarray          # (n_t, d)
    energy: np.ndarray     # (n_t,)
    diagnostics: dict = dc_field(default_factory=dict)

    def energy_drift(self) -> float:
        return float(np.abs(self.energy - self.energy[0]).max())

    def final(self) -> FlowState:
        return FlowState(k=self.k[-1], r=self.r[-1], t=float(self.times[-1]))


def _structure_matrix(r, field: EMFieldConfig, omega=None, eps: float = 0.0):
    """J = [[lam B(r), -I], [I, eps Omega]] batched over leading axes of r."""
    r = np.asarray(r, dtype=float)
    d = r.shape[-1]
    lead = r.shape[:-1]
    J = np.zeros(lead + (2 * d, 2 * d))
    J[..., :d, :d] = field.lam * field.B(r)
    eye = np.eye(d)
    J[..., :d, d:] = -eye
    J[..., d:, :d] = eye
    if omega is not None and eps != 0.0:
        J[..., d:, d:] = eps * omega
    return J


def _model_grads(model, k, r):
    if hasattr(model, "grad_pair"):
        return model.grad_pair(k, r)
    return model.grad_k(k, r), model.grad_r(k, r)


def vector_field_magnetic(k, r, model, field: EMFieldConfig):
    """(kdot, rdot) under the magnetic symplectic structure.

    Solves the 2d x 2d system; equals rdot = grad_k H,
    kdot = -grad_r H + lam B grad_k H.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    d = k.shape[-1]
    J = _structure_matrix(r, field)
    if np.abs(np.linalg.det(J)).min() < 1e-12:
        raise FlowError("magnetic structure matrix singular (cannot happen)")
    gk, gr = _model_grads(model, k, r)
    rhs = np.concatenate([gr, gk], axis=-1)
    sol = np.linalg.solve(J, rhs[..., None])[..., 0]
    rdot = sol[..., :d]
    kdot = sol[..., d:]
    return kdot, rdot


def vector_field_corrected(k, r, model, field: EMFieldConfig, band, eps: float):
    """(kdot, rdot) under the curvature-corrected structure.

    band supplies Omega(k); the determinant factor of the structure matrix is
    returned through the model call sites as a diagnostic via
    structure_factor().
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    d = k.shape[-1]
    omega = band.at(k).Om if band is not None else None
    J = _structure_matrix(r, field, omega=omega, eps=eps)
    det = np.linalg.det(J)
    if np.abs(det).min() < 1e-10:
        raise FlowError("corrected structure matrix is degenerate")
    gk, gr = _model_grads(model, k, r)
    rhs = np.concatenate([gr, gk], axis=-1)
    sol = np.linalg.solve(J, rhs[..., None])[..., 0]
    return sol[..., d:], sol[..., :d]


def structure_factor(k, r, field: EMFieldConfig, band, eps: float):
    """sqrt(det J) of the corrected structure; 1 - eps lam B_12 Omega_12 in 2D."""
    omega = band.at(k).Om if band is not None else None
    J = _structure_matrix(np.asarray(r, dtype=float), field, omega=omega, eps=eps)
    return np.sqrt(np.abs(np.linalg.det(J)))


def _rhs(k, r, model, field, band, eps, corrected):
    if corrected:
        return vector_field_corrected(k, r, model, field, band, eps)
    return vector_field_magnetic(k, r, model, field)


def _rk4_run(k0, r0, model, field, band, eps, corrected, t_final, dt, record=True):
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
        dk1, dr1 = _rhs(k, r, model, field, band, eps, corrected)
        dk2, dr2 = _rhs(k + 0.5 * dt * dk1, r + 0.5 * dt * dr1, model, field, band, eps, corrected)
        dk3, dr3 = _rhs(k + 0.5 * dt * dk2, r + 0.5 * dt * dr2, model, field, band, eps, corrected)
        dk4, dr4 = _rhs(k + dt * dk3, r + dt * dr3, model, field, band, eps, corrected)
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
              dt: float, band=None, corrected: bool = False,
              halving_budget: float | None = 1e-8) -> Trajectory:
    """RK4 trajectory with energy monitor.

    With halving_budget set, the endpoint is re-computed at dt/2 and a
    FlowError is raised if the two disagree beyond the budget.
    """
    eps = field.eps
    ts, ks, rs = _rk4_run(state0.k, state0.r, model, field, band, eps,
                          corrected, t_final, dt)
    if halving_budget is not None:
        k2, r2 = _rk4_run(state0.k, state0.r, model, field, band, eps,
                          corrected, t_final, dt / 2, record=False)
        dev = max(np.abs(ks[-1] - k2).max(), np.abs(rs[-1] - r2).max())
        if dev > halving_budget:
            raise FlowError(
                f"step-halving disagreement {dev:.3e} exceeds budget "
                f"{halving_budget:.0e}; reduce dt")
    energy = np.asarray(model.value(ks, rs)).reshape(len(ts))
    diag = {"dt": dt, "n_steps": len(ts) - 1}
    if corrected and band is not None:
        diag["structure_factor"] = structure_factor(ks, rs, field, band, eps)
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
                               corrected=True, halving_budget=None)
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


def poisson_corrected(f, g, k, r, field: EMFieldConfig, band, eps: float):
    """Corrected Poisson bracket of two observables at sampled points.

    f, g are callables with methods-like signature (grad via closures):
    each must provide grad_k(k, r) and grad_r(k, r).  The bracket follows the
    flow orientation df/dt = {h, f}, i.e. {f, g} = -(grad f)^T J^{-1} grad g,
    so that {r_l, r_j} = -eps Omega_lj at leading order.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    omega = band.at(k).Om if band is not None else None
    J = _structure_matrix(r, field, omega=omega, eps=eps)
    gf = np.concatenate([f.grad_r(k, r), f.grad_k(k, r)], axis=-1)
    gg = np.concatenate([g.grad_r(k, r), g.grad_k(k, r)], axis=-1)
    sol = np.linalg.solve(J, gg[..., None])[..., 0]
    return -np.einsum("...i,...i->...", gf, sol)
