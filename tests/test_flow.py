import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from peierls_lab.effective import EffectiveHamiltonian
from peierls_lab.fields import EMFieldConfig, pairs
from peierls_lab.flow import (FlowError, FlowState, _rk4_run, compare_flows,
                              integrate, structure_factor, vector_field)
from peierls_lab.lattice import Lattice
from peierls_lab.quantum import QuantumError, egorov_error
from peierls_lab.weyl import PhaseSpaceGrid

from oracles import AnalyticHamiltonian, poisson_corrected, synthetic_band

LAT2 = Lattice.cubic(2)

FREE = AnalyticHamiltonian(f=lambda k, r: 0.5 * np.sum(k ** 2, -1),
                           fk=lambda k, r: k,
                           fr=lambda k, r: np.zeros_like(r))

EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def omega_band(om):
    return synthetic_band(
        LAT2, (9, 9), energy=lambda k: 0 * k[..., 0],
        curvature=lambda k: np.einsum("...,lj->...lj", om + 0 * k[..., 0], EPS2))


@pytest.mark.parametrize("k, r", [([0.4, 0.1], [0.2]), ([[0.4, 0.1]], [[0.2, 0.3]])],
                         ids=["unequal_lengths", "two_dim"])
def test_flow_state_rejects_points_of_other_shapes(k, r):
    with pytest.raises(FlowError, match=re.escape(f"got shapes {np.shape(k)} and {np.shape(r)}")):
        FlowState.of(k, r)


def test_free_motion_exact():
    fld = EMFieldConfig.zero(2, eps=0.1)
    st = FlowState.of([0.4, 0.1], [0.0, 0.0])
    tr = integrate(st, FREE, fld, 2.0, 1e-3)
    assert np.abs(tr.r[-1] - np.array([0.8, 0.2])).max() < 1e-12
    assert np.abs(tr.k[-1] - tr.k[0]).max() < 1e-14


def test_vector_field_magnetic_closed_form():
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    k = np.array([[0.5, -0.3]])
    r = np.array([[0.2, 0.1]])
    kdot, rdot = vector_field(k, r, FREE, fld)
    assert np.abs(rdot - k).max() < 1e-14
    expected_kdot = 0.7 * (fld.B(r) @ k[0])
    assert np.abs(kdot[0] - expected_kdot).max() < 1e-14


def test_cyclotron_radius_and_period():
    b = 0.9
    fld = EMFieldConfig.constant(2, b=b, eps=0.1, lam=1.0)
    st = FlowState.of([0.5, 0.0], [0.0, 0.0])
    T = 5 * 2 * np.pi / b
    tr = integrate(st, FREE, fld, T, 1e-3)
    assert np.abs(np.linalg.norm(tr.k, axis=1) - 0.5).max() < 1e-8
    assert np.abs(tr.k[-1] - tr.k[0]).max() < 1e-8
    assert tr.energy_drift() < 1e-10


def test_lambda_zero_reduces_to_canonical():
    phi = lambda r: 0.3 * r[..., 0]
    ham = AnalyticHamiltonian(
        f=lambda k, r: 0.5 * np.sum(k ** 2, -1) + phi(r),
        fk=lambda k, r: k,
        fr=lambda k, r: np.stack([0.3 + 0 * r[..., 0], 0 * r[..., 1]], -1))
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.0)
    k = np.array([[0.5, -0.3]])
    r = np.array([[0.0, 0.0]])
    kdot, rdot = vector_field(k, r, ham, fld)
    assert np.abs(kdot[0] - np.array([-0.3, 0.0])).max() < 1e-14
    assert np.abs(rdot[0] - k[0]).max() < 1e-14


def test_corrected_degenerations():
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.0, lam=1.0)
    band = omega_band(0.3)
    k = np.array([[0.4, 0.2]])
    r = np.array([[0.1, -0.2]])
    k1, r1 = vector_field(k, r, FREE, fld)
    k2, r2 = vector_field(k, r, FREE, fld, band)
    assert np.abs(k1 - k2).max() == 0.0 and np.abs(r1 - r2).max() == 0.0
    band0 = omega_band(0.0)
    fld2 = EMFieldConfig.constant(2, b=0.9, eps=0.05, lam=1.0)
    k3, r3 = vector_field(k, r, FREE, fld2, band0)
    k4, r4 = vector_field(k, r, FREE, fld2)
    assert np.abs(k3 - k4).max() < 1e-14 and np.abs(r3 - r4).max() < 1e-14


def test_corrected_flow_vs_linear_ode_oracle():
    b, om, eps = 0.9, 0.3, 0.05
    E = np.array([0.2, -0.1])
    ham = AnalyticHamiltonian(
        f=lambda k, r: 0.5 * np.sum(k ** 2, -1) + np.sum(E * r, -1),
        fk=lambda k, r: k,
        fr=lambda k, r: np.broadcast_to(E, np.shape(r)).copy())
    fld = EMFieldConfig.constant(2, b=b, eps=eps, lam=1.0)
    band = omega_band(om)
    st = FlowState.of([0.3, -0.2], [0.1, 0.2])
    t = 1.5
    tr = integrate(st, ham, fld, t, 1e-3, band=band)
    J = np.zeros((4, 4))
    J[:2, :2] = b * EPS2
    J[:2, 2:] = -np.eye(2)
    J[2:, :2] = np.eye(2)
    J[2:, 2:] = eps * om * EPS2
    Jinv = np.linalg.inv(J)
    M = np.zeros((4, 4))
    M[2:, 2:] = np.eye(2)
    A = Jinv @ M
    c = Jinv @ np.concatenate([E, [0, 0]])
    aug = np.zeros((5, 5))
    aug[:4, :4] = A
    aug[:4, 4] = c
    ea = expm(aug * t)
    z0 = np.concatenate([st.r, st.k])
    zt = expm(A * t) @ z0 + ea[:4, 4]
    assert np.abs(tr.r[-1] - zt[:2]).max() < 1e-10
    assert np.abs(tr.k[-1] - zt[2:]).max() < 1e-10
    # anomalous drift: the eps*Omega coupling displaces the trajectory
    tr0 = integrate(st, ham, fld, t, 1e-3, band=omega_band(0.0))
    assert np.abs(tr0.r[-1] - tr.r[-1]).max() > 1e-4


def test_structure_factor_and_degeneracy_error():
    b, om = 1.0, 0.5
    band = omega_band(om)
    fld = EMFieldConfig.constant(2, b=b, eps=0.05, lam=1.0)
    sf = structure_factor([0.1, 0.2], [0.0, 0.0], fld, band)
    assert abs(sf - (1 - 0.05 * 1.0 * b * om)) < 1e-12
    fld_big = EMFieldConfig.constant(2, b=b, eps=1.0 / om, lam=1.0)
    with pytest.raises(FlowError):
        vector_field(np.array([[0.1, 0.2]]), np.array([[0.0, 0.0]]),
                     FREE, fld_big, band)


def test_energy_conservation_autonomous():
    b = 0.8
    phi = lambda r: 0.2 * np.cos(r[..., 0]) * np.cos(r[..., 1])
    ham = AnalyticHamiltonian(
        f=lambda k, r: np.cos(k[..., 0]) + np.cos(k[..., 1]) + phi(r),
        fk=lambda k, r: np.stack([-np.sin(k[..., 0]), -np.sin(k[..., 1])], -1),
        fr=lambda k, r: np.stack(
            [-0.2 * np.sin(r[..., 0]) * np.cos(r[..., 1]),
             -0.2 * np.cos(r[..., 0]) * np.sin(r[..., 1])], -1))
    fld = EMFieldConfig.constant(2, b=b, eps=0.05, lam=0.6)
    st = FlowState.of([0.7, -0.4], [0.3, 0.1])
    tr = integrate(st, ham, fld, 10.0, 1e-3)
    assert tr.energy_drift() < 1e-8


def test_step_halving_guard():
    # egorov_error's probe: RK4 at dt and dt/2 must agree to 1e-3 eps^2
    n, eps = 33, 0.1
    L = n * eps
    w = 2 * np.pi / L
    def gphi(r):
        return -0.3 * w * np.sin(w * r)

    def grad_hess(r):
        return gphi(r), -0.3 * w * w * np.cos(w * r)[..., None]
    fld = EMFieldConfig.zero(1, eps=eps, phi=lambda r: 0.3 * np.cos(w * r[..., 0]),
                             grad_phi=gphi, grad_hess_phi=grad_hess)
    band = synthetic_band(Lattice.cubic(1), (65,), lambda k: np.cos(k[..., 0]))
    grid = PhaseSpaceGrid.build(n, 1.0, eps=eps)
    heff = EffectiveHamiltonian(band, fld)
    f = lambda k, r: np.sin(k[..., 0])
    assert egorov_error(f, heff, grid, fld, t=1.0, dt=0.02) > 0
    with pytest.raises(QuantumError, match="integrator budget violation: halving probe"):
        egorov_error(f, heff, grid, fld, t=1.0, dt=0.5)


def test_poisson_corrected_position_bracket():
    b, om, eps = 0.9, 0.3, 0.05
    band = omega_band(om)
    fld = EMFieldConfig.constant(2, b=b, eps=eps, lam=1.0)

    class Coord:
        def __init__(self, which, idx):
            self.w, self.i = which, idx

        def grad_pair(self, k, r):
            gk, gr = np.zeros_like(k), np.zeros_like(r)
            (gk if self.w == "k" else gr)[..., self.i] = 1
            return gk, gr, None

    k = np.array([[0.3, 0.2]])
    r = np.array([[0.0, 0.0]])
    br = poisson_corrected(Coord("r", 0), Coord("r", 1), k, r, fld, band)
    # {r_1, r_2} = -eps Omega_12 to leading order
    assert abs(br[0] + eps * om) < 2 * eps ** 2 * om * b
    br_kk = poisson_corrected(Coord("k", 0), Coord("k", 1), k, r, fld, band)
    assert abs(br_kk[0] + b) < 2 * eps * om * b
    br_kr = poisson_corrected(Coord("k", 0), Coord("r", 0), k, r, fld, band)
    assert abs(br_kr[0] - 1.0) < 2 * eps * om * b


def test_compare_flows_one_eps_fits_no_slope():
    """One eps fixes no slope: the slope is nan, and no fit is tried (numpy
    would warn and return a meaningless number)."""
    band = synthetic_band(LAT2, (9, 9), energy=lambda k: np.cos(k).sum(-1),
                          connection=lambda k: 0.3 * np.sin(k))
    fld = EMFieldConfig.constant(2, b=0.8, eps=0.1, lam=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = compare_flows(FlowState.of([0.7, 0.7], [0.1, 0.1]), band, fld, [0.1],
                            t_final=0.1, dt=0.01)
    assert rep["distance"].shape == (1,) and rep["distance"][0] > 0
    assert np.isnan(rep["slope"])


def test_trajectory_monotone_times():
    fld = EMFieldConfig.zero(2, eps=0.1)
    tr = integrate(FlowState.of([0.1, 0.2], [0.0, 0.0]), FREE, fld, 1.0, 0.01)
    assert np.all(np.diff(tr.times) > 0)


def _antisym(rng, shape, d):
    a = rng.uniform(-1, 1, shape + (d, d))
    return a - np.swapaxes(a, -1, -2)


class _Fixed:
    """Observable or model with given gradient samples (closed-form J tests)."""

    def __init__(self, gk, gr):
        self.gk, self.gr = gk, gr

    def grad_pair(self, k, r):
        return self.gk, self.gr, None


class _OmegaBand:
    def __init__(self, om):
        self.om = om

    def at(self, k):
        return type("Fields", (), {"om": pairs(self.om)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_structure_matches_assembled_solve(d):
    rng = np.random.default_rng(d)
    n, eps, lam = 32, 0.3, 0.8
    B = _antisym(rng, (), d)
    fld = EMFieldConfig(eps=eps, lam=lam, dim=d, bfield=B,
                        vector_potential=lambda r: -0.5 * np.asarray(r) @ B.T,
                        gauge="symmetric")
    k, r = rng.normal(size=(2, n, d))
    om = _antisym(rng, (n,), d)
    band = _OmegaBand(om)
    h = _Fixed(*rng.normal(size=(2, n, d)))
    g = _Fixed(*rng.normal(size=(2, n, d)))
    f = _Fixed(*rng.normal(size=(2, n, d)))

    def assembled(omega):
        J = np.zeros((n, 2 * d, 2 * d))
        J[:, :d, :d] = lam * B
        J[:, :d, d:] = -np.eye(d)
        J[:, d:, :d] = np.eye(d)
        J[:, d:, d:] = eps * omega
        return J

    def close(a, ref):
        return np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()

    for omega, (kdot, rdot) in [
            (np.zeros((n, d, d)), vector_field(k, r, h, fld)),
            (om, vector_field(k, r, h, fld, band))]:
        sol = np.linalg.solve(assembled(omega),
                              np.concatenate([h.gr, h.gk], -1)[..., None])[..., 0]
        assert close(rdot, sol[:, :d]) and close(kdot, sol[:, d:])
    J = assembled(om)
    sf = structure_factor(k, r, fld, band)
    assert close(sf, np.sqrt(np.abs(np.linalg.det(J))))
    sol = np.linalg.solve(J, np.concatenate([g.gr, g.gk], -1)[..., None])[..., 0]
    ref = -np.einsum("pi,pi->p", np.concatenate([f.gr, f.gk], -1), sol)
    assert close(poisson_corrected(f, g, k, r, fld, band), ref)


def test_corrected_integrate_evaluates_band_once_per_rhs():
    from peierls_lab.effective import SemiclassicalHamiltonian
    band = synthetic_band(
        LAT2, (9, 9), energy=lambda k: np.cos(k[..., 0]) + np.cos(k[..., 1]),
        rw=lambda k: np.einsum("...,lj->...lj", 0.1 * np.sin(k[..., 0]), EPS2),
        curvature=lambda k: np.einsum("...,lj->...lj", 0.3 * np.cos(k[..., 1]), EPS2))
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.05, lam=1.0)
    calls = []
    at = band.at
    band.at = lambda *args, **kwargs: calls.append(1) or at(*args, **kwargs)
    n_steps = 5
    tr = integrate(FlowState.of([0.3, -0.2], [0.1, 0.2]),
                   SemiclassicalHamiltonian(band, fld), fld, n_steps * 0.01, 0.01,
                   band=band)
    # four RK4 stages per step, then the energy and structure-factor monitor
    assert len(tr.times) == n_steps + 1
    assert len(calls) == 4 * n_steps + 2


@pytest.mark.parametrize("t_final,dt", [(1.0, 0.0), (1.0, -0.01), (1.0, np.nan),
                                        (1.0, np.inf), (-1.0, 0.01),
                                        (np.inf, 0.01), (np.nan, 0.01)])
def test_rk4_rejects_bad_step_or_duration(t_final, dt):
    fld = EMFieldConfig.zero(2, eps=0.1)
    with pytest.raises(FlowError, match="dt must be|t_final must be"):
        _rk4_run(np.array([0.4, 0.1]), np.zeros(2), FREE, fld, None, t_final, dt)
    with pytest.raises(FlowError):
        integrate(FlowState.of([0.4, 0.1], [0.0, 0.0]), FREE, fld, t_final, dt)


def test_rk4_zero_duration_returns_the_initial_point():
    fld = EMFieldConfig.zero(2, eps=0.1)
    ts, ks, rs = _rk4_run(np.array([0.4, 0.1]), np.zeros(2), FREE, fld, None, 0.0, 0.01)
    assert ts.tolist() == [0.0] and ks.tolist() == [[0.4, 0.1]]
