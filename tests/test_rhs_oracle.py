"""The einsum-free right-hand side against the einsum forms it replaced.

The oracle functions below are verbatim copies of the einsum forms of both
grad_pair methods, _solve_structure, _reduced and structure_factor before
they were rewritten as matrix products (methods as functions of `self`).
They contract full d x d tensors, which they expand from the band's pair
components with fields.antisymmetric (the library reads the components).
The rewrite changes only the order of floating-point sums, so every case is
compared at 1e-13 relative, over d = 1, 2, 3, the batch shapes flows and
phase-space sampling use, zero, constant (symmetric and Landau) and
position-dependent (transversal) fields, and the eps = 0 and lam = 0 limits.
"""

import dataclasses

import numpy as np
import pytest

from peierls_lab import effective, flow
from peierls_lab.effective import (EffectiveHamiltonian, SemiclassicalHamiltonian,
                                   _as_points)
from peierls_lab.fields import EMFieldConfig, _vecmat, antisymmetric
from peierls_lab.flow import FlowError
from peierls_lab.lattice import Lattice

from oracles import synthetic_band

# -- oracle: the einsum forms -------------------------------------------------


def full_B(field, r):
    """B at every point r, shape r.shape[:-1] + (d, d), as the einsum forms
    read it."""
    d = field.dim
    return np.broadcast_to(field.B(r), np.shape(r)[:-1] + (d, d))


def oracle_lorentz(self, b, r):
    """F_l = -d_l phi + lam B_lj d_j E, shape (..., d)."""
    F = -self.field.grad_phi(r)
    if self.field.lam != 0.0:
        F = F + self.field.lam * np.einsum("...lj,...j->...l",
                                           full_B(self.field, r), b.dE)
    return F


def full_tensors(b, d):
    """M and dM of a BandFields record as full (..., d, d) and (..., d, d, n)."""
    return antisymmetric(b.m, d), antisymmetric(b.dm, d, 1)


def oracle_heff_grad_pair(self, k, r):
    k, r = _as_points(k, self.dim), _as_points(r, self.dim)
    eps, lam = self.field.eps, self.field.lam
    b = self.band.at(k)
    M, dM = full_tensors(b, self.dim)
    gk = b.dE
    gr = self.field.grad_phi(r)
    if eps == 0.0:
        return gk, gr, b
    # d_{k_m} h1 = -(d_m F_l) A_l - F_l d_m A_l - lam B_lj d_m M_lj
    term_k = -np.einsum("...l,...lm->...m", oracle_lorentz(self, b, r), b.dA)
    # d_{r_m} h1 = (d_m d_l phi) A_l - lam (d_m B_lj)(d_j E A_l + M_lj)
    term_r = np.einsum("...lm,...l->...m", self.field.grad_hess_phi(r)[1], b.A)
    if lam != 0.0:
        B = full_B(self.field, r)
        dF = lam * np.einsum("...lj,...jm->...lm", B, b.hessE)
        term_k = term_k - np.einsum("...lm,...l->...m", dF, b.A)
        term_k = term_k - lam * np.einsum("...lj,...ljm->...m", B, dM)
        if self.field.dbfield is not None:
            dB = self.field.dB(r)
            term_r = term_r - lam * np.einsum("...ljm,...j,...l->...m",
                                              dB, b.dE, b.A)
            term_r = term_r - lam * np.einsum("...ljm,...lj->...m", dB, M)
    return gk + eps * term_k, gr + eps * term_r, b


def oracle_hsc_grad_pair(self, k, r):
    k, r = _as_points(k, self.dim), _as_points(r, self.dim)
    eps, lam = self.field.eps, self.field.lam
    coupled = eps != 0.0 and lam != 0.0
    b = self.band.at(k)
    M, dM = full_tensors(b, self.dim)
    gk = b.dE
    gr = self.field.grad_phi(r)
    if coupled:
        gk = gk - eps * lam * np.einsum("...lj,...ljm->...m", full_B(self.field, r), dM)
        if self.field.dbfield is not None:
            gr = gr - eps * lam * np.einsum("...ljm,...lj->...m",
                                            self.field.dB(r), M)
    return gk, gr, b


def oracle_reduced(lamB, epsOm):
    d = lamB.shape[-1]
    if d <= 2:
        return 1.0 + np.einsum("...lj,...jl->...", lamB, epsOm) / d
    return np.eye(d) + lamB @ epsOm


def oracle_reduced_det(red, d):
    return red ** d if d <= 2 else np.linalg.det(red)


def oracle_solve_structure(gk, gr, r, field, omega=None, eps=0.0):
    lamB = field.lam * full_B(field, r) if field.lam != 0.0 else None
    kdot = -gr if lamB is None else np.einsum("...lj,...j->...l", lamB, gk) - gr
    if omega is None or eps == 0.0:
        return kdot, gk
    epsOm = eps * omega
    if lamB is not None:
        d = gk.shape[-1]
        red = oracle_reduced(lamB, epsOm)
        if np.abs(oracle_reduced_det(red, d)).min() < 1e-10:
            raise FlowError("corrected structure matrix is degenerate")
        kdot = kdot / red[..., None] if d <= 2 else \
            np.linalg.solve(red, kdot[..., None])[..., 0]
    return kdot, gk - np.einsum("...lj,...j->...l", epsOm, kdot)


def oracle_structure_factor(k, r, field, band, eps):
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    if band is None or eps == 0.0 or field.lam == 0.0:
        return np.ones(r.shape[:-1])
    d = r.shape[-1]
    red = oracle_reduced(field.lam * full_B(field, r), eps * antisymmetric(band.at(k).om, d))
    return np.sqrt(np.abs(oracle_reduced_det(red, d)))


# -- fixtures -----------------------------------------------------------------

SHAPES = {1: (16,), 2: (9, 9), 3: (5, 5, 5)}


def _antisym(d):
    """Antisymmetric basis matrices E^(lj) = e_l e_j^T - e_j e_l^T, l < j."""
    out = []
    for l in range(d):
        for j in range(l + 1, d):
            e = np.zeros((d, d))
            e[l, j], e[j, l] = 1.0, -1.0
            out.append(e)
    return out


def _band(d):
    """Smooth synthetic band with every geometric field nonzero."""
    lat = Lattice.cubic(d)
    c = np.linspace(0.4, 0.9, d)
    tens = np.random.default_rng(d).normal(size=(d, d))

    def energy(k):
        return np.cos(k) @ c

    def connection(k):
        return 0.3 * np.sin(k + 0.2)

    def rw(k):
        return (0.2 * np.cos(k[..., :1])[..., None] * (tens - tens.T)
                + 0.1 * np.sin(k[..., -1:])[..., None] * sum(_antisym(d), np.zeros((d, d))))

    def curvature(k):
        out = np.zeros(k.shape[:-1] + (d, d))
        for n, e in enumerate(_antisym(d)):
            out = out + (0.3 + 0.2 * np.cos(k[..., n % d]))[..., None, None] * e
        return out
    return synthetic_band(lat, SHAPES[d], energy, connection, rw, curvature,
                          upsample=2 if d == 3 else 4)


BANDS = {d: _band(d) for d in (1, 2, 3)}


def _phi(d):
    a = np.linspace(0.3, 0.5, d)

    def phi(r):
        return np.cos(np.asarray(r, float)) @ a

    def gphi(r):
        return -a * np.sin(np.asarray(r, float))

    def hphi(r):
        r = np.asarray(r, float)
        return (-a * np.cos(r))[..., None] * np.eye(d)
    return dict(phi=phi, grad_phi=gphi, grad_hess_phi=lambda r: (gphi(r), hphi(r)))


def _transversal(d, eps, lam):
    """B(r) = sum_n b_n(r) E^(n) with b_n = b0 + 0.3 sin(r_n + n), and its
    exact derivative d_m B_lj."""
    basis = np.array(_antisym(d))                     # (n, d, d)

    def coeffs(r):
        r = np.asarray(r, float)
        idx = np.arange(len(basis)) % d
        return 0.7 + 0.3 * np.sin(r[..., idx] + np.arange(len(basis))), idx

    def bfield(r):
        b, _ = coeffs(r)
        return np.tensordot(b, basis, axes=(-1, 0))

    def dbfield(r):
        r = np.asarray(r, float)
        _, idx = coeffs(r)
        out = np.zeros(r.shape[:-1] + (d, d, d))
        for n, e in enumerate(basis):
            db = 0.3 * np.cos(r[..., idx[n]] + n)
            out[..., idx[n]] += db[..., None, None] * e
        return out

    return EMFieldConfig.transversal(d, bfield, dbfield, eps=eps, lam=lam, **_phi(d))


def make_field(kind, d, eps=0.1, lam=0.6):
    if kind == "zero":
        return EMFieldConfig.zero(d, eps, **_phi(d))
    if kind == "transversal":
        return _transversal(d, eps, lam)
    return EMFieldConfig.constant(d, b=0.8, eps=eps, lam=lam, gauge=kind, **_phi(d))


CASES = [(1, "zero", 0.1, 0.0), (1, "zero", 0.0, 0.0)] + [
    (d, kind, eps, lam) for d in (2, 3)
    for kind in ("zero", "symmetric", "landau", "transversal")
    for eps, lam in ((0.1, 0.6), (0.0, 0.6), (0.1, 0.0))
    if not (kind == "zero" and lam == 0.0)]


def batches(d):
    rng = np.random.default_rng(10 + d)
    n, m = 3, 4
    yield "point", rng.normal(size=d), rng.normal(size=d)
    yield "one", rng.normal(size=(1, d)), rng.normal(size=(1, d))
    yield "broadcast", rng.normal(size=(n, 1, d)), rng.normal(size=(1, m, d))
    yield "1e4", rng.uniform(-4, 4, (10_000, d)), rng.uniform(-4, 4, (10_000, d))


def close(a, ref, broadcast=False):
    """a equals ref to 1e-13 relative; with broadcast, a may also omit axes
    along which ref only repeats (a gradient of a constant field's term
    carries the shape of k alone)."""
    a, ref = np.asarray(a), np.asarray(ref)
    if broadcast:
        assert np.broadcast_shapes(a.shape, ref.shape) == ref.shape
        a = np.broadcast_to(a, ref.shape)
    assert a.shape == ref.shape, (a.shape, ref.shape)
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d,kind,eps,lam", CASES)
def test_rhs_matches_einsum_oracle(d, kind, eps, lam):
    band = BANDS[d]
    fld = make_field(kind, d, eps, lam)
    models = [(EffectiveHamiltonian(band, fld), oracle_heff_grad_pair),
              (SemiclassicalHamiltonian(band, fld), oracle_hsc_grad_pair)]
    for name, k, r in batches(d):
        for model, oracle in models:
            gk, gr, _ = model.grad_pair(k, r)
            gk0, gr0, _ = oracle(model, k, r)
            close(gk, gk0, broadcast=True)
            close(gr, gr0, broadcast=True)
        omega = band.at(k).om
        Omega = antisymmetric(omega, d)
        gk = np.broadcast_to(gk0, np.broadcast_shapes(k.shape, r.shape))
        terms = fld.lam_terms(r) if fld.lam != 0.0 else None
        for om, Om, e in ((None, None, 0.0), (omega, Omega, eps), (omega, Omega, 0.3)):
            new = flow._solve_structure(gk, gr0, terms, om, e)
            ref = oracle_solve_structure(gk, gr0, r, fld, Om, e)
            close(new[0], ref[0])
            close(new[1], ref[1], broadcast=True)
        full = np.broadcast_shapes(k.shape, r.shape)[:-1]
        for e in (eps, 0.3):
            sf = flow.structure_factor(k, r, dataclasses.replace(fld, eps=e), band)
            assert np.shape(sf) == full, (np.shape(sf), full)
            close(sf, np.broadcast_to(oracle_structure_factor(k, r, fld, band, e), full))
        if fld.lam != 0.0:
            ref = oracle_reduced(fld.lam * full_B(fld, r), 0.3 * Omega)
            # a constant B's (d, d) matrix leaves the shape of k alone; the
            # 2-D scalar comes as (..., 1)
            red = flow._reduced(terms, 0.3 * omega)
            close(red[..., 0] if d == 2 else red, ref, broadcast=True)


def test_corrected_degeneracy_threshold_and_message_unchanged():
    band = BANDS[2]
    fld = make_field("symmetric", 2, eps=0.1, lam=1.0)
    k, r = np.array([0.3, -0.2]), np.array([0.1, 0.4])
    om = band.at(k).om
    # 1 + lam B_12 eps Omega_21 = 0 for this eps
    eps = 1.0 / (fld.lam * fld.B(r)[0, 1] * om[0])
    g = np.ones(2)
    for solve, arg in ((flow._solve_structure, (fld.lam_terms(r), om)),
                       (oracle_solve_structure, (r, fld, antisymmetric(om, 2)))):
        with pytest.raises(FlowError, match="corrected structure matrix is degenerate"):
            solve(g, g, *arg, eps)


@pytest.mark.parametrize("kind,d", [("zero", 1), ("zero", 2), ("symmetric", 2),
                                    ("landau", 3), ("transversal", 2),
                                    ("transversal", 3)])
def test_field_matrix_has_the_shape_of_the_points(kind, d):
    """B(r) broadcasts to r.shape[:-1] + (d, d), in its smallest shape: the
    one (d, d) matrix of a constant field; and it is B at every point."""
    fld = make_field(kind, d)
    rng = np.random.default_rng(3)
    for shape in [(d,), (1, d), (5, d), (3, 1, d), (1, 4, d), (2, 3, 4, d)]:
        r = rng.normal(size=shape)
        B = fld.B(r)
        assert B.shape == ((d, d) if kind != "transversal" else shape[:-1] + (d, d))
        full = np.broadcast_to(B, shape[:-1] + (d, d))
        pointwise = np.array([fld.B(p) for p in r.reshape(-1, d)])
        assert np.array_equal(full.reshape(-1, d, d), pointwise)


@pytest.mark.parametrize("v_shape,M_shape", [((3,), (3, 2)), ((5, 3), (5, 3, 2)),
                                             ((4,), (6, 4, 3)),
                                             ((2, 1, 3), (1, 4, 3, 3))])
def test_vecmat_matches_einsum_and_keeps_complex_dtype(v_shape, M_shape):
    rng = np.random.default_rng(4)
    v = rng.normal(size=v_shape) + 1j * rng.normal(size=v_shape)
    M = rng.normal(size=M_shape)
    out = _vecmat(v, M)
    ref = np.einsum("...l,...lj->...j", v, M)
    assert out.dtype == np.complex128 and out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_constant_field_matrix_is_read_only():
    B0 = np.array([[0.0, 0.8], [-0.8, 0.0]])
    fld = EMFieldConfig(eps=0.1, lam=0.5, dim=2, bfield=B0,
                        vector_potential=lambda r: -0.5 * np.asarray(r) @ B0.T,
                        gauge="symmetric")
    B0[0, 1] = 5.0                      # the field keeps its own copy
    for B in (fld.B(np.zeros(2)), fld.B(np.zeros((3, 2)))):
        assert np.all(B[..., 0, 1] == 0.8)
        with pytest.raises(ValueError):
            B[..., 0, 1] = 1.0


def test_lam_terms_are_made_from_B():
    """lam_terms(r) holds lam B(r), its transpose, the pair weights 2 lam B_p
    and eps lam 2 B_p and, in 2D, lam B_12 as (..., 1): for a constant B the
    read-only arrays built with the field (and rebuilt with a new eps), for
    a callable B made from B(r) at the points."""
    r = np.random.default_rng(3).normal(size=(4, 2))
    for kind in ("symmetric", "transversal"):
        for fld in (make_field(kind, 2, 0.1, 0.6), make_field(kind, 2, 0.3, 0.6)):
            t, lamB = fld.lam_terms(r), 0.6 * fld.B(r)
            assert np.array_equal(t.lamB, lamB)
            assert np.array_equal(t.lamB_T, np.swapaxes(lamB, -1, -2))
            assert np.array_equal(t.weights, 2.0 * lamB[..., 0, 1:])
            assert np.array_equal(t.eps_weights, (fld.eps * 0.6) * (2.0 * fld.B(r)[..., 0, 1:]))
            assert np.array_equal(t.b12, lamB[..., 0, 1:])
            if kind == "symmetric":
                assert fld.lam_terms(r[0]) is t
                assert not any(a.flags.writeable for a in t)
    assert make_field("symmetric", 3).lam_terms(np.zeros(3)).b12 is None


# -- one right-hand side for every batch size ---------------------------------

ROW_CASES = [(1, "zero"), (2, "symmetric"), (2, "transversal"), (3, "symmetric"),
             (3, "transversal")]


def _flow_models(d, kind):
    """The field of kind on BANDS[d] and both models, each with the band its
    flow passes to vector_field: h_sc the corrected one, h_eff none."""
    band, fld = BANDS[d], make_field(kind, d)
    return fld, [(SemiclassicalHamiltonian(band, fld), band),
                 (EffectiveHamiltonian(band, fld), None)]


@pytest.mark.parametrize("d,kind", ROW_CASES)
def test_batch1_rows_match_batched_rows(d, kind):
    """vector_field at one point equals that point's row of a 5-point batch
    to 1e-13 relative, although a single point meets shared (d, d) band
    matrices (one BLAS product each) where the batch sums per entry."""
    fld, models = _flow_models(d, kind)
    rng = np.random.default_rng(20 + d)
    k, r = rng.uniform(-3, 3, (5, d)), rng.uniform(-3, 3, (5, d))
    for model, band in models:
        batch = flow.vector_field(k, r, model, fld, band)
        for i in range(5):
            for one, rows in zip(flow.vector_field(k[i], r[i], model, fld, band), batch):
                assert one.shape == (d,)
                close(one, rows[i])


@pytest.mark.parametrize("d,kind", ROW_CASES)
def test_empty_batch_gives_empty_fields_and_rates(d, kind):
    fld, models = _flow_models(d, kind)
    band, empty, p = BANDS[d], np.zeros((0, d)), d * (d - 1) // 2
    assert band._spline(empty).shape == (0, 1 + d, band._spline.n_fields)
    b = band.at(empty)
    shapes = {"E": (0,), "A": (0, d), "m": (0, p), "om": (0, p), "dE": (0, d),
              "hessE": (0, d, d), "dA": (0, d, d), "dm": (0, p, d)}
    assert {name: getattr(b, name).shape for name in shapes} == shapes
    for model, flow_band in models:
        kdot, rdot = flow.vector_field(empty, empty, model, fld, flow_band)
        assert kdot.shape == rdot.shape == (0, d)


# -- call-count guard for batch-1 flows ---------------------------------------


def test_batch1_rhs_makes_no_einsum_stack_or_broadcast(monkeypatch):
    from peierls_lab import cli, config
    from peierls_lab.interp import PeriodicSpline
    cfg = config.parse_config(
        '{"experiment": "flow", "lattice": {"dim": 2}, '
        '"field": {"b": 0.8, "lam": 0.7, '
        '"phi": {"preset": "cosine", "amplitude": 0.4, "period": 2.5}}}')
    fld = cli._build_field(cfg, 2, 0.05)
    band = BANDS[2]
    calls = {}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("einsum", "stack", "broadcast_to"):
        counting(np, name)
    for name in ("prep", "eval_prepped"):
        counting(PeriodicSpline, name)
    counting(flow, "_rhs")
    counting(effective, "_as_points")
    k0, r0 = np.array([0.7, 0.7]), np.array([0.1, 0.1])
    for model, flow_band in ((SemiclassicalHamiltonian(band, fld), band),
                             (EffectiveHamiltonian(band, fld), None)):
        calls.clear()
        k, r = flow._rk4_run(k0, r0, model, fld, flow_band, 0.01, 0.01,
                             record=False)
        assert k.shape == r.shape == (2,)
        # one RK4 step: four right-hand sides, one band evaluation each,
        # and each of k and r made a point array once per right-hand side
        assert calls == {"_rhs": 4, "prep": 4, "eval_prepped": 4, "_as_points": 8}, calls


def test_position_dependent_field_without_dbfield_refused():
    """grad_r h of a position-dependent B has a d_m B_lj term; a field built
    without dbfield is refused there, not flowed without that term."""
    from peierls_lab.fields import FieldError
    fld = dataclasses.replace(_transversal(2, 0.1, 0.7), dbfield=None)
    k, r = np.array([0.3, -0.2]), np.array([0.5, 0.4])
    for model in (EffectiveHamiltonian(BANDS[2], fld),
                  SemiclassicalHamiltonian(BANDS[2], fld)):
        with pytest.raises(FieldError, match="position-dependent B needs dbfield"):
            model.grad_pair(k, r)


@pytest.mark.parametrize("d", [2, 3])
def test_dbfield_layout_checked_against_bfield(d):
    """dbfield is laid out [l, j, m] = d_m B_lj; the same derivative laid out
    [m, l, j] is off by O(1) and is refused when the field is built."""
    from peierls_lab.fields import FieldError
    fld = _transversal(d, 0.1, 0.7)     # built: the [l, j, m] layout passes
    with pytest.raises(FieldError, match="dbfield"):
        dataclasses.replace(fld, dbfield=lambda r: np.moveaxis(fld.dbfield(r), -1, -3))


def test_phi_gradient_without_its_hessian_refused():
    """grad phi reaches the effective grad_pair through grad_hess_phi and the
    semiclassical one through grad_phi, so a field gives both or neither."""
    from peierls_lab.fields import FieldError
    p = _phi(2)
    for one in ("grad_phi", "grad_hess_phi"):
        with pytest.raises(FieldError, match="must be given together"):
            EMFieldConfig.zero(2, 0.1, phi=p["phi"], **{one: p[one]})


@pytest.mark.parametrize("b", [np.inf, -np.inf, np.nan])
def test_nonfinite_field_rejected(b):
    from peierls_lab.fields import FieldError
    with pytest.raises(FieldError, match="must be finite"):
        EMFieldConfig.constant(2, b=b, eps=0.1)

    def bfield(r):
        out = np.zeros(np.shape(r)[:-1] + (2, 2))
        out[..., 0, 1], out[..., 1, 0] = b, -b
        return out
    with pytest.raises(FieldError, match="must be finite"):
        EMFieldConfig.transversal(2, bfield, None, eps=0.1)
