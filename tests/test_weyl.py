import re
import tracemalloc

import numpy as np
import pytest

from peierls_lab import fields, weyl
from peierls_lab.fields import EMFieldConfig, FieldError
from peierls_lab.interp import _sym_freqs
from peierls_lab.weyl import (DenseMemoryError, GridSymbol, PhaseSpaceGrid,
                              QuantizedOperator, WeylError, operator_norm, quantize,
                              resample_periodic, sample_symbol)

from oracles import (coherent_state, commutation_check, dequantize, exact_product,
                     expanded_product, gauge_covariance_check, interior_max,
                     magnetic_poisson, momentum_operator, position_operator)


def moyal_oracle(f: GridSymbol, g: GridSymbol, eps: float) -> np.ndarray:
    """Nonmagnetic Moyal product via the twisted spectral convolution
    (independent of the quantize/multiply/dequantize route).

    fhat(u, v) twisted-convolved with ghat: the product's coefficients are
    sum over u1+u2=u of fhat(u1) ghat(u2) exp(i eps/2 sigma(z1, z2)) with
    sigma the symplectic form on the (position, momentum) frequency pairs.
    """
    n = f.samples.shape[0]
    assert f.samples.shape == (n, n)
    H = f.grid.eps * f.grid.h[0]
    h_xi = f.grid.xi_axis(0)[1] - f.grid.xi_axis(0)[0]
    # frequencies conjugate to (X, xi)
    wx = 2 * np.pi * np.fft.fftfreq(n, d=H)
    wk = 2 * np.pi * np.fft.fftfreq(n, d=h_xi)
    F = np.fft.fft2(f.samples)
    G = np.fft.fft2(g.samples)
    out_hat = np.zeros_like(F)
    # out_hat[u] = sum_{u1} F[u1] G[u - u1] e^{(i eps/2) sigma(u1, u - u1)}
    idx = np.arange(n)
    for a1 in range(n):
        for b1 in range(n):
            a2 = (idx[:, None] - a1) % n
            b2 = (idx[None, :] - b1) % n
            phase = np.exp(-0.5j * eps * (wx[a1] * wk[b2] - wk[b1] * wx[a2]))
            out_hat += F[a1, b1] * G[a2, b2] * phase
    return np.fft.ifft2(out_hat) / (n * n)


GRID_1D = PhaseSpaceGrid.build(33, 0.5, eps=0.1)
FIELD_0 = EMFieldConfig.zero(1, eps=0.1)


def gaussian_symbol(grid, cx=0.0, ck=0.0, ax=1.5, ak=0.8):
    if grid.dim == 1:
        return sample_symbol(
            lambda k, r: np.exp(-ax * (r[..., 0] - cx) ** 2 - ak * (k[..., 0] - ck) ** 2),
            grid)
    return sample_symbol(
        lambda k, r: np.exp(-ax * ((r[..., 0] - cx) ** 2 + r[..., 1] ** 2)
                            - ak * ((k[..., 0] - ck) ** 2 + k[..., 1] ** 2)), grid)


@pytest.mark.parametrize("ns, h, eps", [
    ((5, 5), (1.0,), 0.1),      # fewer spacings than axes
    ((5,), 0.0, 0.1),           # h = 0
    ((5,), -0.5, 0.1),          # h < 0
    ((-3,), 1.0, 0.1),          # a negative point count
    ((5,), 1.0, 0.0),           # eps = 0
    ((5,), 1.0, -0.1),          # eps < 0
], ids=["h_short", "h_zero", "h_negative", "n_negative", "eps_zero", "eps_negative"])
def test_phase_space_grid_rejects_unusable_grids(ns, h, eps):
    with pytest.raises(WeylError):
        PhaseSpaceGrid.build(ns, h, eps)


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_symbol_matches_full_mesh_evaluation(dim):
    """sample_symbol evaluates func(k, r) on the broadcast axis pair; an
    elementwise symbol gives the same bits as on the full phase-space mesh,
    and a constant still fills the whole ns + ns grid."""
    grid = PhaseSpaceGrid.build((9,) * dim if dim == 2 else 33, 0.6, eps=0.2)
    mesh = np.meshgrid(*[grid.X_axis(l) for l in range(dim)],
                       *[grid.xi_axis(l) for l in range(dim)], indexing="ij")
    X, K = np.stack(mesh[:dim], -1), np.stack(mesh[dim:], -1)
    symbols = [
        lambda k, r: np.exp(-r[..., 0] ** 2 - 0.5 * k[..., -1] ** 2 + 0.4 * r[..., -1] * k[..., 0]),
        lambda k, r: np.cos(k[..., -1]) * np.sin(r[..., 0]) + r[..., -1] * k[..., 0],
        lambda k, r: np.sign(np.sin(40 * r[..., 0] + 0.1)),
        lambda k, r: 2.5,
    ]
    for func in symbols:
        sampled = sample_symbol(func, grid).samples
        assert sampled.shape == grid.ns + grid.ns
        assert np.array_equal(sampled, np.broadcast_to(np.asarray(func(K, X), dtype=complex),
                                                       grid.ns + grid.ns))


def test_quantize_unit_symbol_identity():
    one = sample_symbol(lambda k, r: 1.0, GRID_1D)
    op = quantize(one, FIELD_0)
    assert np.abs(op.matrix - np.eye(33)).max() < 1e-14


def test_momentum_operator_is_spectral_derivative():
    P = momentum_operator(GRID_1D, FIELD_0, 0)
    x = GRID_1D.x_axis(0)
    sig = 0.9  # contained in both position and momentum on this grid
    psi = np.exp(-x ** 2 / (4 * sig ** 2) + 1.2j * x)
    psi /= np.linalg.norm(psi)
    dpsi = (-x / (2 * sig ** 2) + 1.2j) * psi
    assert np.abs(P.matrix @ psi - (-1j) * dpsi).max() < 1e-7


def test_roundtrip_exact():
    rng = np.random.default_rng(0)
    sym = GridSymbol(GRID_1D, rng.normal(size=(33, 33))
                     + 1j * rng.normal(size=(33, 33)))
    back = dequantize(quantize(sym, FIELD_0, assume_bandlimited=True), FIELD_0)
    assert np.abs(back.samples - sym.samples).max() < 1e-12


def test_roundtrip_exact_with_magnetic_phase():
    grid = PhaseSpaceGrid.build((9, 9), 0.6, eps=0.1)
    fld = EMFieldConfig.constant(2, b=0.8, eps=0.1, lam=0.7)
    rng = np.random.default_rng(1)
    shape = grid.ns + grid.ns
    sym = GridSymbol(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    back = dequantize(quantize(sym, fld, assume_bandlimited=True), fld)
    assert np.abs(back.samples - sym.samples).max() < 1e-12


def test_quantizer_tables_follow_grid_and_field():
    """quantize reuses its (grid, field) tables; interleaving fields and grids
    gives the matrices of a cold build, bit for bit."""
    grid = PhaseSpaceGrid.build((9, 9), 0.6, eps=0.1)
    other = PhaseSpaceGrid.build((7, 9), 0.6, eps=0.1)
    fields = [EMFieldConfig.constant(2, b=0.8, eps=0.1, lam=0.5),
              EMFieldConfig.constant(2, b=0.8, eps=0.1, lam=0.5, gauge="landau"),
              EMFieldConfig.constant(2, b=0.8, eps=0.1, lam=0.0)]
    rng = np.random.default_rng(2)
    syms = {g: GridSymbol(g, rng.normal(size=g.ns + g.ns) + 1j * rng.normal(size=g.ns + g.ns))
            for g in (grid, other)}
    cold = {}
    for g in (grid, other):
        for i, fld in enumerate(fields):
            weyl._last_tables = None
            cold[g, i] = quantize(syms[g], fld, assume_bandlimited=True).matrix
    # the two gauges give different matrices, so a stale table would show
    assert not np.allclose(cold[grid, 0], cold[grid, 1])
    same = PhaseSpaceGrid.build((9, 9), 0.6, eps=0.1)     # equal to grid by value
    # each step keeps the grid or the field, so a key missing either shows
    steps = [(grid, 0), (grid, 0), (grid, 1), (grid, 2), (same, 2), (other, 2),
             (other, 0), (grid, 0), (same, 1), (other, 1), (other, 2), (grid, 2)]
    for g, i in steps:
        key = other if g is other else grid
        op = quantize(syms[key], fields[i], assume_bandlimited=True)
        assert np.array_equal(op.matrix, cold[key, i])
        back = dequantize(op, fields[i])
        assert np.abs(back.samples - syms[key].samples).max() < 1e-12


def _chirp_oracle(samples: np.ndarray, d: int) -> np.ndarray:
    """Half-shift correction on symbol harmonics: multiply the (P_l, Q_l)
    spectrum by (-1)^{P_l Q_l} per axis pair.  Self-inverse."""
    F = np.fft.fftn(samples)
    for l in range(d):
        n = samples.shape[l]
        P = _sym_freqs(n).reshape([-1 if ax == l else 1 for ax in range(2 * d)])
        Q = _sym_freqs(n).reshape([-1 if ax == d + l else 1 for ax in range(2 * d)])
        F = F * (-1.0) ** (P * Q)
    return np.fft.ifftn(F)


def _offset_table_oracle(samples: np.ndarray, d: int) -> np.ndarray:
    """T[mu.., delta..] = sum_j f[mu.., j..] prod_l e^{2 pi i (j_l - c_l) delta_l / n_l}."""
    T = samples
    for l in range(d):
        ax = d + l
        n = samples.shape[ax]
        c = (n - 1) // 2
        T = n * np.fft.ifft(T, axis=ax)
        sh = [1] * samples.ndim
        sh[ax] = n
        T = T * np.exp(-2j * np.pi * c * np.arange(n) / n).reshape(sh)
    return T


def _mixed_radix_indices(ns) -> tuple:
    """Flat (N, N) indices mu = (a + b) / 2 and delta = a - b (mod n per
    axis) of kernel entry (a, b), built one axis at a time over the whole
    matrix (test oracle)."""
    d, N = len(ns), int(np.prod(ns))
    axes_idx = np.indices(ns).reshape(d, -1)
    mu = np.zeros((N, N), dtype=np.intp)
    delta = np.zeros((N, N), dtype=np.intp)
    for l, n in enumerate(ns):
        a = axes_idx[l][:, None]
        b = axes_idx[l][None, :]
        mu *= n
        mu += ((a + b) * ((n + 1) // 2)) % n
        delta *= n
        delta += (a - b) % n
    return mu, delta


def five_pass_quantize(symbol: GridSymbol, field: EMFieldConfig) -> np.ndarray:
    """Reference quantizer with 5d FFT axis passes: the chirp round trip,
    then one inverse DFT and an offset phase per momentum axis, gathered at
    delta = a - b and scaled by 1/N (test oracle)."""
    grid = symbol.grid
    d, N = grid.dim, grid.n_points
    mu, delta = _mixed_radix_indices(grid.ns)
    T = _offset_table_oracle(_chirp_oracle(symbol.samples, d), d)
    M = np.take(T.reshape(-1), mu * N + delta) / N
    if field.lam != 0.0:
        pts = grid.points_micro()
        M *= np.exp(-1j * field.lam * field.line_integral(pts[:, None, :],
                                                          pts[None, :, :]))
    return M


def _field_in_gauge(gauge: str, dim: int) -> EMFieldConfig:
    if gauge == "zero":
        return EMFieldConfig.zero(dim, eps=0.1)
    if gauge == "transversal":
        def bfield(r):
            r = np.asarray(r, dtype=float)
            B = np.zeros(r.shape[:-1] + (dim, dim))
            B[..., 0, 1] = 0.8 + 0.3 * np.cos(r[..., 0])
            B[..., 1, 0] = -B[..., 0, 1]
            return B
        return EMFieldConfig.transversal(dim, bfield, None, eps=0.1, lam=0.6)
    return EMFieldConfig.constant(dim, b=0.8, eps=0.1, lam=0.6, gauge=gauge)


@pytest.mark.parametrize("ns,gauge", [((7,), "zero")] + [
    (ns, gauge) for ns in [(5, 7), (3, 5, 3)]
    for gauge in ["zero", "symmetric", "landau", "transversal"]])
def test_quantize_matches_five_pass_oracle(ns, gauge):
    grid = PhaseSpaceGrid.build(ns, 0.6, eps=0.1)
    fld = _field_in_gauge(gauge, grid.dim)
    # "zero" labels the field-free case, whose A = 0 is the symmetric gauge
    assert fld.gauge == ("symmetric" if gauge == "zero" else gauge)
    rng = np.random.default_rng(5)
    sym = GridSymbol(grid, rng.normal(size=ns + ns) + 1j * rng.normal(size=ns + ns))
    ref = five_pass_quantize(sym, fld)
    op = quantize(sym, fld, assume_bandlimited=True)
    assert np.abs(op.matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    back = dequantize(op, fld)
    assert np.abs(back.samples - sym.samples).max() < 1e-12


@pytest.mark.parametrize("ns", [(7,), (5, 7), (9, 5), (3, 5, 7), (7, 3, 5)])
def test_gather_matches_mixed_radix_loop(ns):
    """The gather index, a sum of per-axis tables, is the oracle loop's
    mu * N + delta with the offset reversed (delta = b - a), bit for bit."""
    grid = PhaseSpaceGrid.build(ns, 0.6, eps=0.1)
    weyl._last_tables = None
    gather = weyl._quantizer_tables(grid, EMFieldConfig.zero(grid.dim, eps=0.1)).gather
    mu, delta = _mixed_radix_indices(ns)
    assert gather.dtype == np.intp
    assert np.array_equal(gather, mu * grid.n_points + delta.T)


def _linear_gauge_fields(d: int) -> list:
    """Fields in linear gauges: the constructor's two, and in 3D a B with all
    three pairs nonzero, in the symmetric gauge plus a constant (still
    linear) and in a Landau-type gauge A = (-B_01 r_1 - B_02 r_2, -B_12 r_2, 0)."""
    fields = [EMFieldConfig.constant(d, b=0.8, eps=0.07, lam=0.6, gauge=g)
              for g in ("symmetric", "landau")]
    if d == 3:
        B = np.array([[0.0, 0.8, -0.5], [-0.8, 0.0, 0.3], [0.5, -0.3, 0.0]])
        shift = np.array([0.4, -0.2, 0.7])

        def landau(r):
            r = np.asarray(r, float)
            return np.stack([-B[0, 1] * r[..., 1] - B[0, 2] * r[..., 2],
                             -B[1, 2] * r[..., 2], np.zeros(r.shape[:-1])], -1)
        fields += [EMFieldConfig(eps=0.07, lam=0.6, dim=3, bfield=B, gauge="symmetric",
                                 vector_potential=lambda r: shift - 0.5 * np.asarray(r) @ B.T),
                   EMFieldConfig(eps=0.07, lam=0.6, dim=3, bfield=B, gauge="landau",
                                 vector_potential=landau)]
    return fields


@pytest.mark.parametrize("ns,h", [((9, 5), (0.6, 1.1)), ((5, 11), (1.3, 0.4)),
                                  ((5, 7, 3), (0.6, 0.9, 1.4)), ((3, 5, 9), (1.2, 0.5, 0.8))])
def test_linear_phase_matches_line_integral(ns, h):
    """A linear gauge's phase, from per-axis-pair tables and one outer
    product, is exp(-i lam Gamma) of the midpoint line integral."""
    grid = PhaseSpaceGrid.build(ns, h, eps=0.07)
    pts = grid.points_micro()
    for fld in _linear_gauge_fields(grid.dim):
        weyl._last_tables = None
        weight = weyl._quantizer_tables(grid, fld).weight
        ref = np.exp(-1j * fld.lam * fld.line_integral(pts[:, None, :], pts[None, :, :]))
        assert np.abs(weight - ref).max() <= 1e-14


def test_transversal_phase_stays_quadrature(monkeypatch):
    """A position-dependent B keeps the Gauss-Legendre line integral."""
    def per_axis(grid, field):
        raise AssertionError("per-axis phase for a non-linear gauge")
    monkeypatch.setattr(weyl, "_linear_phase", per_axis)
    grid = PhaseSpaceGrid.build((5, 7), (0.6, 0.9), eps=0.1)
    fld = _field_in_gauge("transversal", 2)
    weyl._last_tables = None
    weight = weyl._quantizer_tables(grid, fld).weight
    pts = grid.points_micro()
    ref = np.exp(-1j * fld.lam * fld.line_integral(pts[:, None, :], pts[None, :, :]))
    assert np.array_equal(weight, ref)


def test_gauss_legendre_nodes_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.abs(fields._GL_NODES - nodes).max() <= 1e-15
    assert np.abs(fields._GL_WEIGHTS - weights).max() <= 1e-15


def test_guarded_quantize_equals_bandlimited_matrix():
    grid = PhaseSpaceGrid.build(33, np.sqrt(2 * np.pi / 33), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    sym = gaussian_symbol(grid)
    assert sym.spectral_tail_fraction() < 1e-6
    assert np.array_equal(quantize(sym, fld).matrix,
                          quantize(sym, fld, assume_bandlimited=True).matrix)


@pytest.mark.parametrize("ns,gauge", [((441,), "zero")] + [
    (ns, gauge) for ns in [(21, 21), (7, 9, 7)]
    for gauge in ["zero", "symmetric", "landau", "transversal"]])
def test_quantizer_table_preflight_covers_measured_peak(ns, gauge, monkeypatch):
    """A cold table build at N = 441 peaks below the bytes its preflight
    checked, in every gauge (transversal: a position-dependent B)."""
    grid = PhaseSpaceGrid.build(ns, 0.6, eps=0.1)
    fld = _field_in_gauge(gauge, grid.dim)
    checked = {}
    monkeypatch.setattr(weyl, "check_dense_memory",
                        lambda what, grid, nbytes: checked.setdefault(what, nbytes))
    weyl._last_tables = None
    tracemalloc.start()
    try:
        weyl._quantizer_tables(grid, fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        weyl._last_tables = None
    assert 0 < peak <= checked["quantizer tables"]


def test_dense_paths_refuse_grids_beyond_physical_memory():
    grid = PhaseSpaceGrid.build((1001, 1001), 0.5, eps=0.1)
    fld = EMFieldConfig.constant(2, b=1.0, eps=0.1, lam=0.5)
    N = grid.n_points
    sym = GridSymbol(grid, np.broadcast_to(np.complex128(0.0), grid.ns + grid.ns))
    op = QuantizedOperator(grid, np.broadcast_to(np.complex128(0.0), (N, N)))
    tracemalloc.start()
    try:
        for call in (lambda: quantize(sym, fld),
                     lambda: dequantize(op, fld),
                     lambda: weyl._quantizer_tables(grid, fld)):
            with pytest.raises(DenseMemoryError, match=r"\(1001, 1001\).* GiB"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_memory_figure_is_the_smallest_reported(tmp_path, monkeypatch):
    cgroup, meminfo = tmp_path / "memory.max", tmp_path / "meminfo"
    monkeypatch.setattr(weyl, "CGROUP_MEMORY_MAX", str(cgroup))
    monkeypatch.setattr(weyl, "MEMINFO", str(meminfo))
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}      # 4 GiB
    monkeypatch.setattr(weyl.os, "sysconf", pages.__getitem__)

    def refusal(nbytes):
        with pytest.raises(DenseMemoryError) as exc:
            weyl.check_dense_memory("quantize", (5,), nbytes)
        return str(exc.value)

    # neither file exists: physical memory binds
    assert weyl._memory_figures() == {"physical memory": 4 * 2**30}
    weyl.check_dense_memory("quantize", (5,), 3 * 2**30)
    assert refusal(5 * 2**30) == ("quantize on grid (5,) needs an estimated 5.0 GiB, "
                                  "more than the 4.0 GiB of physical memory")
    cgroup.write_text("max\n")          # no cgroup limit
    meminfo.write_text("MemTotal:        8000000 kB\nMemAvailable:    2097152 kB\n")
    assert refusal(3 * 2**30).endswith("the 2.0 GiB of available memory")
    cgroup.write_text("1073741824\n")
    assert refusal(1.5 * 2**30).endswith("the 1.0 GiB of the cgroup memory limit")
    weyl.check_dense_memory("quantize", (5,), 2**29)

    def unreported(name):
        raise ValueError(name)
    monkeypatch.setattr(weyl.os, "sysconf", unreported)
    cgroup.unlink()
    meminfo.unlink()
    assert weyl._memory_figures() == {}
    weyl.check_dense_memory("quantize", (5,), 2.0**80)   # nothing to compare against


def test_dense_builders_refuse_grids_beyond_physical_memory():
    grid = PhaseSpaceGrid.build((1001, 1001), 0.5, eps=0.1)
    fld = EMFieldConfig.constant(2, b=1.0, eps=0.1, lam=0.5)
    sym = GridSymbol(grid, np.broadcast_to(np.complex128(0.0), grid.ns + grid.ns))
    tracemalloc.start()
    try:
        for call in (lambda: position_operator(grid, 0),
                     lambda: commutation_check(grid, fld),
                     lambda: exact_product(sym, sym, fld)):
            with pytest.raises(DenseMemoryError, match=r"\(1001, 1001\).* GiB"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dequantize_gaussian_roundtrip_interior():
    grid = PhaseSpaceGrid.build(33, np.sqrt(2 * np.pi / 33), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    sym = gaussian_symbol(grid)
    back = dequantize(quantize(sym, fld), fld)
    assert interior_max(sym, back) < 1e-8


def test_dequantize_hermitian_gives_real():
    grid = PhaseSpaceGrid.build(33, np.sqrt(2 * np.pi / 33), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    sym = gaussian_symbol(grid)
    op = quantize(sym, fld)
    herm = 0.5 * (op.matrix + op.matrix.conj().T)
    from peierls_lab.weyl import QuantizedOperator
    back = dequantize(QuantizedOperator(grid, herm), fld)
    assert np.abs(back.samples.imag).max() < 1e-8


def test_hermiticity_of_real_symbol():
    # structural property of the kernel for real symbols, any sampling
    grid = PhaseSpaceGrid.build((9, 9), 0.7, eps=0.2)
    fld = EMFieldConfig.constant(2, b=0.5, eps=0.2, lam=1.0)
    sym = gaussian_symbol(grid)
    assert quantize(sym, fld, assume_bandlimited=True).hermiticity_defect() < 1e-10


def test_aliasing_guard():
    rough = sample_symbol(lambda k, r: np.sign(np.sin(40 * r[..., 0] + 0.1)), GRID_1D)
    with pytest.raises(WeylError):
        quantize(rough, FIELD_0)


@pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan])
def test_field_rejects_non_finite_eps(eps):
    with pytest.raises(FieldError, match="eps must be finite"):
        EMFieldConfig.constant(2, b=1.0, eps=eps, lam=0.5)


def test_field_validation():
    with pytest.raises(FieldError):
        EMFieldConfig.constant(2, b=1.0, eps=0.1, lam=1.5)
    bad_B = lambda r: np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                      np.shape(r)[:-1] + (2, 2))
    with pytest.raises(FieldError):
        EMFieldConfig(eps=0.1, lam=0.5, dim=2, bfield=bad_B,
                      vector_potential=lambda r: np.zeros(np.shape(r)),
                      gauge="custom")
    # a linear gauge tag needs an affine A whose curl is B
    B = np.array([[0.0, 0.8], [-0.8, 0.0]])
    sym = lambda r: -0.5 * np.asarray(r) @ B.T
    bent = lambda r: sym(r) + 3 * np.asarray(r)[..., :1] ** 2 * np.array([1.0, 0.0])
    for gauge, A, message in [("symmetric", bent, "symmetric gauge needs .* affine"),
                              ("landau", lambda r: 2 * sym(r), r"dA != B")]:
        with pytest.raises(FieldError, match=message):
            EMFieldConfig(eps=0.1, lam=0.5, dim=2, bfield=B, vector_potential=A, gauge=gauge)
    # the bent A is a pure gauge change (its curl is B), fine in a general gauge
    EMFieldConfig(eps=0.1, lam=0.5, dim=2, bfield=B, vector_potential=bent, gauge="general")


def test_exact_product_unit():
    grid = PhaseSpaceGrid.build(33, np.sqrt(2 * np.pi / 33), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    f = gaussian_symbol(grid)
    one = sample_symbol(lambda k, r: 1.0, grid)
    prod = exact_product(f, one, fld)
    assert np.abs(prod.samples - f.samples).max() < 1e-10


def test_exact_product_matches_moyal_oracle():
    n = 65
    grid = PhaseSpaceGrid.build(n, np.sqrt(2 * np.pi / n), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    f = gaussian_symbol(grid, ax=2.0, ak=1.2)
    g = gaussian_symbol(grid, cx=0.15, ck=-0.2, ax=1.4, ak=1.0)
    prod = exact_product(f, g, fld)
    oracle = moyal_oracle(f, g, 0.4)
    assert interior_max(prod, oracle) < 1e-7


def moyal_oracle_2d(f: GridSymbol, g: GridSymbol, eps: float) -> np.ndarray:
    """Twisted spectral convolution in two dimensions (test oracle).

    The twist sig(u1, u2) = sum_l wx_l(u1) wk_l(u2) - wk_l(u1) wx_l(u2) is a
    sum of per-axis products, so exp(-i eps sig / 2) is a product of
    per-axis factors, read by index from one n x n phase table per axis."""
    ns = f.samples.shape
    n = ns[0]
    H = [f.grid.eps * f.grid.h[l] for l in range(2)]
    hxi = [f.grid.xi_axis(l)[1] - f.grid.xi_axis(l)[0] for l in range(2)]
    wx = [2 * np.pi * np.fft.fftfreq(n, d=H[l]) for l in range(2)]
    wk = [2 * np.pi * np.fft.fftfreq(n, d=hxi[l]) for l in range(2)]
    F = np.fft.fftn(f.samples)
    G = np.fft.fftn(g.samples)
    # table[ax][u, a]: the factor of axis ax at second-factor frequency a,
    # with u the first factor's frequency on the conjugate axis partner[ax]
    table = [np.exp(0.5j * eps * np.outer(wk[l], wx[l])) for l in range(2)] + \
        [np.exp(-0.5j * eps * np.outer(wx[l], wk[l])) for l in range(2)]
    partner = (2, 3, 0, 1)
    out = np.zeros_like(F)
    idx = np.arange(n)
    # loop over the first factor's (4d) frequency; inner ops vectorized
    for u1 in np.ndindex((n,) * 4):
        c = F[u1]
        if abs(c) < 1e-14 * 1.0:
            continue
        a2 = [(idx - u1[ax]) % n for ax in range(4)]
        term = c
        for ax in range(4):
            term = np.multiply.outer(term, table[ax][u1[partner[ax]], a2[ax]])
        out += G[np.ix_(*a2)] * term
    return np.fft.ifftn(out) / np.prod(ns)


def test_lambda_continuity_to_moyal():
    """lam -> 0 recovers the nonmagnetic product.

    Two links at full precision: the lam-limit itself (2D, where the
    magnetic phases live), and the nonmagnetic product against the twisted
    convolution oracle (2D at its n=11 alias floor; the sharp 1e-7 version
    of the same identity runs in 1D in
    test_exact_product_matches_moyal_oracle).
    """
    grid2 = PhaseSpaceGrid.build((11, 11), 0.8, eps=0.8)
    f = gaussian_symbol(grid2)
    g = gaussian_symbol(grid2, cx=0.2)
    fld_tiny = EMFieldConfig.constant(2, b=1.0, eps=0.8, lam=1e-6)
    fld_zero = EMFieldConfig.zero(2, eps=0.8)
    p_tiny = exact_product(f, g, fld_tiny, assume_bandlimited=True)
    p_zero = exact_product(f, g, fld_zero, assume_bandlimited=True)
    assert np.abs(p_tiny.samples - p_zero.samples).max() < 1e-5
    oracle = moyal_oracle_2d(f, g, 0.8)
    assert interior_max(p_zero, oracle) < 2e-2


def test_real_square_hermitian_symbol():
    grid = PhaseSpaceGrid.build(33, np.sqrt(2 * np.pi / 33), eps=0.4)
    fld = EMFieldConfig.zero(1, eps=0.4)
    f = gaussian_symbol(grid)
    sq = exact_product(f, f, fld)
    op = quantize(f, fld)
    assert np.abs((op.matrix @ op.matrix)
                  - (op.matrix @ op.matrix).conj().T).max() < 1e-10
    # symbol of a Hermitian operator square is real
    assert interior_max(GridSymbol(grid, np.imag(sq.samples)
                                   + 0j)) < 1e-8


def test_poisson_trivials():
    grid = PhaseSpaceGrid.build((11, 11), 0.6, eps=0.1)
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    s_x1 = sample_symbol(lambda k, r: r[..., 0], grid)
    s_k1 = sample_symbol(lambda k, r: k[..., 0], grid)
    s_k2 = sample_symbol(lambda k, r: k[..., 1], grid)
    br = magnetic_poisson(s_k1, s_x1, fld)
    assert interior_max(br, 1.0) < 1e-12
    br_kk = magnetic_poisson(s_k1, s_k2, fld)
    assert interior_max(GridSymbol(grid, br_kk.samples + 0.7 * 0.9)) < 1e-12
    fld0 = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.0)
    br0 = magnetic_poisson(s_k1, s_k2, fld0)
    assert np.abs(br0.samples).max() < 1e-12


def test_expanded_product_orders():
    f = gaussian_symbol(GRID_1D)
    g = gaussian_symbol(GRID_1D, cx=0.1)
    o0 = expanded_product(f, g, FIELD_0, 0)
    assert np.abs(o0.samples - f.samples * g.samples).max() == 0.0
    with pytest.raises(WeylError):
        expanded_product(f, g, FIELD_0, 2)


def expansion_errors(eps_list, lam=0.0, b=0.0):
    n = 321
    X_box = 5.0
    h = (2 * X_box / min(eps_list)) / n
    errs = []
    for ee in eps_list:
        grid = PhaseSpaceGrid.build(n, h, eps=ee)
        fld = EMFieldConfig.zero(1, eps=ee) if lam == 0.0 else \
            EMFieldConfig.constant(1, b=b, eps=ee, lam=lam)
        f = sample_symbol(lambda k, r: np.exp(-r[..., 0] ** 2 - 0.5 * k[..., 0] ** 2
                                              + 0.4 * r[..., 0] * k[..., 0]), grid)
        g = sample_symbol(lambda k, r: np.exp(-1.3 * (r[..., 0] - 0.2) ** 2
                                              - 0.8 * (k[..., 0] + 0.3) ** 2), grid)
        ex = exact_product(f, g, fld)
        o1 = expanded_product(f, g, fld, 1)
        errs.append(interior_max(ex, o1))
    return np.asarray(errs)


def test_expansion_second_order_eps():
    errs = expansion_errors([0.2, 0.1, 0.05])
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)


def test_antisymmetrized_product_vs_bracket():
    n = 321
    ee = 0.1
    h = (2 * 5.0 / 0.05) / n
    grid = PhaseSpaceGrid.build(n, h, eps=ee)
    fld = EMFieldConfig.zero(1, eps=ee)
    f = sample_symbol(lambda k, r: np.exp(-r[..., 0] ** 2 - 0.5 * k[..., 0] ** 2), grid)
    g = sample_symbol(lambda k, r: np.exp(-1.3 * (r[..., 0] - 0.3) ** 2
                                          - 0.7 * (k[..., 0] - 0.4) ** 2), grid)
    comm = exact_product(f, g, fld).samples - exact_product(g, f, fld).samples
    br = magnetic_poisson(f, g, fld)
    resid = GridSymbol(grid, comm + 1j * ee * br.samples)
    scale = ee * np.abs(br.samples).max()
    assert interior_max(resid) < 0.05 * scale


def test_gauge_covariance_zero_and_constant_chi():
    grid = PhaseSpaceGrid.build((11, 11), 0.6, eps=0.1)
    f_sym = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    g = gaussian_symbol(grid)
    dev0 = gauge_covariance_check(g, f_sym, f_sym, lambda X: np.zeros(X.shape[:-1]))
    assert dev0 < 1e-14
    devc = gauge_covariance_check(g, f_sym, f_sym,
                                  lambda X: 3.7 * np.ones(X.shape[:-1]))
    assert devc < 1e-12


def test_gauge_covariance_symmetric_vs_landau():
    grid = PhaseSpaceGrid.build((13, 13), 0.6, eps=0.1)
    b = 0.9
    f_sym = EMFieldConfig.constant(2, b=b, eps=0.1, lam=0.7)
    f_lan = EMFieldConfig.constant(2, b=b, eps=0.1, lam=0.7, gauge="landau")
    g = gaussian_symbol(grid)
    chi = lambda X: -b * X[..., 0] * X[..., 1] / 2
    assert gauge_covariance_check(g, f_sym, f_lan, chi) < 1e-8


def test_gauge_covariance_random_polynomials():
    grid = PhaseSpaceGrid.build((11, 11), 0.6, eps=0.1)
    b = 0.9
    f_sym = EMFieldConfig.constant(2, b=b, eps=0.1, lam=0.7)
    rng = np.random.default_rng(4)
    g = gaussian_symbol(grid)
    for _ in range(5):
        c = rng.normal(size=6)

        def chi(X, c=c):
            x, y = X[..., 0], X[..., 1]
            return (c[0] * x + c[1] * y + c[2] * x * y
                    + c[3] * x ** 2 + c[4] * y ** 2 + c[5] * x ** 2 * y)

        def A_prime(r, c=c):
            base = f_sym.A(r)
            x, y = r[..., 0], r[..., 1]
            gx = c[0] + c[2] * y + 2 * c[3] * x + 2 * c[5] * x * y
            gy = c[1] + c[2] * x + 2 * c[4] * y + c[5] * x ** 2
            return base + np.stack([gx, gy], axis=-1)

        fld_prime = EMFieldConfig(eps=0.1, lam=0.7, dim=2,
                                  bfield=f_sym.bfield,
                                  vector_potential=A_prime, gauge="general")
        assert gauge_covariance_check(g, f_sym, fld_prime, chi) < 1e-8


def test_commutation_relations_2d():
    nn = 33
    grid = PhaseSpaceGrid.build((nn, nn), np.sqrt(2 * np.pi / nn), eps=0.1)
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    res = commutation_check(grid, fld, n_states=8, seed=1)
    assert res["qq"] < 1e-12
    assert res["qp"] < 1e-8
    assert res["pp"] < 1e-8


def test_position_operator_diagonal():
    Q = position_operator(GRID_1D, 0)
    assert np.abs(Q.matrix - np.diag(0.1 * GRID_1D.x_axis(0))).max() < 1e-14


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert abs(operator_norm(M) - np.linalg.svd(M, compute_uv=False)[0]) < 1e-8


def test_resample_periodic_roundtrip():
    rng = np.random.default_rng(3)
    coarse = np.fft.ifftn(np.pad(np.fft.fftn(rng.normal(size=(9, 9))),
                                 ((0, 0), (0, 0)))).real
    fine = resample_periodic(coarse, (27, 27))
    assert np.abs(fine[::3, ::3] - coarse).max() < 1e-13
    back = resample_periodic(fine, (9, 9))
    assert np.abs(back - coarse).max() < 1e-12
    line = rng.normal(size=5)
    assert np.abs(resample_periodic(line, (15,))[::3] - line).max() < 1e-13
    # an even size has a Nyquist bin with no symmetric partner: refused
    for old, new in [((4,), (8,)), ((9,), (8,)), ((9, 8), (9, 9))]:
        samples = np.cos(np.pi * np.indices(old).sum(axis=0))
        with pytest.raises(WeylError, match=re.escape(f"{old} -> {new}")):
            resample_periodic(samples, new)


def test_coherent_state_normalized():
    psi = coherent_state(GRID_1D, [0.5], [1.0], [1.2])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
