"""Reference implementations the tests compare the package against, and
the adapters only tests use.

They sit beside the tests, not in peierls_lab, so the code they check cannot
call them (tests/test_package_holds_what_runs.py keeps it so):
- Weyl calculus: dequantize, the exact inverse of quantize; exact_product,
  the operator product read back as a symbol; the magnetic Poisson bracket
  and the first-order product expansion; gauge covariance; the canonical
  commutation relations on coherent states;
- Hofstadter: band edges from the transfer-matrix trace and Chern labels
  from the Diophantine gap equation;
- fiber: single fiber matrices, the dense dual-shift matrix and the
  dual-shift equivariance defect;
- geometry: the Rammal-Wilkinson tensor as a sum over every band's states;
- quantum: the Zak transform's dual-shift identity and a reference
  propagation of a quantized Hamiltonian;
- flow: closed-form Hamiltonians and the corrected Poisson bracket;
- lattice: zone coefficients and wrapping into the Brillouin zone;
- synthetic_band and interior_max, which build a band from callables and
  read a symbol on its interior window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from peierls_lab.effective import BandData
from peierls_lab.fiber import (FiberError, FourierPotential, PlaneWaveBasis, fiber_terms,
                               solve_bands)
from peierls_lab.fields import EMFieldConfig, _contract
from peierls_lab.flow import _solve_structure
from peierls_lab.hofstadter import HofstadterError
from peierls_lab.lattice import Lattice, LatticeError, make_kgrid
from peierls_lab.quantum import Propagator, QuantumError, WaveFunction, _hermitian_part
from peierls_lab.weyl import (_QUANTIZE_BYTES, GridSymbol, PhaseSpaceGrid,
                              QuantizedOperator, WeylError, _half_shift, _interior_margin,
                              _quantizer_tables, check_dense_memory, quantize)


# -- Weyl calculus ------------------------------------------------------------


def dequantize(op: QuantizedOperator, field: EMFieldConfig) -> GridSymbol:
    """Exact inverse of quantize on the same grid."""
    grid = op.grid
    d, ns, N = grid.dim, grid.ns, grid.n_points
    if op.matrix.shape != (N, N):
        raise WeylError("operator matrix does not match its grid")
    check_dense_memory("dequantize", ns, _QUANTIZE_BYTES * N * N)
    tables = _quantizer_tables(grid, field)
    # for odd n the gather is a bijection onto the (mu, delta) table, so
    # scattering through it inverts quantize's gather exactly
    T = np.empty(ns + ns, dtype=complex)
    T.reshape(-1)[tables.gather] = (op.matrix if tables.weight is None
                                    else op.matrix / tables.weight)
    np.fft.fftn(T, axes=tuple(range(d)), norm="forward", out=T)
    np.fft.ifftn(_half_shift(T, d), norm="forward", out=T)
    return GridSymbol(grid=grid, samples=np.fft.fftshift(T, axes=tuple(range(d, 2 * d))))


def exact_product(f: GridSymbol, g: GridSymbol, field: EMFieldConfig,
                  assume_bandlimited: bool = False) -> GridSymbol:
    """Symbol of the operator product: dequantize(quantize(f) quantize(g))."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise WeylError("operands live on different grids")
    N = f.grid.n_points
    # both factors stay alive through the second quantize and the dequantize
    check_dense_memory("exact_product", f.grid.ns, (32 + _QUANTIZE_BYTES) * N * N)
    Mf = quantize(f, field, assume_bandlimited=assume_bandlimited)
    Mg = quantize(g, field, assume_bandlimited=assume_bandlimited)
    prod = QuantizedOperator(grid=f.grid, matrix=Mf.matrix @ Mg.matrix)
    return dequantize(prod, field)


def _centered_derivative(samples: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Fourth-order centered difference with periodic wrap (exact on linear
    data away from the seam)."""
    p1 = np.roll(samples, -1, axis=axis)
    m1 = np.roll(samples, +1, axis=axis)
    p2 = np.roll(samples, -2, axis=axis)
    m2 = np.roll(samples, +2, axis=axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * spacing)


def magnetic_poisson(f: GridSymbol, g: GridSymbol, field: EMFieldConfig) -> GridSymbol:
    """Magnetic Poisson bracket
    {f, g} = sum_l (d_xi_l f d_X_l g - d_X_l f d_xi_l g)
             - lam sum_lj B_lj(X) d_xi_l f d_xi_j g.

    Centered differences (fourth order) with periodic wrap; rows within two
    points of the box seam are only trustworthy for seam-periodic symbols, so
    comparisons belong on interior windows.
    """
    grid = f.grid
    d = grid.dim
    hX = [grid.eps * grid.h[l] for l in range(d)]
    hXi = [grid.xi_axis(l)[1] - grid.xi_axis(l)[0] for l in range(d)]
    dXf = [_centered_derivative(f.samples, l, hX[l]) for l in range(d)]
    dXg = [_centered_derivative(g.samples, l, hX[l]) for l in range(d)]
    dKf = [_centered_derivative(f.samples, d + l, hXi[l]) for l in range(d)]
    dKg = [_centered_derivative(g.samples, d + l, hXi[l]) for l in range(d)]
    out = np.zeros_like(f.samples)
    for l in range(d):
        out = out + dKf[l] * dXg[l] - dXf[l] * dKg[l]
    if field.lam != 0.0:
        B = field.B(grid.phase_points()[0])
        for l in range(d):
            for j in range(d):
                if l == j:
                    continue
                out = out - field.lam * B[..., l, j] * dKf[l] * dKg[j]
    return GridSymbol(grid=grid, samples=out)


def expanded_product(f: GridSymbol, g: GridSymbol, field: EMFieldConfig,
                     order: int) -> GridSymbol:
    """Asymptotic product: order 0 is the pointwise product, order 1 adds
    -(i eps / 2) {f, g}."""
    if order not in (0, 1):
        raise WeylError("order must be 0 or 1")
    samples = f.samples * g.samples
    if order == 1:
        br = magnetic_poisson(f, g, field)
        samples = samples - 0.5j * field.eps * br.samples
    return GridSymbol(grid=f.grid, samples=samples)


def gauge_covariance_check(symbol: GridSymbol, field: EMFieldConfig,
                           field_prime: EMFieldConfig, chi) -> float:
    """Deviation of Op_{A'}(f) from the chi-conjugation of Op_A(f).

    A' and A must differ by the gradient of chi (a function of the macro
    position).  The conjugating unitary is exp(+i (lam/eps) chi(eps x)).
    Returns the largest entry of the difference matrix.
    """
    Ma = quantize(symbol, field, assume_bandlimited=True)
    Mb = quantize(symbol, field_prime, assume_bandlimited=True)
    Xpts = field.eps * symbol.grid.points_micro()
    u = np.exp(1j * (field.lam / field.eps) * np.asarray(chi(Xpts)))
    conj = u[:, None] * Ma.matrix * np.conj(u)[None, :]
    return float(np.abs(Mb.matrix - conj).max())


def position_operator(grid: PhaseSpaceGrid, axis: int) -> QuantizedOperator:
    """Quantization of the macro coordinate X_axis: the diagonal matrix."""
    N = grid.n_points
    check_dense_memory("position_operator", grid.ns, 16 * N * N)
    matrix = np.zeros((N, N), dtype=complex)
    matrix.flat[::N + 1] = grid.eps * grid.points_micro()[:, axis]
    return QuantizedOperator(grid=grid, matrix=matrix)


def momentum_operator(grid: PhaseSpaceGrid, field: EMFieldConfig,
                      axis: int) -> QuantizedOperator:
    """Quantization of xi_axis (kinetic momentum when lam > 0)."""
    sh = [1] * (2 * grid.dim)
    sh[grid.dim + axis] = grid.ns[axis]
    xi = grid.xi_axis(axis).astype(complex).reshape(sh)
    sym = GridSymbol(grid=grid, samples=np.broadcast_to(xi, grid.ns + grid.ns))
    return quantize(sym, field, assume_bandlimited=True)


def coherent_state(grid: PhaseSpaceGrid, x0, k0, sigma) -> np.ndarray:
    """Normalized Gaussian wave packet on the micro grid (flat vector)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (grid.dim,))
    parts = []
    for l in range(grid.dim):
        x = grid.x_axis(l)
        parts.append(np.exp(-((x - x0[l]) ** 2) / (4 * sigma[l] ** 2) + 1j * k0[l] * x))
    v = parts[0]
    for p in parts[1:]:
        v = np.multiply.outer(v, p)
    v = v.ravel()
    return v / np.linalg.norm(v)


def commutation_check(grid: PhaseSpaceGrid, field: EMFieldConfig,
                      n_states: int = 12, seed: int = 0) -> dict:
    """Residuals of the canonical commutation relations on interior
    band-limited probe states.

    Measures max over a batch of coherent states of
      |([Q_l, Q_j]) psi|, |([Q_l, P_j] - i eps delta_lj) psi|,
      |([P_l, P_j] - i eps lam B_lj(Q)) psi|.
    """
    d = grid.dim
    N = grid.n_points
    # d position and d momentum matrices, the last built by quantize
    check_dense_memory("commutation_check", grid.ns, (32 * d + _QUANTIZE_BYTES) * N * N)
    rng = np.random.default_rng(seed)
    Q = [position_operator(grid, l).matrix for l in range(d)]
    P = [momentum_operator(grid, field, l).matrix for l in range(d)]
    pts = grid.eps * grid.points_micro()
    box = min(grid.x_axis(l)[-1] for l in range(d))
    nyq = min(np.pi / grid.h[l] for l in range(d))
    sigma = np.sqrt(box / (2 * nyq)) * np.ones(d)
    res = {"qq": 0.0, "qp": 0.0, "pp": 0.0}
    for _ in range(n_states):
        x0 = rng.uniform(-0.15 * box, 0.15 * box, d)
        k0 = rng.uniform(-0.15 * nyq, 0.15 * nyq, d)
        psi = coherent_state(grid, x0, k0, sigma)
        for l in range(d):
            for j in range(d):
                r_qq = (Q[l] @ (Q[j] @ psi)) - (Q[j] @ (Q[l] @ psi))
                res["qq"] = max(res["qq"], float(np.abs(r_qq).max()))
                r_qp = (Q[l] @ (P[j] @ psi)) - (P[j] @ (Q[l] @ psi))
                target = 1j * field.eps * psi if l == j else 0.0
                res["qp"] = max(res["qp"], float(np.abs(r_qp - target).max()))
                if j > l:
                    r_pp = (P[l] @ (P[j] @ psi)) - (P[j] @ (P[l] @ psi))
                    Bq = field.B(pts)[..., l, j]
                    t_pp = 1j * field.eps * field.lam * Bq * psi
                    res["pp"] = max(res["pp"], float(np.abs(r_pp - t_pp).max()))
    return res


def interior_max(symbol: GridSymbol, other=None) -> float:
    """Max |symbol - other| over the interior phase-space window (other a
    GridSymbol, an array that broadcasts to the samples, or None)."""
    diff = symbol.samples if other is None else symbol.samples - (
        other.samples if isinstance(other, GridSymbol) else other)
    sl = [slice(_interior_margin(n), n - _interior_margin(n)) for n in symbol.samples.shape]
    return float(np.abs(diff[tuple(sl)]).max())


# -- Hofstadter ---------------------------------------------------------------


def transfer_trace_edges(flux: Fraction) -> np.ndarray:
    """Independent band edges from the transfer-matrix trace condition.

    The one-cycle transfer trace splits as tr M(E, theta2) = G(E) + a cos(q theta2);
    the spectrum is {E : |G(E)| <= 2 + |a|}, so edges are roots of
    G(E) = +-(2 + |a|).  G is reconstructed as a degree-q polynomial from
    sampled traces.
    """
    q = flux.denominator

    def trace(E, th2):
        M = np.eye(2)
        for nn in range(q):
            v = np.cos(2 * np.pi * float(flux) * nn + th2)
            T = np.array([[2.0 * (E - v), -1.0], [1.0, 0.0]])
            M = T @ M
        return np.trace(M)

    Es = np.cos(np.pi * (2 * np.arange(q + 1) + 1) / (2 * (q + 1))) * 2.5
    G = np.array([0.5 * (trace(E, 0.0) + trace(E, np.pi / q)) for E in Es])
    a = 0.5 * (trace(Es[0], 0.0) - trace(Es[0], np.pi / q))
    coeffs = np.polyfit(Es, G, q)
    edges = []
    for s in (+1.0, -1.0):
        c = coeffs.copy()
        c[-1] -= s * (2.0 + abs(a))
        roots = np.roots(c)
        edges.extend(np.sort(roots[np.abs(roots.imag) < 1e-9].real))
    edges = np.sort(np.asarray(edges))
    if len(edges) != 2 * q:
        raise HofstadterError("edge extraction failed (unexpected root count)")
    return edges.reshape(q, 2)


def diophantine_chern_labels(flux: Fraction) -> list:
    """Brute-force gap labels: t_r solves p t = r (mod q) with |t| <= q/2;
    subband Chern numbers are first differences."""
    p, q = flux.numerator, flux.denominator
    ts = [0]
    for r in range(1, q):
        sols = [t for t in range(-(q // 2), q // 2 + 1) if (p * t - r) % q == 0]
        if len(sols) != 1:
            raise HofstadterError(f"gap label ambiguous at r={r} for {p}/{q}")
        ts.append(sols[0])
    ts.append(0)
    return [ts[r + 1] - ts[r] for r in range(q)]


# -- fiber --------------------------------------------------------------------


@dataclass(frozen=True)
class FiberMatrix:
    k: np.ndarray
    basis: PlaneWaveBasis
    matrix: np.ndarray


def fiber_matrix(k, potential: FourierPotential, cutoff: int,
                 basis: PlaneWaveBasis | None = None) -> FiberMatrix:
    """Assemble the Hermitian plane-wave fiber matrix at momentum k.

    The matrix is real symmetric (float64) when every Vhat(g) is real.
    """
    if basis is None:
        basis = PlaneWaveBasis.build(potential.lattice, cutoff)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if not np.all(np.isfinite(k)):
        raise FiberError("k must be finite")
    V, kin = fiber_terms(potential, basis, k[None, :])
    return FiberMatrix(k=k, basis=basis, matrix=V + np.diag(kin[0]))


def shift_matrix(basis: PlaneWaveBasis, n_shift) -> np.ndarray:
    """Matrix of multiplication by e^{+i g.y} for g with integer coefficients
    n_shift: basis vector g_m is sent to g_m + g.

    Targets outside the box are dropped (zero fill); callers must keep
    shifts within their accuracy margin.  The dense counterpart of
    BandStructure.translate's index gather.
    """
    n_shift = np.asarray(n_shift, dtype=int)
    D = basis.size
    S = np.zeros((D, D))
    tgt = basis.offsets + n_shift
    ok = np.all(np.abs(tgt) <= basis.cutoff, axis=1)
    S[basis.index_of(tgt[ok]), np.nonzero(ok)[0]] = 1.0
    return S


def tau_equivariance_check(potential: FourierPotential, k, n_shift, cutoff: int) -> float:
    """Deviation of H(k - g) from the index-shift conjugation of H(k).

    n_shift are the integer coefficients of the dual vector g.  The comparison
    is restricted to the sub-box that both index sets cover; a shift exceeding
    the cutoff margin is rejected.
    """
    n_shift = np.atleast_1d(np.asarray(n_shift, dtype=int))
    margin = int(np.max(np.abs(n_shift)))
    if margin >= cutoff + 1:
        raise FiberError(f"shift {tuple(n_shift)} exceeds cutoff margin")
    lat = potential.lattice
    basis = PlaneWaveBasis.build(lat, cutoff)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    g = lat.dual_vector(n_shift)
    H_k = fiber_matrix(k, potential, cutoff, basis).matrix
    H_shift = fiber_matrix(k - g, potential, cutoff, basis).matrix
    S = shift_matrix(basis, n_shift)
    conj = S @ H_k @ S.T
    keep = np.all(np.abs(basis.offsets - n_shift) <= cutoff, axis=1)
    sub = np.ix_(keep, keep)
    return float(np.linalg.norm(H_shift[sub] - conj[sub]))


# -- geometry -----------------------------------------------------------------


def rw_spectral_sum_oracle(bands, frame):
    """Sum-over-states evaluation with independent one-sided stencils."""
    grid = frame.kgrid
    d = grid.dim
    full = solve_bands(bands.potential, grid, bands.basis.cutoff,
                       bands.basis.size)
    n_all = full.n_bands
    b = frame.band
    # derivatives of the frame by 4th-order one-sided-free centered stencil
    # over the grid (reuse the frame's own vectors, different combination)
    from peierls_lab.geometry import _k_derivatives
    dphi = _k_derivatives(frame)
    shape = grid.shape
    M = np.zeros(shape + (d, d))
    vecs_all = full.vectors  # (n_all, N, D)
    E_all = full.energies
    N = grid.n_points
    dphi_flat = dphi.reshape(d, N, -1)
    for p in range(N):
        t = np.zeros((d, d), dtype=complex)
        for m in range(n_all):
            if m == b:
                continue
            amp = np.conj(vecs_all[m, p]) @ dphi_flat[:, p, :].T  # (d,)
            t += np.outer(np.conj(amp), amp) * (E_all[m, p] - bands.energies[b, p])
        M.reshape(N, d, d)[p] = np.real(0.5j * t)
    return M


# -- quantum ------------------------------------------------------------------


def zak_transform(psi: WaveFunction) -> np.ndarray:
    """The Zak samples u (n_cells, m), u(k_q, y_j) = N^{-1/2} sum_c
    e^{-i k_q (y_j + c)} psi(c + y_j), with k_q the points of
    box.fiber_grid(), in [-pi, pi)."""
    box = psi.box
    arr = psi.samples.reshape(box.n_cells, box.m)
    gam = box.cell_offsets()
    kq = box.fiber_grid().points[:, 0]
    # sum over cells with e^{-i k_q gamma_c}
    ph_cell = np.exp(-1j * np.outer(kq, gam))
    u = ph_cell @ arr / np.sqrt(box.n_cells)
    return u * np.exp(-1j * np.outer(kq, box.cell_coords()))


ZAK_CHECK_FIBERS = 4     # fibers zak_equivariance_defect samples


def zak_equivariance_defect(psi: WaveFunction) -> float:
    """Deviation of the dual-shift identity u(k - 2 pi, y) = e^{2 pi i y} u(k, y)
    evaluated directly from the transform definition, at fiber momenta k of
    box.fiber_grid()."""
    box = psi.box
    u = zak_transform(psi)
    arr = psi.samples.reshape(box.n_cells, box.m)
    gam = box.cell_offsets()
    y = box.cell_coords()
    kq = box.fiber_grid().points[:, 0]
    worst = 0.0
    for q in range(0, box.n_cells, max(1, box.n_cells // ZAK_CHECK_FIBERS)):
        k = kq[q] - 2 * np.pi
        u_shift = (np.exp(-1j * k * gam) @ arr) / np.sqrt(box.n_cells) * np.exp(-1j * k * y)
        target = np.exp(2j * np.pi * y) * u[q]
        worst = max(worst, float(np.abs(u_shift - target).max()))
    return worst


HERMITICITY_TOL = 1e-10  # largest Hermiticity defect propagate_reference accepts


def propagate_reference(h_op: QuantizedOperator, field: EMFieldConfig,
                        psi: np.ndarray, t: float) -> np.ndarray:
    """Evolve psi under the quantized effective Hamiltonian for macroscopic
    time t (spectral, unitary)."""
    defect = h_op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise QuantumError(f"quantized Hamiltonian not Hermitian ({defect:.2e})")
    return Propagator.of(_hermitian_part(h_op), h_op.grid.ns).apply(psi, t / field.eps)


# -- flow ---------------------------------------------------------------------


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
    terms = field.lam_terms(r) if field.lam != 0.0 else None
    fk, fr, _ = f.grad_pair(k, r)
    gk, gr, _ = g.grad_pair(k, r)
    # J^{-1} grad g is the vector field of g: (rdot, kdot)
    kdot, rdot = _solve_structure(gk, gr, terms, omega, field.eps)
    return -(_contract(fr, rdot) + _contract(fk, kdot))


# -- band data ----------------------------------------------------------------


def synthetic_band(lattice: Lattice, shape, energy, connection=None,
                   rw=None, curvature=None, upsample: int = 8) -> BandData:
    """BandData built from callables of k evaluated on a cell-centered grid."""
    grid = make_kgrid(lattice, shape)
    d = lattice.dim
    k = grid.points
    E = grid.reshape(np.asarray(energy(k), dtype=float))
    A, M, Om = [grid.reshape(np.asarray(f(k), dtype=float)) if f
                else np.zeros(grid.shape + tail)
                for f, tail in ((connection, (d,)), (rw, (d, d)), (curvature, (d, d)))]
    return BandData(lattice=lattice, shape=grid.shape, energy_samples=E,
                    connection_samples=A, rw_samples=M, curvature_samples=Om,
                    upsample=upsample)


# -- lattice ------------------------------------------------------------------


def _as_vectors(k: np.ndarray, dim: int) -> tuple:
    """Normalize k to shape (..., dim); returns (array, original_shape)."""
    k = np.asarray(k, dtype=float)
    if dim == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        k = k[..., None]
    if k.shape[-1] != dim:
        raise LatticeError(f"expected vectors with last axis {dim}, got shape {k.shape}")
    return k, k.shape


def bz_coefficients(k: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Coefficients alpha with k = sum_j alpha_j e*_j (last axis of k is d)."""
    k, shape = _as_vectors(k, lattice.dim)
    flat = k.reshape(-1, lattice.dim)
    alpha = np.linalg.solve(lattice.dual.T, flat.T).T
    return alpha.reshape(shape)


def wrap_to_bz(k: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Wrap k modulo the dual lattice into the centered cell, alpha_j in [-1/2, 1/2).

    Accepts a single vector or an (..., d) array (bare floats in 1D).
    """
    karr, shape = _as_vectors(k, lattice.dim)
    if not np.all(np.isfinite(karr)):
        raise LatticeError("wrap_to_bz requires finite k")
    alpha = bz_coefficients(karr, lattice)
    alpha = alpha - np.floor(alpha + 0.5)
    out = alpha @ lattice.dual
    return out.reshape(np.asarray(k, dtype=float).shape)
