"""External electromagnetic field configuration, and the pair convention of
the 2-forms.

The magnetic field enters everything downstream only through the
antisymmetric matrix B(r); vector potentials are needed solely for kernel
phases and may be supplied in any gauge with dA = B, where
B_lj = d_l A_j - d_j A_l.  For constant B the symmetric gauge
A(r) = -B r / 2 and the Landau gauge are built in; the transversal gauge
construction covers smooth position-dependent fields.

B, the Berry curvature Omega and the Rammal-Wilkinson tensor M are 2-forms,
held by their P = d(d-1)/2 pair components T_lj, l < j, in row order (12 in
2D; 12, 13, 23 in 3D; none in 1D).  A full contraction of two 2-forms is
sum_lj T_lj X_lj = sum_p (2 T_p) X_p: one side enters by its pair weights.
EMFieldConfig.lam_terms hands out lam B and the arrays the flows and models
make from it (LamTerms), built once per field when B is constant.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import PeierlsError

__all__ = ["EMFieldConfig", "FieldError", "LINEAR_GAUGES", "LamTerms"]

# gauge tags of a vector potential linear in position (a constant B)
LINEAR_GAUGES = ("symmetric", "landau")

# the values of numpy.polynomial.legendre.leggauss(8), written out: only the
# transversal gauge reads them, and importing numpy.polynomial for them cost
# every run its load
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS

_DB_STEP, _DB_TOL = 1e-5, 1e-6     # step and tolerance of _check_dbfield


class FieldError(PeierlsError, ValueError):
    pass


# lam B (..., d, d), its transpose, the pair weights 2 lam B_p and
# eps lam 2 B_p (..., P), and lam B_12 as (..., 1) in 2D (None otherwise)
LamTerms = namedtuple("LamTerms", "lamB lamB_T weights eps_weights b12")


def _contract(a, b) -> np.ndarray:
    """Sum of a * b over the last axis, one component product at a time.
    The leading shapes need only broadcast: for r-fields against k-fields on
    a phase-space axis pair this is several times faster than a
    broadcasting einsum and builds no (..., components) product array."""
    a, b = np.asarray(a), np.asarray(b)
    if not a.shape[-1]:                 # no components: the 2-forms of 1D
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _vecmat(v, M) -> np.ndarray:
    """v M, the sum over l of v_l M_lj, for vectors v (..., L) and matrices
    M (..., L, n) whose leading shapes broadcast; shape (..., n).

    A matrix shared by all points (a constant field's B, or the band data of
    a single point) makes this one BLAS product.  Otherwise each column is a
    _contract, L products that each run over all the points, which beats a
    broadcasting einsum or a stacked matmul on the narrow trailing axes of
    batched band data."""
    if M.ndim == 2:
        return v @ M
    return np.stack([_contract(v, M[..., j]) for j in range(M.shape[-1])],
                    axis=-1)


_PAIRS = {d: np.triu_indices(d, 1) for d in (1, 2, 3)}


def pairs(T, trailing: int = 0) -> np.ndarray:
    """The pair components (..., P, *t) of T (..., d, d, *t), antisymmetric
    in its (l, j) axes, for t the `trailing` axes; a view for d <= 2."""
    d = T.shape[-2 - trailing]
    ix = (0, slice(1, None)) if d <= 2 else _PAIRS[d]
    return T[(Ellipsis,) + ix + (slice(None),) * trailing]


def pair_weights(T, trailing: int = 0) -> np.ndarray:
    """2 T_p, the weights of T's pair components in a full contraction."""
    return 2.0 * pairs(T, trailing)


def wedge(a, v) -> np.ndarray:
    """The pair components a_l v_j - a_j v_l of a v^T - v a^T, for vectors
    a and v (..., d) whose leading shapes broadcast."""
    l, j = _PAIRS[a.shape[-1]]
    return a[..., l] * v[..., j] - a[..., j] * v[..., l]


def antisymmetric(c, d: int, trailing: int = 0) -> np.ndarray:
    """The full tensor (..., d, d, *t) with pair components c (..., P, *t)."""
    l, j = _PAIRS[d]
    cut = c.ndim - 1 - trailing
    T = np.zeros(c.shape[:cut] + (d, d) + c.shape[cut + 1:], dtype=c.dtype)
    lj, jl = [(Ellipsis, a, b) + (slice(None),) * trailing for a, b in ((l, j), (j, l))]
    T[lj], T[jl] = c, -c
    return T


def _zero_phi(r):
    return np.zeros(np.shape(r)[:-1])


def _zero_grad(r):
    return np.zeros(np.shape(r))


def _zero_grad_hess(r):
    return _zero_grad(r), np.zeros(np.shape(r) + np.shape(r)[-1:])


@dataclass(frozen=True)
class EMFieldConfig:
    """Scales and field data for one experiment.

    eps : finite scale-separation parameter, eps >= 0; eps = 0 is the
        classical limit, and eps > 1 is allowed.
    lam : magnetic amplitude ratio in [0, 1].
    dim : spatial dimension.
    bfield : (d, d) constant antisymmetric matrix, or callable r -> (..., d, d);
        read through B.
    vector_potential : callable r -> (..., d); gauge tag records the choice.
    phi, grad_phi : scalar potential r -> (...) and its gradient r -> (..., d).
    grad_hess_phi : callable r -> (grad phi, Hess phi), shapes (..., d) and
        (..., d, d), in one pass so the two derivatives can share work; the
        only route to the Hessian.
    dbfield : callable r -> (..., d, d, d) with entry [l, j, m] = d_m B_lj,
        required by every r-gradient of a position-dependent B; checked
        against central differences of bfield at sample points (FieldError).
    """

    eps: float
    lam: float
    dim: int
    bfield: object
    vector_potential: object
    gauge: str
    phi: object = dc_field(default=_zero_phi)
    grad_phi: object = dc_field(default=_zero_grad)
    grad_hess_phi: object = dc_field(default=_zero_grad_hess)
    dbfield: object = None

    def __post_init__(self):
        if not np.isfinite(self.eps):
            raise FieldError(f"eps must be finite, got {self.eps}")
        if self.eps < 0:
            raise FieldError("eps must be nonnegative")
        if not (0 <= self.lam <= 1):
            raise FieldError("lam must lie in [0, 1]")
        # the effective grad_pair reads grad phi from grad_hess_phi, the
        # semiclassical one from grad_phi: both describe one potential
        if (self.grad_phi is _zero_grad) != (self.grad_hess_phi is _zero_grad_hess):
            raise FieldError("grad_phi and grad_hess_phi must be given together")
        if not callable(self.bfield):
            # B hands out the stored matrix itself, so freeze a copy
            B = np.array(self.bfield, dtype=float)
            B.flags.writeable = False
            object.__setattr__(self, "bfield", B)
        B0 = self.B(np.zeros(self.dim))
        if B0.shape != (self.dim, self.dim):
            raise FieldError("B must produce (d, d) matrices")
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(8, self.dim))
        Bs = self.B(pts)
        # NaN compares false, so the antisymmetry test alone would pass it
        if not (np.isfinite(B0).all() and np.isfinite(Bs).all()):
            raise FieldError("magnetic field must be finite")
        if np.abs(Bs + np.swapaxes(Bs, -1, -2)).max() > 1e-12:
            raise FieldError("magnetic field matrix must be antisymmetric")
        if self.gauge in LINEAR_GAUGES:
            self._check_linear_gauge(pts)
        if self.dbfield is not None:
            self._check_dbfield(pts)
        terms = None if callable(self.bfield) else self._lam_terms(self.bfield)
        for a in terms or ():
            if a is not None:
                a.flags.writeable = False
        object.__setattr__(self, "_terms", terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim: int, eps: float, **potential) -> "EMFieldConfig":
        """No magnetic field: lam = 0 and A = 0, the symmetric gauge of B = 0.
        Each constructor passes its keyword arguments `potential` (phi,
        grad_phi, grad_hess_phi) on to the field; those left out give
        phi = 0."""
        return cls(eps=eps, lam=0.0, dim=dim, bfield=np.zeros((dim, dim)), gauge="symmetric",
                   vector_potential=lambda r: np.zeros(np.shape(r)), **potential)

    @classmethod
    def constant(cls, dim: int, b: float, eps: float, lam: float = 1.0,
                 gauge: str = "symmetric", **potential) -> "EMFieldConfig":
        """Constant magnetic field; in 2D, B_12 = b."""
        if dim == 1:
            if b != 0.0:
                raise FieldError("no magnetic field in one dimension")
            return cls.zero(dim, eps, **potential)
        B = np.zeros((dim, dim))
        B[0, 1], B[1, 0] = b, -b
        if gauge == "symmetric":
            A = lambda r: -0.5 * np.asarray(r, dtype=float) @ B.T
        elif gauge == "landau":
            def A(r):
                r = np.asarray(r, dtype=float)
                out = np.zeros(r.shape)
                out[..., 0] = -b * r[..., 1]
                return out
        else:
            raise FieldError(f"unknown constant-field gauge {gauge!r}")
        return cls(eps=eps, lam=lam, dim=dim, bfield=B, vector_potential=A,
                   gauge=gauge if gauge == "landau" else "symmetric", **potential)

    @classmethod
    def transversal(cls, dim: int, bfield, dbfield, eps: float, lam: float = 1.0,
                    **potential) -> "EMFieldConfig":
        """Position-dependent field with the transversal gauge
        A_k(r) = -int_0^1 ds B_kj(s r) s r_j."""
        def A(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros(r.shape)
            for s, w in zip(_GL_S, _GL_W):
                Bs = np.asarray(bfield(s * r))
                out += w * s * np.einsum("...kj,...j->...k", Bs, r)
            return -out
        return cls(eps=eps, lam=lam, dim=dim, bfield=bfield,
                   vector_potential=A, gauge="transversal", dbfield=dbfield,
                   **potential)

    # -- evaluation ----------------------------------------------------

    def B(self, r) -> np.ndarray:
        """B at points r (..., d) in the smallest shape that broadcasts
        against r.shape[:-1] + (d, d): the stored, read-only (d, d) matrix of
        a constant field, bfield(r) otherwise.  A shared matrix makes
        contractions with it one BLAS product (_vecmat)."""
        if callable(self.bfield):
            return np.asarray(self.bfield(np.asarray(r, dtype=float)))
        return self.bfield

    def lam_terms(self, r) -> LamTerms:
        """LamTerms at points r (..., d), shaped like B(r): built once, and
        read-only, for a constant B; made from bfield(r) for a callable B."""
        return self._lam_terms(self.B(r)) if callable(self.bfield) else self._terms

    def _lam_terms(self, B) -> LamTerms:
        lamB = self.lam * B
        return LamTerms(lamB, lamB.swapaxes(-1, -2), pair_weights(lamB),
                        (self.eps * self.lam) * pair_weights(B),
                        lamB[..., 0, 1:] if self.dim == 2 else None)

    def dB(self, r) -> np.ndarray:
        """d_m B_lj at points r, shape (..., d, d, d) with axis order
        [l, j, m]; read only for a position-dependent B, which must come with
        dbfield."""
        if self.dbfield is None:
            raise FieldError("position-dependent B needs dbfield")
        return np.asarray(self.dbfield(np.asarray(r, dtype=float)))

    def A(self, r) -> np.ndarray:
        return np.asarray(self.vector_potential(np.asarray(r, dtype=float)))

    def gauge_matrix(self) -> np.ndarray:
        """G with A(r) = A(0) + G r in a linear gauge, read off A at the unit
        vectors: column m is A(e_m) - A(0)."""
        return (self.A(np.eye(self.dim)) - self.A(np.zeros(self.dim))).T

    def line_integral(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Integral of A(eps z) . dz along straight micro segments start -> stop.

        start/stop shape (..., d).  Exact (midpoint rule) for linear gauges,
        8-point Gauss-Legendre otherwise.
        """
        start, stop = np.broadcast_arrays(np.asarray(start, dtype=float),
                                          np.asarray(stop, dtype=float))
        delta = stop - start
        if self.gauge in LINEAR_GAUGES:
            mid = 0.5 * self.eps * (start + stop)
            return np.einsum("...j,...j->...", self.A(mid), delta)
        out = np.zeros(start.shape[:-1])
        for s, w in zip(_GL_S, _GL_W):
            z = self.eps * (start + s * delta)
            out += w * np.einsum("...j,...j->...", self.A(z), delta)
        return out

    def _check_linear_gauge(self, pts):
        """Verify at sample points that A is affine, A(r) = A(0) + G r with
        G = gauge_matrix() (the midpoint rule and the quantizer's per-axis
        phase rely on it), and that dA = G^T - G is B."""
        A0, G = self.A(np.zeros(self.dim)), self.gauge_matrix()
        scale = 1.0 + np.abs(A0).max() + np.abs(G).max() * np.abs(pts).max()
        if np.abs(self.A(pts) - A0 - pts @ G.T).max() > 1e-9 * scale:
            raise FieldError(f"a {self.gauge} gauge needs a vector potential affine in position")
        if np.abs(G.T - G - self.B(pts)).max() > 1e-6:
            raise FieldError("vector potential inconsistent with B (dA != B)")

    def _check_dbfield(self, pts):
        """Verify dbfield at sample points against central differences of B,
        to _DB_TOL relative to 1 + max |dB|: entry [l, j, m] must be d_m B_lj.
        A misordered layout such as [m, l, j] is off by O(1), the differences
        themselves by about 1e-10."""
        d = self.dim
        dB = self.dB(pts)
        if dB.shape[-3:] != (d, d, d):
            raise FieldError("dbfield must produce (..., d, d, d) arrays")
        fd = np.stack([(self.B(pts + _DB_STEP * e) - self.B(pts - _DB_STEP * e))
                       / (2 * _DB_STEP) for e in np.eye(d)], axis=-1)
        if np.abs(dB - fd).max() > _DB_TOL * (1.0 + np.abs(dB).max()):
            raise FieldError("dbfield disagrees with central differences of bfield: "
                             "entry [l, j, m] must be d_m B_lj")
