"""Momentum-space Hamiltonians.

Parent model: a single p-wave chain with Bogoliubov-de Gennes Bloch matrix

    h(k) = -(2 t cos k + mu) s_z + 2 Delta sin k s_y .

Child models: the 4x4 tensor product of two parent factors, where the second
factor enters with the opposite sign on its s_z part,

    H(k) = [-(2 t1 cos ka + mu1) t_z + 2 D1 sin ka t_y]
           (x) [+(2 t2 cos kb + mu2) s_z + 2 D2 sin kb s_y] .

For the 1D child both factors see the same momentum (ka = kb = k); for the
2D child ka = kx and kb = ky.
"""

import math
from dataclasses import dataclass

import numpy as np


PARALLEL = "parallel"
PERPENDICULAR = "perpendicular"

S0 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {"0": S0, "x": SX, "y": SY, "z": SZ}


def reduce_momentum(k):
    """Fold momenta into [-pi, pi)."""
    return (np.asarray(k, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class ParentParams:
    """Hopping t, pairing delta and chemical potential mu of one chain."""

    t: float
    delta: float
    mu: float

    def __post_init__(self):
        for name in ("t", "delta", "mu"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"parent parameter {name} must be finite, got {v!r}")

    def is_topological(self, tol=1e-12):
        return abs(self.mu) < 2.0 * abs(self.t) - tol

    def is_critical(self):
        """Whether the curve's exact closest approach to the origin closes its gap (_gap_closed)."""
        return _gap_closed(*_modulus_bounds(self))


@dataclass(frozen=True)
class ChildSpec:
    """Two parent parameter sets plus the way their momenta are combined."""

    p1: ParentParams
    p2: ParentParams
    orientation: str

    def __post_init__(self):
        if self.orientation not in (PARALLEL, PERPENDICULAR):
            raise ValueError(
                f"orientation must be {PARALLEL!r} or {PERPENDICULAR!r}, "
                f"got {self.orientation!r}"
            )


def _split_child_momentum(spec, k):
    """Return (ka, kb) folded into [-pi, pi) for either orientation."""
    if spec.orientation == PARALLEL:
        ka = reduce_momentum(k)
        return ka, ka
    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 2:
        raise ValueError("perpendicular child needs momenta (kx, ky)")
    return reduce_momentum(k[..., 0]), reduce_momentum(k[..., 1])


def _mr(p, k):
    """The two scalar functions entering a factor: M = 2t cos k + mu, R = 2 Delta sin k."""
    return 2.0 * p.t * np.cos(k) + p.mu, 2.0 * p.delta * np.sin(k)


def _modulus_bounds(p):
    """(min_k, max_k) of |(M, R)| over a parent's curve.

    |(M, R)|^2 = 4 (t^2 - Delta^2) c^2 + 4 t mu c + mu^2 + 4 Delta^2 is a
    quadratic in c = cos k, so both extremes sit at k = 0, at k = pi, or at
    the vertex c* = -t mu / (2 (t^2 - Delta^2)) if that lies in [-1, 1], where
    |(M, R)|^2 = 4 Delta^2 - mu^2 Delta^2 / (t^2 - Delta^2), exactly 0 for a
    metal.  It is scale free, found from the parameters over their largest.
    """
    d = [abs(2.0 * p.t + p.mu), abs(p.mu - 2.0 * p.t)]  # R vanishes at k = 0 and pi
    scale = max(abs(p.t), abs(p.delta), abs(p.mu), 1e-300)
    t, delta, mu = p.t / scale, p.delta / scale, p.mu / scale
    a = t * t - delta * delta
    if a != 0.0 and abs(t * mu) <= 2.0 * abs(a):
        d.append(scale * math.sqrt(max(4.0 * delta * delta - mu * mu * (delta * delta / a), 0.0)))
    return float(min(d)), float(max(d))


def _gap_closed(dist, largest):
    """Whether a parent's curve at distance dist from the origin closes its gap.

    It does within 1e-9 of the curve's largest modulus: the one gap rule
    of ParentParams.is_critical and of topology's invariants.
    """
    return dist < 1e-9 * max(largest, 1e-30)


def _factor_bloch(p, k, sign):
    """sign M s_z + R s_y at momenta k already folded into [-pi, pi); stacked over k."""
    m, r = _mr(p, k)
    return (sign * np.asarray(m))[..., None, None] * SZ + np.asarray(r)[..., None, None] * SY


def parent_bloch(p, k):
    """2x2 Bloch matrix of the parent chain; broadcasts over an array of k."""
    return _factor_bloch(p, reduce_momentum(k), -1.0)


def _factor_matrices(spec, k):
    """Both 2x2 factors of the child at momentum k (stacked over k)."""
    ka, kb = _split_child_momentum(spec, k)
    return _factor_bloch(spec.p1, ka, -1.0), _factor_bloch(spec.p2, kb, 1.0)


def child_bloch(spec, k):
    """4x4 child Bloch matrix, basis index = 2*(factor-1 index) + factor-2 index.

    For the parallel child k is a scalar (or array), for the perpendicular
    child the last axis of k holds (kx, ky).
    """
    f1, f2 = _factor_matrices(spec, k)
    return np.einsum("...ab,...cd->...acbd", f1, f2).reshape(f1.shape[:-2] + (4, 4))


def dispersion_parallel(spec, k):
    """Closed-form bands of the 1D child: a doubly degenerate +/- pair.

    E(k) = sqrt((2 t1 cos k + mu1)^2 + (2 D1 sin k)^2)
         * sqrt((2 t2 cos k + mu2)^2 + (2 D2 sin k)^2)

    Returns (E_plus, E_minus); each value appears twice in the 4x4 spectrum.
    """
    if spec.orientation != PARALLEL:
        raise ValueError("dispersion_parallel is defined for the parallel child only")
    k = reduce_momentum(k)
    m1, r1 = _mr(spec.p1, k)
    m2, r2 = _mr(spec.p2, k)
    e = np.sqrt(m1 * m1 + r1 * r1) * np.sqrt(m2 * m2 + r2 * r2)
    return e, -e


def gap_closures(spec, tol=1e-9):
    """List the parameter conditions under which the child gap closes.

    Checks, for each factor i: mu_i = -2 t_i (closure at k = 0),
    mu_i = +2 t_i (closure at k = pi), and delta_i = 0 with |mu_i| <= 2|t_i|
    (closure at cos k = -mu_i / (2 t_i)).  Returns a list of dicts with the
    factor index, a condition label and the closing momentum.
    """
    out = []
    for idx, p in ((1, spec.p1), (2, spec.p2)):
        if abs(p.mu + 2.0 * p.t) < tol:
            out.append({"factor": idx, "condition": "mu=-2t", "k": 0.0})
        if abs(p.mu - 2.0 * p.t) < tol:
            out.append({"factor": idx, "condition": "mu=+2t", "k": np.pi})
        if abs(p.delta) < tol:
            if abs(p.t) < tol:
                if abs(p.mu) < tol:
                    # factor vanishes identically; flat zero band
                    out.append({"factor": idx, "condition": "delta=0", "k": 0.0})
            elif abs(p.mu) <= 2.0 * abs(p.t) + tol:
                kc = float(np.arccos(np.clip(-p.mu / (2.0 * p.t), -1.0, 1.0)))
                out.append({"factor": idx, "condition": "delta=0", "k": kc})
    return out


# --- symmetries ------------------------------------------------------------

_C1 = np.kron(S0, SX)   # chiral op of factor 2 slot
_C2 = np.kron(SX, S0)   # chiral op of factor 1 slot
_U = np.kron(SX, SX)    # unitary symmetry, [U, H] = 0


@dataclass(frozen=True)
class SymmetryReport:
    """Max operator-norm residual of each symmetry relation over a k-grid."""

    residuals: dict


def _opnorm(a):
    """The largest spectral norm in the stack a: 0.0, with no SVD, where a is exactly zero."""
    if not a.any():
        return 0.0
    return np.linalg.norm(a, ord=2, axis=(-2, -1)).max()


def symmetry_check(spec, kgrid):
    """Residuals of the six symmetry relations of the child on a k-grid.

    T  = K           : H(k)* = H(-k)
    P1 = (1 x s_x) K : P1 H(k)* P1 = -H(-k)
    C1 = 1 x s_x     : C1 H(k) C1 = -H(k)
    P2 = (t_x x 1) K : P2 H(k)* P2 = -H(-k)
    C2 = t_x x 1     : C2 H(k) C2 = -H(k)
    U  = t_x x s_x   : [U, H(k)] = 0
    """
    kgrid = np.asarray(kgrid, dtype=float)
    h = child_bloch(spec, kgrid)
    hm = child_bloch(spec, -kgrid)
    hc = h.conj()
    res = {
        "T": _opnorm(hc - hm),
        "P1": _opnorm(_C1 @ hc @ _C1 + hm),
        "C1": _opnorm(_C1 @ h @ _C1 + h),
        "P2": _opnorm(_C2 @ hc @ _C2 + hm),
        "C2": _opnorm(_C2 @ h @ _C2 + h),
        "U": _opnorm(_U @ h - h @ _U),
    }
    return SymmetryReport(residuals=res)


# Maximally entangled pairs of the two internal two-level factors, written
# in the (00, 01, 10, 11) order.  Both Bell frames of the package, BLOCK_BASIS
# here and boundary.CLASSIFICATION_FRAME, are signed selections of these.
_RT2 = np.sqrt(2.0)
BELL_VECTORS = {
    "00-11": np.array([1.0, 0.0, 0.0, -1.0]) / _RT2,
    "00+11": np.array([1.0, 0.0, 0.0, 1.0]) / _RT2,
    "01-10": np.array([0.0, 1.0, -1.0, 0.0]) / _RT2,
    "01+10": np.array([0.0, 1.0, 1.0, 0.0]) / _RT2,
}

# Columns: the fixed basis in which the child splits into its components,
# {|00-11>, -|01-10>, |00+11>, |01+10>}; the sign on the second column makes
# the first block match the displayed component-1 form coefficient by
# coefficient.
BLOCK_BASIS = np.stack(
    [BELL_VECTORS["00-11"], -BELL_VECTORS["01-10"], BELL_VECTORS["00+11"], BELL_VECTORS["01+10"]],
    axis=1,
).astype(complex)


# --- small-momentum expansions ---------------------------------------------


@dataclass(frozen=True)
class DiracRecord:
    """Low-energy data of the parallel child near k = 0.

    m1, m2 are the factor masses 2 t_i + mu_i, mass the combined t1 m2 + t2 m1.
    v1 (v2) is the |slope| of the linear cone when only m1 (m2) vanishes,
    quad the coefficient of the k^2 dispersion when both vanish.
    """

    m1: float
    m2: float
    mass: float
    v1: float
    v2: float
    quad: float


def dirac_expansion_parallel(spec):
    """Masses and velocities of the parallel child at the k = 0 touching."""
    if spec.orientation != PARALLEL:
        raise ValueError("dirac_expansion_parallel needs a parallel child")
    p1, p2 = spec.p1, spec.p2
    m1 = 2.0 * p1.t + p1.mu
    m2 = 2.0 * p2.t + p2.mu
    return DiracRecord(
        m1=m1,
        m2=m2,
        mass=p1.t * m2 + p2.t * m1,
        v1=abs(2.0 * p1.delta * m2),
        v2=abs(2.0 * p2.delta * m1),
        quad=abs(4.0 * p1.delta * p2.delta),
    )


@dataclass(frozen=True)
class VelocityRecord:
    velocity: tuple          # gradient of the positive low-energy branch
    closed_form: tuple       # 4 D1 D2 (ky, kx), exact when m1 = m2 = 0
    at_critical: bool        # both masses vanish
    one_sided: bool          # a factor vanished; derivative taken one-sided


def group_velocity_perp(spec, kx, ky, mass_tol=1e-12):
    """Group velocity of the 2D child's low-energy branch near (0, 0).

    The branch is E(kx, ky) = sqrt(4 D1^2 kx^2 + m1^2) sqrt(4 D2^2 ky^2 + m2^2);
    at m1 = m2 = 0 its gradient is +/- 4 D1 D2 (ky, kx), a velocity field that
    swirls the opposite way to the momentum.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("group_velocity_perp needs a perpendicular child")
    d1, d2 = spec.p1.delta, spec.p2.delta
    m1 = 2.0 * spec.p1.t + spec.p1.mu
    m2 = 2.0 * spec.p2.t + spec.p2.mu
    f1 = np.sqrt(4.0 * d1 * d1 * kx * kx + m1 * m1)
    f2 = np.sqrt(4.0 * d2 * d2 * ky * ky + m2 * m2)
    one_sided = False
    if f1 < mass_tol or f2 < mass_tol:
        # kink of |.| at the touching point: report the k -> 0+ limit
        one_sided = True
        vx = 2.0 * abs(d1) * f2 if f1 < mass_tol else 0.0
        vy = 2.0 * abs(d2) * f1 if f2 < mass_tol else 0.0
    else:
        vx = 4.0 * d1 * d1 * kx / f1 * f2
        vy = f1 * 4.0 * d2 * d2 * ky / f2
    at_critical = abs(m1) < mass_tol and abs(m2) < mass_tol
    return VelocityRecord(
        velocity=(float(vx), float(vy)),
        closed_form=(4.0 * d1 * d2 * ky, 4.0 * d1 * d2 * kx),
        at_critical=at_critical,
        one_sided=one_sided,
    )
