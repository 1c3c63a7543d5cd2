"""Wilson loops, Wannier charge centers, and winding numbers.

The Wilson loop is the ordered product of occupied-subspace projectors around
a closed momentum loop, sandwiched between the occupied eigenvectors at the
anchor point and unitarized by polar decomposition; its eigenphases over 2*pi
are the Wannier centers.  Winding numbers track the angle of (d_y, d_z)
curves around the origin; a child's component curves are products of its
parents' curves, so the child's windings are read from the parents'.
"""

import numpy as np
from dataclasses import dataclass

from .errors import CriticalCurveError, GaplessPathError, NumericalError, SingularConfigError
from .models import (
    PARALLEL,
    PERPENDICULAR,
    ChildSpec,
    ParentParams,
    _mr,
    child_bloch,
    component_dvector,
    parent_bloch,
)

DEFAULT_LOOP_POINTS = 1001
DEFAULT_CURVE_SAMPLES = 4096


def center_distance(a, b):
    """Distance between Wannier centers on the unit circle (mod 1)."""
    return np.abs((np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5)


@dataclass
class WannierSpectrum:
    centers: np.ndarray      # values in [0, 1), one per occupied band
    filling: int
    path: str


def _occupied(h_stack, ks, gap_tol=1e-12):
    """Occupied projectors along a path, plus the anchor eigenvectors.

    Occupied means the lower half of the spectrum at each point; an exact
    tie across the middle gap makes the projector ill-defined.
    """
    evals, evecs = np.linalg.eigh(h_stack)
    f = evals.shape[-1] // 2
    scale = max(float(np.abs(evals).max()), 1e-30)
    gaps = evals[:, f] - evals[:, f - 1]
    bad = np.nonzero(gaps <= gap_tol * scale)[0]
    if bad.size:
        k = float(np.atleast_1d(ks[bad[0]]).ravel()[0])
        raise GaplessPathError(
            f"occupied subspace undefined: half-filling gap closes at k={k:.6f}", k=k
        )
    occ = evecs[:, :, :f]
    projectors = occ @ occ.conj().swapaxes(-1, -2)
    return projectors, occ[0]


def wilson_loop(projectors, anchor, ks=None):
    """Unitary Wilson matrix from ordered projectors and anchor eigenvectors.

    W_mn = <u_m(k0)| P(k_{R-1}) ... P(k_1) |u_n(k0)>, polar-unitarized (the
    raw product is sub-unitary at finite R).
    """
    f = anchor.shape[1]
    acc = anchor
    for i in range(1, len(projectors)):
        acc = projectors[i] @ acc
        if i % 64 == 0:
            # renormalize occasionally so long paths do not underflow
            nrm = np.linalg.norm(acc)
            if nrm < 1e-30:
                label = f" near k={ks[i]:.6f}" if ks is not None else ""
                raise GaplessPathError(f"projector product collapsed{label}")
            acc = acc / nrm
    w_raw = anchor.conj().T @ acc
    u, s, vh = np.linalg.svd(w_raw)
    if s.min() < 1e-12 * max(s.max(), 1e-30):
        raise GaplessPathError("Wilson matrix numerically singular on this path")
    w = u @ vh
    assert w.shape == (f, f)
    return w


def _centers_from_wilson(w):
    phases = np.angle(np.linalg.eigvals(w)) / (2.0 * np.pi)
    return np.sort(phases % 1.0)


def _loop_centers(h_stack, ks, path_label):
    projectors, anchor = _occupied(h_stack, ks)
    w = wilson_loop(projectors, anchor, ks)
    return WannierSpectrum(
        centers=_centers_from_wilson(w), filling=anchor.shape[1], path=path_label
    )


def wannier_center_parent(p, R=DEFAULT_LOOP_POINTS):
    """Single occupied-band center of the parent chain; 0 or 0.5 when gapped."""
    ks = 2.0 * np.pi * np.arange(R) / R
    return _loop_centers(parent_bloch(p, ks), ks, "parent loop k:0..2pi")


def wannier_centers_parallel(spec, R=DEFAULT_LOOP_POINTS):
    """Two half-filling centers of the 1D child over one momentum period."""
    if spec.orientation != PARALLEL:
        raise ValueError("wannier_centers_parallel needs a parallel child")
    ks = 2.0 * np.pi * np.arange(R) / R
    return _loop_centers(child_bloch(spec, ks), ks, "child loop k:0..2pi")


def wannier_centers_perp(spec, loop_direction, fixed_momentum, R=DEFAULT_LOOP_POINTS):
    """Half-filling centers of the 2D child along one momentum direction.

    loop_direction 'x' integrates over kx at fixed ky = fixed_momentum, and
    vice versa.  Both centers coincide with the Wannier center of the parent
    that disperses along the loop, whatever the fixed transverse momentum.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("wannier_centers_perp needs a perpendicular child")
    if loop_direction not in ("x", "y"):
        raise ValueError("loop_direction must be 'x' or 'y'")
    ks = 2.0 * np.pi * np.arange(R) / R
    fixed = np.full(R, float(fixed_momentum))
    if loop_direction == "x":
        kk = np.stack([ks, fixed], axis=-1)
    else:
        kk = np.stack([fixed, ks], axis=-1)
    label = f"child loop k{loop_direction}:0..2pi @ fixed={float(fixed_momentum):.6f}"
    return _loop_centers(child_bloch(spec, kk), ks, label)


# --- winding numbers --------------------------------------------------------


@dataclass
class WindingCurve:
    """Closed sampled curve of (d_y, d_z) over one momentum period."""

    dy: np.ndarray
    dz: np.ndarray

    @property
    def closed(self):
        scale = max(float(np.hypot(self.dy, self.dz).max()), 1e-30)
        return (
            abs(self.dy[0] - self.dy[-1]) <= 1e-9 * scale
            and abs(self.dz[0] - self.dz[-1]) <= 1e-9 * scale
        )


@dataclass
class WindingResult:
    w: int
    origin_distance: float


def _check_clear_of_origin(dist, scale):
    """Raise CriticalCurveError when a curve comes within 1e-9 of its scale of the origin."""
    if dist < 1e-9 * max(scale, 1e-30):
        raise CriticalCurveError(
            f"curve passes through the origin (min |d| = {dist:.3e}); "
            "the model sits on a critical surface",
            origin_distance=dist,
        )


def winding_number(curve):
    """Integer turns of (d_y, d_z) around the origin, by angle accumulation.

    Increments between consecutive samples are forced into (-pi, pi]; the
    accumulated total must land on an integer multiple of 2*pi within 1%.
    """
    z = np.asarray(curve.dy, dtype=float) + 1j * np.asarray(curve.dz, dtype=float)
    if z.size < 4:
        raise ValueError("curve too coarsely sampled")
    if not curve.closed:
        raise ValueError("winding_number needs a closed curve")
    dist = float(np.abs(z).min())
    _check_clear_of_origin(dist, float(np.abs(z).max()))
    total = float(np.angle(z[1:] / z[:-1]).sum()) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > 0.01:
        raise NumericalError(
            f"winding did not accumulate to an integer: {total:.6f} turns"
        )
    if abs(w) > z.size // 4:
        raise NumericalError("winding exceeds the resolvable bound for this sampling")
    return WindingResult(w=w, origin_distance=dist)


def _parent_loop(p, samples):
    """The moduli of the parent's curve R - iM on the closed sampling grid, and its winding.

    The curve reaches the origin only where R and M vanish together: at
    k = 0 or pi when Delta != 0, and wherever cos k = -mu / 2t when
    Delta = 0, which exists exactly when |mu| <= 2|t|.  Those momenta are
    checked whether or not the grid samples them, so a gapless parent
    raises CriticalCurveError at every sample count.
    """
    m, r = _mr(p, np.linspace(0.0, 2.0 * np.pi, samples + 1))
    modulus = np.hypot(m, r)
    if p.delta == 0.0 and abs(p.mu) <= 2.0 * abs(p.t):
        closest = 0.0
    else:
        closest = float(np.abs(_mr(p, np.array([0.0, np.pi]))[0]).min())
    _check_clear_of_origin(closest, float(modulus.max()))
    return modulus, winding_number(WindingCurve(dy=r, dz=-m))


def parent_winding(p, samples=DEFAULT_CURVE_SAMPLES):
    """Winding of the parent's (d_y, d_z) = (R, -M) curve over one period."""
    return _parent_loop(p, samples)[1]


# Each child component is a product of its parents' curves z_i = R_i - i M_i:
# d_y + i d_z = (R1 - i M1)(M2 + i s R2), that is i z1 z2 for component 1
# (s = +1) and -i z1 conj(z2) for component 2 (s = -1).  Its windings are
# therefore sums of the parents' windings, and are read from them.


def component_winding_parallel(spec, samples=DEFAULT_CURVE_SAMPLES):
    """(w1, w2) = (w(p1) + w(p2), w(p1) - w(p2)) of the 1D child's component curves.

    origin_distance is the smallest |d| of the product curves on the samples.
    """
    if spec.orientation != PARALLEL:
        raise ValueError("component_winding_parallel needs a parallel child")
    (a1, r1), (a2, r2) = (_parent_loop(p, samples) for p in (spec.p1, spec.p2))
    dist = float((a1 * a2).min())
    return WindingResult(r1.w + r2.w, dist), WindingResult(r1.w - r2.w, dist)


def component_winding_perp(spec, Lx, Ly, samples=DEFAULT_CURVE_SAMPLES):
    """Winding of every quantized-transverse-momentum curve of the 2D child.

    rows: for each ky = 2pi m/Ly the windings along kx; columns: for each
    kx = 2pi m/Lx the windings along ky.  On a kx loop the second factor is
    frozen and both components wind as parent 1; on a ky loop component 1
    winds as parent 2 and component 2 the opposite way.  A loop whose frozen
    factor vanishes at its fixed momentum is critical.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("component_winding_perp needs a perpendicular child")
    loops = {p: _parent_loop(p, samples) for p in (spec.p1, spec.p2)}
    table = {}
    for key, n, along, frozen, s in (
        ("rows", Ly, spec.p1, spec.p2, 1),
        ("columns", Lx, spec.p2, spec.p1, -1),
    ):
        w = loops[along][1].w
        fixed = 2.0 * np.pi * np.arange(n) / n
        _check_clear_of_origin(
            float(np.hypot(*_mr(frozen, fixed)).min()), float(loops[frozen][0].max())
        )
        table[key] = [
            {"m": m, "fixed": f, "w1": w, "w2": s * w} for m, f in enumerate(fixed.tolist())
        ]
    return table


def winding_locus_check(spec, ky, samples=DEFAULT_CURVE_SAMPLES):
    """Residual of the circular-locus identity of the first component curve.

    For t1 = Delta1 the (d_y, d_z) curve at fixed ky lies on a circle of
    radius 2 t1 rho2 centered at (0, -mu1 rho2) after rotating by the angle
    theta with tan theta = R2/M2, where M2 = mu2 + 2 t2 cos ky and
    R2 = 2 Delta2 sin ky, rho2 = sqrt(M2^2 + R2^2).
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("winding_locus_check needs a perpendicular child")
    if abs(spec.p1.t - spec.p1.delta) > 1e-12:
        raise ValueError("locus identity requires t1 = Delta1")
    m2, r2 = _mr(spec.p2, ky)
    rho2 = float(np.hypot(m2, r2))
    if rho2 < 1e-12:
        raise SingularConfigError(
            "second-factor modulation vanishes at this ky; rotation angle undefined"
        )
    ct, st = m2 / rho2, r2 / rho2
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    kk = np.stack([ks, np.full_like(ks, float(ky))], axis=-1)
    dy, dz = component_dvector(spec, kk, 1)
    lhs = (ct * dy + st * dz) ** 2 + (ct * dz - st * dy + spec.p1.mu * rho2) ** 2
    rhs = (2.0 * spec.p1.t * rho2) ** 2
    return float(np.abs(lhs - rhs).max())
