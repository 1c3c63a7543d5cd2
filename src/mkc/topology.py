"""Wilson loops, Wannier charge centers, and winding numbers.

The Wilson loop is the ordered product of occupied-subspace projectors around
a closed momentum loop, sandwiched between the occupied eigenvectors at the
anchor point and unitarized by polar decomposition; its eigenphases over 2*pi
are the Wannier centers.  Winding numbers track the angle of (d_y, d_z)
curves around the origin.
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
    if dist < 1e-9 * max(float(np.abs(z).max()), 1e-30):
        raise CriticalCurveError(
            f"curve passes through the origin (min |d| = {dist:.3e}); "
            "the model sits on a critical surface",
            origin_distance=dist,
        )
    total = float(np.angle(z[1:] / z[:-1]).sum()) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > 0.01:
        raise NumericalError(
            f"winding did not accumulate to an integer: {total:.6f} turns"
        )
    if abs(w) > z.size // 4:
        raise NumericalError("winding exceeds the resolvable bound for this sampling")
    return WindingResult(w=w, origin_distance=dist)


def parent_winding(p, samples=DEFAULT_CURVE_SAMPLES):
    """Winding of the parent's (d_y, d_z) = (R, -M) curve over one period."""
    m, r = _mr(p, np.linspace(0.0, 2.0 * np.pi, samples + 1))
    return winding_number(WindingCurve(dy=r, dz=-m))


def component_winding_parallel(spec, samples=DEFAULT_CURVE_SAMPLES):
    """(w1, w2) of the two component curves of the 1D child."""
    if spec.orientation != PARALLEL:
        raise ValueError("component_winding_parallel needs a parallel child")
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    return tuple(
        winding_number(WindingCurve(*component_dvector(spec, ks, which))) for which in (1, 2)
    )


def component_winding_perp(spec, Lx, Ly, samples=DEFAULT_CURVE_SAMPLES):
    """Winding of every quantized-transverse-momentum curve of the 2D child.

    rows: for each ky = 2pi m/Ly the windings along kx; columns: for each
    kx = 2pi m/Lx the windings along ky.  Both components are reported; they
    agree whenever both are defined.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("component_winding_perp needs a perpendicular child")
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    table = {}
    for key, axis, n in (("rows", 0, Ly), ("columns", 1, Lx)):
        table[key] = []
        for m in range(n):
            fixed = 2.0 * np.pi * m / n
            kk = np.full((ks.size, 2), fixed)
            kk[:, axis] = ks
            rec = {"m": m, "fixed": fixed}
            for which in (1, 2):
                dy, dz = component_dvector(spec, kk, which)
                rec[f"w{which}"] = winding_number(WindingCurve(dy=dy, dz=dz)).w
            table[key].append(rec)
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
