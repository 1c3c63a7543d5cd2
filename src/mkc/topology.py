"""Wannier charge centers and winding numbers, read from the two parents.

A parent is a chiral two-band chain, so its occupied band's Zak phase is
pi times the winding of its (d_y, d_z) = (R, -M) curve: its Wannier center
is half that winding, mod 1.  A child is the tensor product of two parents,
so its half-filled occupied pair is {u1- (x) u2+, u1+ (x) u2-} and its
centers are sums of its parents'.  The parallel child's two centers are the
sum of its parents' centers mod 1; the perpendicular child's are the center
of the parent that disperses along the loop, provided the frozen parent's
factor stays clear of the origin at the fixed momentum.  A child's
component curves are products of its parents' curves, so the child's
windings are read from the parents' too.  One sampler of a parent's curve,
`_parent_loop`, and one gap rule, `models._closing_distance`, serve both
invariants.
"""

import numpy as np
from dataclasses import dataclass

from .errors import CriticalCurveError, NumericalError
from .models import PARALLEL, PERPENDICULAR, _closing_distance, _mr

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


def _zak_center(p, R):
    """Wannier center of the parent's occupied band: half its winding on R loop points, mod 1."""
    if R < 4:
        raise ValueError(f"loop too coarsely sampled: need at least 4 points, got {R}")
    return _parent_loop(p, R)[1].w / 2.0 % 1.0


def wannier_center_parent(p, R=DEFAULT_LOOP_POINTS):
    """Single occupied-band center of the parent chain: half its winding, so 0 or 0.5."""
    c = _zak_center(p, R)
    return WannierSpectrum(centers=np.array([c]), filling=1, path="parent loop k:0..2pi")


def wannier_centers_parallel(spec, R=DEFAULT_LOOP_POINTS):
    """Two half-filling centers of the 1D child: both the parents' sum mod 1."""
    if spec.orientation != PARALLEL:
        raise ValueError("wannier_centers_parallel needs a parallel child")
    c = (_zak_center(spec.p1, R) + _zak_center(spec.p2, R)) % 1.0
    return WannierSpectrum(centers=np.array([c, c]), filling=2, path="child loop k:0..2pi")


def wannier_centers_perp(spec, loop_direction, fixed_momentum, R=DEFAULT_LOOP_POINTS):
    """Half-filling centers of the 2D child along one momentum direction.

    loop_direction 'x' integrates over kx at fixed ky = fixed_momentum, and
    vice versa.  Both centers are the Wannier center of the parent that
    disperses along the loop, whatever the fixed transverse momentum.  The
    loop is gapless where the frozen parent's factor at the fixed momentum
    nearly vanishes, by the rule of the slab's winding curves.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("wannier_centers_perp needs a perpendicular child")
    if loop_direction not in ("x", "y"):
        raise ValueError("loop_direction must be 'x' or 'y'")
    along, frozen = (spec.p1, spec.p2) if loop_direction == "x" else (spec.p2, spec.p1)
    c = _zak_center(along, R)
    fixed = float(fixed_momentum)
    _check_frozen(frozen, fixed, R)
    label = f"child loop k{loop_direction}:0..2pi @ fixed={fixed:.6f}"
    return WannierSpectrum(centers=np.array([c, c]), filling=2, path=label)


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

    The curve is judged at the momenta where it can reach the origin
    (`models._closing_distance`), whether or not the grid samples them, so
    a gapless parent raises CriticalCurveError at every sample count.  A
    gapped parent winds once when topological (|mu| < 2|t|), else not at
    all; a sampled winding of any other size means too coarse a grid, and
    raises NumericalError.
    """
    m, r = _mr(p, np.linspace(0.0, 2.0 * np.pi, samples + 1))
    modulus = np.hypot(m, r)
    _check_clear_of_origin(_closing_distance(p), float(modulus.max()))
    result = winding_number(WindingCurve(dy=r, dz=-m))
    if abs(result.w) != int(p.is_topological(tol=0.0)):
        raise NumericalError(
            f"{samples} samples too few: the sampled winding {result.w} misses the closed form"
        )
    return modulus, result


def _check_frozen(frozen, fixed, samples):
    """Raise CriticalCurveError where a frozen parent's factor nearly vanishes at a fixed momentum.

    Nearly is within 1e-9 of the parent's largest modulus on the closed
    sampling grid.  The parent's own closing momenta are not checked:
    loops whose fixed momenta miss them are gapped.
    """
    scale = np.hypot(*_mr(frozen, np.linspace(0.0, 2.0 * np.pi, samples + 1))).max()
    _check_clear_of_origin(float(np.hypot(*_mr(frozen, fixed)).min()), float(scale))


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
    windings = {p: _parent_loop(p, samples)[1].w for p in (spec.p1, spec.p2)}
    table = {}
    for key, n, along, frozen, s in (
        ("rows", Ly, spec.p1, spec.p2, 1),
        ("columns", Lx, spec.p2, spec.p1, -1),
    ):
        w = windings[along]
        fixed = 2.0 * np.pi * np.arange(n) / n
        _check_frozen(frozen, fixed, samples)
        table[key] = [
            {"m": m, "fixed": f, "w1": w, "w2": s * w} for m, f in enumerate(fixed.tolist())
        ]
    return table
