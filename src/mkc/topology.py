"""Wannier charge centers and winding numbers, in closed form from the two parents.

A parent is a chiral two-band chain.  Its (d_y, d_z) = (R, -M) curve winds
w = sign(t Delta) times around the origin when Delta != 0 and |mu| < 2|t|,
and not at all otherwise (Kitaev 2001), so its occupied band's Zak phase is
pi w and its Wannier center is w/2 mod 1.  A child is the tensor product of
two parents, so its half-filled occupied pair is {u1- (x) u2+, u1+ (x) u2-}
and its centers are sums of its parents': the parallel child's two centers
are the parents' sum mod 1, the perpendicular child's are the center of the
parent that disperses along the loop.  A child component's curve is a
product of its parents' curves z_i = R_i - i M_i: d_y + i d_z is i z1 z2
for component 1 and -i z1 conj(z2) for component 2, so its windings are
sums of its parents' windings too.  Nothing is sampled, and one gap rule,
`_check_clear_of_origin`, serves every invariant.
"""

import numpy as np
from dataclasses import dataclass

from .errors import CriticalCurveError
from .models import PARALLEL, PERPENDICULAR, _mr


def center_distance(a, b):
    """Distance between Wannier centers on the unit circle (mod 1)."""
    return np.abs((np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5)


@dataclass
class WannierSpectrum:
    centers: np.ndarray      # values in [0, 1), one per occupied band
    filling: int
    path: str


def _modulus_bounds(p):
    """(min_k, max_k) of |(M, R)| over a parent's curve.

    |(M, R)|^2 = 4 (t^2 - Delta^2) c^2 + 4 t mu c + mu^2 + 4 Delta^2 is a
    quadratic in c = cos k, so both extremes sit at k = 0, at k = pi, or at
    the vertex c* = -t mu / (2 (t^2 - Delta^2)) when that lies in [-1, 1];
    c* is scale free, so it is found from the parameters over their largest.
    """
    ks = [0.0, np.pi]
    v = np.array([p.t, p.delta, p.mu])
    t, delta, mu = v / max(np.abs(v).max(), 1e-300)
    a = t * t - delta * delta
    if a != 0.0 and abs(t * mu) <= 2.0 * abs(a):
        ks.append(np.arccos(-t * mu / (2.0 * a)))
    d = np.hypot(*_mr(p, np.array(ks)))
    return float(d.min()), float(d.max())


def _check_clear_of_origin(p, k=None):
    """Raise CriticalCurveError where the parent's curve comes within 1e-9 of the origin.

    Within is relative to the curve's largest modulus.  With k None the
    whole curve is judged, by its exact minimum; else the momenta k, where
    a perpendicular loop freezes it: a loop whose fixed momentum misses the
    parent's closing momenta is gapped.
    """
    closest, largest = _modulus_bounds(p)
    dist = closest if k is None else float(np.hypot(*_mr(p, k)).min())
    if dist < 1e-9 * max(largest, 1e-30):
        raise CriticalCurveError(
            f"curve passes through the origin (min |d| = {dist:.3e}); "
            "the model sits on a critical surface",
            origin_distance=dist,
        )


def parent_winding(p):
    """Winding of the parent's (d_y, d_z) = (R, -M) curve over one period: -1, 0 or 1."""
    _check_clear_of_origin(p)
    if not p.is_topological(tol=0.0):
        return 0
    return int(np.sign(p.t) * np.sign(p.delta))


def wannier_center_parent(p):
    """Single occupied-band center of the parent chain: half its winding, so 0 or 0.5."""
    c = parent_winding(p) / 2.0 % 1.0
    return WannierSpectrum(centers=np.array([c]), filling=1, path="parent loop k:0..2pi")


def wannier_centers_parallel(spec):
    """Two half-filling centers of the 1D child: both the parents' sum mod 1."""
    if spec.orientation != PARALLEL:
        raise ValueError("wannier_centers_parallel needs a parallel child")
    c = (parent_winding(spec.p1) / 2.0 + parent_winding(spec.p2) / 2.0) % 1.0
    return WannierSpectrum(centers=np.array([c, c]), filling=2, path="child loop k:0..2pi")


def wannier_centers_perp(spec, loop_direction, fixed_momentum):
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
    c = parent_winding(along) / 2.0 % 1.0
    fixed = float(fixed_momentum)
    _check_clear_of_origin(frozen, fixed)
    label = f"child loop k{loop_direction}:0..2pi @ fixed={fixed:.6f}"
    return WannierSpectrum(centers=np.array([c, c]), filling=2, path=label)


def component_winding_parallel(spec):
    """(w1, w2) = (w(p1) + w(p2), w(p1) - w(p2)) of the 1D child's component curves."""
    if spec.orientation != PARALLEL:
        raise ValueError("component_winding_parallel needs a parallel child")
    w1, w2 = parent_winding(spec.p1), parent_winding(spec.p2)
    return w1 + w2, w1 - w2


def component_winding_perp(spec, Lx, Ly):
    """Winding of every quantized-transverse-momentum curve of the 2D child.

    rows: for each ky = 2pi m/Ly the windings along kx; columns: for each
    kx = 2pi m/Lx the windings along ky.  On a kx loop the second factor is
    frozen and both components wind as parent 1; on a ky loop component 1
    winds as parent 2 and component 2 the opposite way.  A loop whose frozen
    factor vanishes at its fixed momentum is critical.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("component_winding_perp needs a perpendicular child")
    windings = {p: parent_winding(p) for p in (spec.p1, spec.p2)}
    table = {}
    for key, n, along, frozen, s in (
        ("rows", Ly, spec.p1, spec.p2, 1),
        ("columns", Lx, spec.p2, spec.p1, -1),
    ):
        w = windings[along]
        fixed = 2.0 * np.pi * np.arange(n) / n
        _check_clear_of_origin(frozen, fixed)
        table[key] = [
            {"m": m, "fixed": f, "w1": w, "w2": s * w} for m, f in enumerate(fixed.tolist())
        ]
    return table
