"""Closed-form boundary-mode machinery for finite chains and slabs.

Four strands: decay roots of the localized (k -> iq) bulk problem, the
chemical potentials at which finite lattices host exact zero modes,
standing-wave quantization that generates those potentials for general
parameter classes, and closed-form edge wavefunctions.  On top of these
sits the entanglement classification of the zero-energy subspace: the
spinor content at the dominant edge sites is rotated into a frame where
it splits into product states and maximally entangled pairs of the two
internal two-level factors; reference states inside the span are peeled
off greedily and the directions left over are labeled as they are.
"""

import numpy as np
from dataclasses import dataclass, replace

from .errors import ConfigError, SingularConfigError
from .lattice import OPEN, PERIODIC, ChainLattice, SlabLattice, zero_subspace
from .models import (
    BELL_VECTORS,
    BLOCK_BASIS,
    PARALLEL,
    PERPENDICULAR,
    ChildSpec,
    ParentParams,
    child_bloch,
)

LN2 = float(np.log(2.0))

DEFAULT_SCAN_POINTS = 2001

# Basis products of the two internal two-level factors, in the same
# (00, 01, 10, 11) order as models.BELL_VECTORS.
PRODUCT_VECTORS = {
    "00": np.array([1.0, 0.0, 0.0, 0.0]),
    "01": np.array([0.0, 1.0, 0.0, 0.0]),
    "10": np.array([0.0, 0.0, 1.0, 0.0]),
    "11": np.array([0.0, 0.0, 0.0, 1.0]),
}

# Products first: when a degenerate subspace admits both a product and an
# entangled description, the tabulated sets keep the products explicit.
_REFERENCE_ORDER = [("prod", n) for n in ("00", "01", "10", "11")] + [
    ("bell", n) for n in ("00-11", "00+11", "01-10", "01+10")
]


def _reference_vector(label):
    kind, name = label.split(":", 1)
    table = PRODUCT_VECTORS if kind == "prod" else BELL_VECTORS
    return table[name]


# Frame in which raw zero-subspace spinors assume the tabulated forms:
# the Bell columns of models.BLOCK_BASIS, reordered and signed as
# {|00-11>, -|00+11>, |01+10>, |01-10>}.  Coordinates in this frame are what
# the product/Bell catalogue refers to.
CLASSIFICATION_FRAME = BLOCK_BASIS[:, [0, 2, 3, 1]] * np.array([1.0, -1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# decay roots


@dataclass
class DecayRoots:
    """Roots of one branch of the localized zero-energy condition.

    The branch quadratics are (t + Delta) x^2 + mu x + (t - Delta) = 0 for
    "+" and (t - Delta) x^2 + mu x + (t + Delta) = 0 for "-"; x stands for
    e^{-q}.  A complex-conjugate pair is also reported in polar form.
    """

    branch: str
    roots: tuple
    magnitude: float = None
    angle: float = None

    @property
    def is_oscillatory(self):
        return self.magnitude is not None

    @property
    def is_degenerate(self):
        r1, r2 = self.roots
        scale = max(abs(r1), abs(r2), 1.0)
        return abs(r1 - r2) < 1e-12 * scale


def decay_roots(p, branch="+"):
    """Solve one branch quadratic of the k -> iq zero-energy condition."""
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    a = p.t + p.delta if branch == "+" else p.t - p.delta
    c = p.t - p.delta if branch == "+" else p.t + p.delta
    if abs(a) < 1e-14:
        raise SingularConfigError(
            f"branch {branch} quadratic degenerates: leading coefficient t{'+' if branch == '+' else '-'}Delta vanishes"
        )
    disc = p.mu * p.mu - 4.0 * (p.t * p.t - p.delta * p.delta)
    if disc < 0.0:
        root = (-p.mu + 1j * np.sqrt(-disc)) / (2.0 * a)
        up = root if root.imag > 0 else root.conjugate()
        return DecayRoots(
            branch=branch,
            roots=(up, up.conjugate()),
            magnitude=float(abs(up)),
            angle=float(np.angle(up)),
        )
    sq = np.sqrt(disc)
    return DecayRoots(branch=branch, roots=((-p.mu + sq) / (2.0 * a), (-p.mu - sq) / (2.0 * a)))


def decaying_branch(p):
    """Branch whose roots stay inside the unit circle for a left edge mode."""
    if p.t * p.delta == 0.0:
        raise SingularConfigError("decaying branch undefined without both hopping and pairing")
    return "+" if p.t * p.delta > 0.0 else "-"


# ---------------------------------------------------------------------------
# exact-zero chemical potentials


@dataclass
class MajoranaPointSet:
    """Chemical potentials with exact zero modes on a finite lattice.

    Degeneracy counts zero-energy pairs for chain sets and zero-energy
    quartets for the slab set; particle-hole partners are never counted
    separately.  Provenance records the generating family and index.
    """

    mu_values: tuple
    degeneracies: tuple
    provenance: tuple

    def __len__(self):
        return len(self.mu_values)


def _point_set(entries):
    entries = sorted(entries, key=lambda e: e[0])
    return MajoranaPointSet(
        mu_values=tuple(float(e[0]) for e in entries),
        degeneracies=tuple(int(e[1]) for e in entries),
        provenance=tuple(str(e[2]) for e in entries),
    )


def kc_majorana_points(p, L):
    """The L chain potentials mu_n = 2 sqrt(t^2 - Delta^2) cos(n pi / (L+1)).

    For |t| <= |Delta| the square root is taken as zero and every value
    collapses onto mu = 0.
    """
    if int(L) != L or L < 1:
        raise ValueError(f"chain length must be a positive integer, got {L!r}")
    scale = 2.0 * np.sqrt(max(p.t * p.t - p.delta * p.delta, 0.0))
    return _point_set(
        (scale * np.cos(n * np.pi / (L + 1)), 1, f"n={n}/(L+1)") for n in range(1, L + 1)
    )


def mkc_parallel_majorana_points(t, delta, L):
    """Exact-zero potentials of the sign-mixed product chain.

    Built for the configuration with first-factor hopping -t, second-factor
    hopping +t, equal pairing and a shared chemical potential.  The chain
    splits into two interleaved sublattices: for even L both sublattice
    standing waves quantize at cos(n pi / (L+2)) and every point carries a
    two-fold zero-pair degeneracy; for odd L the even-site family
    cos(n pi / (L+1)) and the odd-site family cos(n pi / (L+3)) alternate,
    each singly degenerate.  Indices whose standing wave vanishes on its
    sublattice (the mu = 0 slot of each family) are excluded.
    """
    if int(L) != L or L < 2:
        raise ValueError(f"chain length must be an integer >= 2, got {L!r}")
    at, ad = abs(t), abs(delta)
    scale = 2.0 * np.sqrt(max(at * at - ad * ad, 0.0))
    entries = []
    if L % 2 == 0:
        entries += [
            (scale * np.cos(n * np.pi / (L + 2)), 2, f"n={n}/(L+2)")
            for n in range(1, L + 2)
            if 2 * n != L + 2
        ]
    else:
        entries += [
            (scale * np.cos(n * np.pi / (L + 1)), 1, f"even-sites n={n}/(L+1)")
            for n in range(1, L + 1)
            if 2 * n != L + 1
        ]
        entries += [
            (scale * np.cos(n * np.pi / (L + 3)), 1, f"odd-sites n={n}/(L+3)")
            for n in range(1, L + 3)
            if 2 * n != L + 3
        ]
    return _point_set(entries)


# ---------------------------------------------------------------------------
# standing-wave quantization


def _standing_wave_ratio(R1, R2, theta, N):
    den = R1 * R1 + R2 * R2 - 2.0 * R1 * R2 * np.cos(2.0 * theta)
    if abs(den) < 1e-14:
        raise SingularConfigError(f"standing-wave denominator vanishes at theta={theta!r}")
    num = R1 ** (2 * (N + 2)) + R2 ** (2 * (N + 2)) - 2.0 * (R1 * R2) ** (N + 2) * np.cos(
        2.0 * (N + 2) * theta
    )
    return num / den


def quantization_residual(R1, R2, theta1, theta2, N):
    """Mismatch of the two closed standing-wave ratios; zero at exact points.

    The two ratios are evaluated at the half-sum and half-difference of the
    branch angles; equality is the condition for a zero-energy standing wave
    on N sites with next-nearest-neighbour boundary conditions.
    """
    plus = _standing_wave_ratio(R1, R2, 0.5 * (theta1 + theta2), N)
    minus = _standing_wave_ratio(R1, R2, 0.5 * (theta1 - theta2), N)
    return plus - minus


def _oscillation_data(p1, p2, mu):
    """(R1, R2, theta1, theta2) on the decaying branches at shared mu."""
    r1 = decay_roots(replace(p1, mu=mu), decaying_branch(p1))
    r2 = decay_roots(replace(p2, mu=mu), decaying_branch(p2))
    if not (r1.is_oscillatory and r2.is_oscillatory):
        return None
    return r1.magnitude, r2.magnitude, r1.angle, r2.angle


def _bisect_sign_change(residual, a, b, fa):
    for _ in range(200):
        if b - a <= 1e-12:
            break
        m = 0.5 * (a + b)
        fm = residual(m)
        if fm is None:
            return None
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _refine_touch(residual, a, b):
    """Ternary search on |residual| for a root the mismatch touches.

    Exact points of the sign-mixed classes are even-order zeros: the
    mismatch dips to zero without changing sign, so they are found as
    interior minima.  Accepted only when the minimum undercuts the
    bracket ends by ten orders of magnitude.
    """
    edge = min(abs(residual(a)), abs(residual(b)))
    for _ in range(200):
        if b - a <= 1e-12:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = residual(m1), residual(m2)
        if f1 is None or f2 is None:
            return None
        if abs(f1) < abs(f2):
            b = m2
        else:
            a = m1
    mu = 0.5 * (a + b)
    fm = residual(mu)
    if fm is not None and abs(fm) < 1e-10 * edge:
        return mu
    return None


def quantization_points(p1, p2, N, mu_range=None, grid_points=DEFAULT_SCAN_POINTS):
    """Locate exact-zero potentials by scanning the quantization mismatch.

    Sign changes between adjacent valid grid nodes are bisected; interior
    minima of the absolute mismatch catch the even-order zeros where the
    curve touches without crossing.  Both refinements stop at 1e-12 in mu,
    which pins crossing roots to that width; touching roots are limited by
    the rounding floor of the mismatch itself to roughly 1e-9.  Nodes where
    either parent loses its oscillatory root pair, or where a standing-wave
    denominator blows up, never participate in a bracket.
    """
    if int(N) != N or N < 2:
        raise ValueError(f"lattice size must be an integer >= 2, got {N!r}")
    if mu_range is None:
        half = min(
            2.0 * np.sqrt(max(p.t * p.t - p.delta * p.delta, 0.0)) for p in (p1, p2)
        )
        if half <= 0.0:
            raise ConfigError("no oscillatory window: a parent has |t| <= |Delta|")
        half *= 1.0 - 1e-9
        mu_range = (-half, half)
    grid = np.linspace(mu_range[0], mu_range[1], grid_points)

    def residual(mu):
        data = _oscillation_data(p1, p2, mu)
        if data is None:
            return None
        R1, R2, t1, t2 = data
        try:
            return quantization_residual(R1, R2, t1, t2, N)
        except SingularConfigError:
            return None

    vals = [residual(mu) for mu in grid]
    roots = [g for g, f in zip(grid, vals) if f == 0.0]
    for i in range(len(grid) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa is None or fb is None or fa == 0.0 or fb == 0.0:
            continue
        if fa * fb < 0.0:
            r = _bisect_sign_change(residual, grid[i], grid[i + 1], fa)
            if r is not None:
                roots.append(r)
    for i in range(1, len(grid) - 1):
        fa, fm, fb = vals[i - 1], vals[i], vals[i + 1]
        if fa is None or fm is None or fb is None or 0.0 in (fa, fm, fb):
            continue
        if fa * fm < 0.0 or fm * fb < 0.0:
            continue
        if abs(fm) < abs(fa) and abs(fm) <= abs(fb):
            r = _refine_touch(residual, grid[i - 1], grid[i + 1])
            if r is not None:
                roots.append(r)
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    return _point_set((r, 1, "quantization-scan") for r in deduped)


# ---------------------------------------------------------------------------
# closed-form edge wavefunctions


@dataclass
class AnalyticMode:
    """Closed-form zero mode: site amplitudes times one internal 4-vector.

    The amplitudes cover sites 1..L; the internal vector is None when the
    expression pins the decay profile only.  The label records branch
    bookkeeping (sublattice, standing-wave index, decay branch).
    """

    amplitudes: np.ndarray
    internal: np.ndarray
    edge: str
    label: str
    mu: float = None

    def lattice_vector(self):
        if self.internal is None:
            raise ConfigError("profile-only mode has no internal vector")
        v = np.kron(self.amplitudes.astype(complex), self.internal.astype(complex))
        return v / np.linalg.norm(v)


def _mmzm_theta(N, n, which):
    """Standing-wave angle and validity for the sign-mixed product chain."""
    if N % 2 == 0:
        d = N + 2
    else:
        d = N + 1 if which == 1 else N + 3
    if not 1 <= n <= d - 1 or 2 * n == d:
        allowed = [m for m in range(1, d) if 2 * m != d]
        raise ConfigError(f"n out of range: component {which} of an N={N} chain allows n in {allowed}")
    return n * np.pi / d


def analytic_mmzm_wavefunction(t, delta, N, n, which, edge="left"):
    """Standing-wave zero mode of the sign-mixed product chain.

    Component 1 lives on even sites with amplitude R^l sin(l theta),
    component 2 on odd sites with amplitude R^(l+1) sin((l+1) theta),
    R = sqrt((t - Delta)/(t + Delta)).  Both left modes share the internal
    vector (1,-1,-1,1)/2; the right-edge modes are the site reflection
    l -> N+1-l carrying (1,1,1,1)/2.
    """
    if not 0.0 < delta < t:
        raise ConfigError(f"standing waves need 0 < Delta < t, got t={t}, Delta={delta}")
    if int(N) != N or N < 2:
        raise ValueError(f"lattice size must be an integer >= 2, got {N!r}")
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if edge not in ("left", "right"):
        raise ValueError(f"edge must be 'left' or 'right', got {edge!r}")
    theta = _mmzm_theta(N, n, which)
    R = np.sqrt((t - delta) / (t + delta))
    l = np.arange(1, N + 1)
    if which == 1:
        amps = np.where(l % 2 == 0, R**l * np.sin(l * theta), 0.0)
        sublattice = "even-sites"
    else:
        amps = np.where(l % 2 == 1, R ** (l + 1.0) * np.sin((l + 1) * theta), 0.0)
        sublattice = "odd-sites"
    if edge == "right":
        amps = amps[::-1].copy()
        internal = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    else:
        internal = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ConfigError(f"standing wave vanishes identically for n={n}")
    amps = amps / nrm
    if amps[np.argmax(np.abs(amps))] < 0:
        amps = -amps
    return AnalyticMode(
        amplitudes=amps,
        internal=internal,
        edge=edge,
        label=f"standing-wave {sublattice} n={n}",
        mu=float(2.0 * np.sqrt(t * t - delta * delta) * np.cos(theta)),
    )


def analytic_mmzm_density(t, delta, N, n):
    """Summed site density of the four standing-wave modes at one point."""
    rho = np.zeros(N)
    for which in (1, 2):
        for edge in ("left", "right"):
            mode = analytic_mmzm_wavefunction(t, delta, N, n, which, edge=edge)
            rho += np.abs(mode.amplitudes) ** 2
    return rho / rho.sum()


def semi_infinite_edge_profile(spec, topological_parent, edge="left", length=64):
    """Decay profile of the edge mode contributed by one topological parent.

    The profile is the difference of the two decaying-branch root powers,
    x^j difference for non-degenerate roots and j x^(j-1) at a degenerate
    root (a lattice delta when the root is zero).  For perpendicular
    parents the profile decays along that parent's finite direction and is
    constant along the other.
    """
    if topological_parent not in (1, 2):
        raise ValueError(f"topological_parent must be 1 or 2, got {topological_parent!r}")
    p = spec.p1 if topological_parent == 1 else spec.p2
    if not p.is_topological():
        raise ConfigError(f"parent {topological_parent} is not topological")
    if int(length) != length or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    branch = decaying_branch(p)
    roots = decay_roots(p, branch)
    x = np.arange(1, length + 1, dtype=float)
    r1, r2 = roots.roots
    if roots.is_degenerate:
        r = 0.5 * (r1 + r2)
        prof = np.abs(x * np.asarray(r, complex) ** (x - 1.0))
        prof[0] = 1.0 if abs(r) == 0.0 else prof[0]
    else:
        prof = np.abs(np.asarray(r1, complex) ** x - np.asarray(r2, complex) ** x)
    if edge == "right":
        prof = prof[::-1].copy()
    elif edge != "left":
        raise ValueError(f"edge must be 'left' or 'right', got {edge!r}")
    nrm = np.linalg.norm(prof)
    if nrm == 0.0:
        raise SingularConfigError("decay profile vanishes identically")
    direction = ""
    if spec.orientation == PERPENDICULAR:
        axis = "x" if topological_parent == 1 else "y"
        direction = f", decaying along {axis}, uniform along the other axis"
    return AnalyticMode(
        amplitudes=prof / nrm,
        internal=None,
        edge=edge,
        label=f"decay profile, parent {topological_parent}, branch {branch}{direction}",
        mu=float(p.mu),
    )


# ---------------------------------------------------------------------------
# zero-subspace entanglement classification


def tau_sigma_entropy(vec):
    """Entanglement entropy of a 4-vector across its 2x2 factor cut."""
    v = np.asarray(vec, dtype=complex).reshape(2, 2)
    sv = np.linalg.svd(v, compute_uv=False)
    total = float((sv**2).sum())
    if total <= 0.0:
        raise ValueError("cannot take the entropy of a null vector")
    prob = sv**2 / total
    prob = prob[prob > 1e-300]
    return float(-(prob * np.log(prob)).sum())


@dataclass
class StateLabel:
    label: str        # "bell:<name>", "prod:<name>", "prod:other", "unclassified"
    entropy: float
    overlap: float    # squared overlap with the named reference (0 when unnamed)
    vector: np.ndarray  # classification-frame coordinates


@dataclass
class MmzmClass:
    """Labeled zero-subspace content, optionally held against a catalogue row.

    matches_table asks whether every state is classified and lies in the
    span of the expected set; row_complete additionally asks whether each
    expected entangled pair is realized inside the subspace, which a short
    lattice may legitimately fail while the labels still match.
    """

    states: tuple
    subspace_dimension: int
    expected: tuple = None
    matches_table: bool = None
    row_complete: bool = None

    @property
    def labels(self):
        return tuple(s.label for s in self.states)


def _orthonormal_columns(mat, rel_tol=1e-8):
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return u[:, :0]
    return u[:, sv > rel_tol * sv[0]]


def _deflate(basis, v):
    # basis columns are orthonormal: surviving directions keep sv near 1,
    # so an absolute cut is the right one (a relative cut would resurrect
    # noise once the last direction is removed)
    resid = basis - np.outer(v, v.conj() @ basis)
    u, sv, _ = np.linalg.svd(resid, full_matrices=False)
    return u[:, sv > 1e-8]


def _greedy_reference_states(basis, overlap_min):
    """Peel off reference directions fully contained in the subspace."""
    accepted = []
    for kind, name in _REFERENCE_ORDER:
        if basis.shape[1] == 0:
            break
        ref = _reference_vector(f"{kind}:{name}")
        coeff = basis.conj().T @ ref
        if float((np.abs(coeff) ** 2).sum()) > overlap_min:
            v = basis @ coeff
            v = v / np.linalg.norm(v)
            accepted.append(v)
            basis = _deflate(basis, v)
    return accepted, basis


def _label_state(v, entropy_tol, overlap_min):
    S = tau_sigma_entropy(v)
    if abs(S - LN2) < entropy_tol:
        scores = {n: float(abs(b.conj() @ v) ** 2) for n, b in BELL_VECTORS.items()}
        name = max(scores, key=scores.get)
        if scores[name] > overlap_min:
            return StateLabel(f"bell:{name}", S, scores[name], v)
        return StateLabel("unclassified", S, max(scores.values()), v)
    if S < entropy_tol:
        scores = {n: float(abs(b.conj() @ v) ** 2) for n, b in PRODUCT_VECTORS.items()}
        name = max(scores, key=scores.get)
        if scores[name] > overlap_min:
            return StateLabel(f"prod:{name}", S, scores[name], v)
        return StateLabel("prod:other", S, max(scores.values()), v)
    return StateLabel("unclassified", S, 0.0, v)


def mmzm_classify(vectors, expected=None, entropy_tol=1e-6, overlap_min=0.999):
    """Classify zero-subspace spinor content against the state catalogue.

    The raw 4-vectors (rows) are orthonormalized and moved to the
    classification frame.  Reference states wholly inside their span are
    peeled off greedily (products before entangled pairs); the directions
    left over are kept as they are.  Each resulting state is labeled by its
    factor-cut entropy and best reference overlap.

    With an expected state set the result is checked two ways: every
    classified state must lie in the span of the expected set
    (matches_table), and every expected entangled pair must be present in
    the subspace span (row_complete).
    """
    raw = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if raw.shape[1] != 4:
        raise ValueError(f"expected internal 4-vectors, got shape {raw.shape}")
    basis = _orthonormal_columns(raw.T)
    if basis.shape[1] == 0:
        raise ConfigError("zero subspace is empty")
    ct = CLASSIFICATION_FRAME.conj().T @ basis
    accepted, residual = _greedy_reference_states(ct, overlap_min)
    cols = accepted + [residual[:, k] for k in range(residual.shape[1])]
    states = tuple(_label_state(v, entropy_tol, overlap_min) for v in cols)

    matches = complete = None
    if expected is not None:
        expected = tuple(expected)
        matches = all(s.label != "unclassified" for s in states)
        complete = True
        if expected:
            refs = np.stack([_reference_vector(lbl) for lbl in expected], axis=1)
            span = _orthonormal_columns(refs.astype(complex))
            for s in states:
                if float((np.abs(span.conj().T @ s.vector) ** 2).sum()) <= overlap_min:
                    matches = False
            for lbl in expected:
                if lbl.startswith("bell:"):
                    proj = float(
                        (np.abs(ct.conj().T @ _reference_vector(lbl)) ** 2).sum()
                    )
                    if proj <= overlap_min:
                        complete = False
        else:
            matches = matches and len(states) == 0
    return MmzmClass(
        states=states,
        subspace_dimension=basis.shape[1],
        expected=expected,
        matches_table=matches,
        row_complete=complete,
    )


def _sign_class(p, index):
    s = p.t * p.delta
    if s == 0.0:
        raise ConfigError(f"parent {index} has no sign class: t*Delta = 0")
    return 1 if s > 0.0 else -1


def _parents_proportional(spec, tol=1e-9):
    p1, p2 = spec.p1, spec.p2
    if p1.t == 0.0 or p2.t == 0.0 or p1.delta == 0.0 or p2.delta == 0.0:
        return False
    return (
        abs(abs(p1.mu / p1.t) - abs(p2.mu / p2.t)) < tol
        and abs(abs(p1.t / p1.delta) - abs(p2.t / p2.delta)) < tol
    )


_BOTH_TOPO_ROWS = {
    (1, 1): (("bell:00-11", "prod:01", "prod:10"), ("bell:00-11", "bell:01-10")),
    (1, -1): (("bell:01-10", "prod:00", "prod:11"), ("bell:01-10", "bell:00+11")),
    (-1, 1): (("bell:01+10", "prod:00", "prod:11"), ("bell:01+10", "bell:00-11")),
    (-1, -1): (("bell:00+11", "prod:01", "prod:10"), ("bell:00+11", "bell:01+10")),
}
_FIRST_TOPO_ROWS = {1: ("bell:00-11", "bell:01-10"), -1: ("bell:00+11", "bell:01+10")}
_SECOND_TOPO_ROWS = {1: ("bell:00-11", "bell:01+10"), -1: ("bell:00+11", "bell:01-10")}


def _row_for_signs(spec, s1, s2, open1=True, open2=True, corner=False):
    # a parent counts as topological only along an open direction; slab
    # corner rows always carry the explicit product pair
    topo1 = spec.p1.is_topological() and open1
    topo2 = spec.p2.is_topological() and open2
    if spec.p1.is_critical() or spec.p2.is_critical():
        raise ConfigError("state catalogue undefined at a critical parent")
    if topo1 and topo2:
        three, pair = _BOTH_TOPO_ROWS[(s1, s2)]
        return three if corner or _parents_proportional(spec) else pair
    if topo1:
        return _FIRST_TOPO_ROWS[s1]
    if topo2:
        return _SECOND_TOPO_ROWS[s2]
    return ()


def expected_boundary_states(spec, lat, region):
    """Catalogue row for one boundary region of a finite lattice.

    Chain regions are "left"/"right"; slab regions are the four quadrants
    "xlo_ylo", "xlo_yhi", "xhi_ylo", "xhi_yhi".  Crossing to the high edge
    of a direction flips that parent's sign class; for the chain the right
    edge flips both.
    """
    s1, s2 = _sign_class(spec.p1, 1), _sign_class(spec.p2, 2)
    if isinstance(lat, ChainLattice):
        if spec.orientation != PARALLEL:
            raise ValueError("chain regions need a parallel child")
        if region not in ("left", "right"):
            raise ValueError(f"chain region must be 'left' or 'right', got {region!r}")
        if lat.bc == PERIODIC:
            return ()
        if region == "right":
            s1, s2 = -s1, -s2
        return _row_for_signs(spec, s1, s2)
    if not isinstance(lat, SlabLattice):
        raise TypeError(f"lattice must be ChainLattice or SlabLattice, got {type(lat)!r}")
    if spec.orientation != PERPENDICULAR:
        raise ValueError("slab regions need a perpendicular child")
    parts = region.split("_")
    if len(parts) != 2 or parts[0] not in ("xlo", "xhi") or parts[1] not in ("ylo", "yhi"):
        raise ValueError(f"slab region must be a quadrant like 'xlo_ylo', got {region!r}")
    if parts[0] == "xhi":
        s1 = -s1
    if parts[1] == "yhi":
        s2 = -s2
    return _row_for_signs(spec, s1, s2, lat.bcx == OPEN, lat.bcy == OPEN, corner=True)


def _region_slices(lat):
    if isinstance(lat, ChainLattice):
        half = lat.L // 2
        return {"left": (slice(0, half),), "right": (slice(half, None),)}
    mx, my = lat.Lx // 2, lat.Ly // 2
    return {
        "xlo_ylo": (slice(0, mx), slice(0, my)),
        "xlo_yhi": (slice(0, mx), slice(my, None)),
        "xhi_ylo": (slice(mx, None), slice(0, my)),
        "xhi_yhi": (slice(mx, None), slice(my, None)),
    }


def classify_zero_modes(spec, lat, zero_tol=None, site_tol=1e-6, rank_tol=1e-6):
    """Classify the zero-subspace content of every boundary region.

    The zero subspace collects eigenvectors below zero_tol (default 1e-6
    of the bandwidth, absolute energy otherwise), from lattice.zero_subspace.
    Per region, the spinor content of the maximum-density sites (within
    site_tol of the regional maximum) is stacked and reduced by singular
    values above rank_tol of the leading one, then classified against the
    expected catalogue row.
    """
    zs = zero_subspace(spec, lat, tol=zero_tol, rel_tol=1e-6)
    if zs.count == 0:
        return {}
    out = {}
    for region, sl in _region_slices(lat).items():
        sub = zs.weights[sl]
        peak = float(sub.max())
        if peak <= 0.0:
            continue
        idx = np.argwhere(sub >= (1.0 - site_tol) * peak)
        offset = np.array([s0.start or 0 for s0 in sl])
        mats = np.concatenate([zs.spinors(tuple(i + offset)) for i in idx], axis=1)
        content = _orthonormal_columns(mats, rel_tol=rank_tol)
        if content.shape[1] == 0:
            continue
        expected = expected_boundary_states(spec, lat, region)
        out[region] = mmzm_classify(content.T, expected=expected)
    return out


# ---------------------------------------------------------------------------
# perpendicular edge geometry


def perp_edge_prediction(spec):
    """Where zero modes sit on a fully open slab: edges, perimeter, or none."""
    if spec.orientation != PERPENDICULAR:
        raise ValueError("edge prediction applies to the perpendicular child")
    if spec.p1.is_critical() or spec.p2.is_critical():
        return "critical"
    topo1, topo2 = spec.p1.is_topological(), spec.p2.is_topological()
    if topo1 and topo2:
        return "perimeter"
    if topo1:
        return "x-edges"
    if topo2:
        return "y-edges"
    return "none"


def perp_obc_gapless_points(spec, Lx, Ly):
    """Shared-mu gap closings of the fully open slab, with quartet counts.

    The x family takes parent 1 through the chain formula on Lx sites and
    each value closes the gap with Ly zero quartets; the y family mirrors
    this with parent 2 and Lx quartets.  A value claimed by both families
    merges with Lx + Ly - 1 quartets (the doubly-counted product states
    appear once).

    The counts are exact-zero quartets.  A zero-mode count at an absolute
    tolerance, such as the 1e-8 default of the density and classify tasks,
    also takes in chain-end splittings that fall below it, so it can be
    larger on long slabs: at 20x50 with Delta = 0.5 t, 18 of the 68 points
    count extra near-zero products.
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("gapless-point families apply to the perpendicular child")
    fx = kc_majorana_points(spec.p1, Lx)
    fy = kc_majorana_points(spec.p2, Ly)
    merged = {}
    for mu, prov in zip(fx.mu_values, fx.provenance):
        key = round(mu, 12)
        merged.setdefault(key, {"x": None, "y": None})["x"] = f"x:{prov}"
    for mu, prov in zip(fy.mu_values, fy.provenance):
        key = round(mu, 12)
        merged.setdefault(key, {"x": None, "y": None})["y"] = f"y:{prov}"
    entries = []
    for key, fams in merged.items():
        if fams["x"] is not None and fams["y"] is not None:
            entries.append((key, Lx + Ly - 1, f"{fams['x']}&{fams['y']}"))
        elif fams["x"] is not None:
            entries.append((key, Ly, fams["x"]))
        else:
            entries.append((key, Lx, fams["y"]))
    return _point_set(entries)


# ---------------------------------------------------------------------------
# critical-point energy scaling


@dataclass
class ScalingFit:
    kind: str
    exponent: float
    delta_mu: np.ndarray
    energies: np.ndarray


def energy_scaling_near_critical(kind, delta_mu=None, t=1.0, delta=1.0):
    """Fitted power of the k = 0 gap against the distance from criticality.

    "equal" drives both parents through mu = -2t + delta_mu together and
    the gap opens quadratically; "opposite" holds mu2 = -mu1 and the gap
    opens linearly.
    """
    if kind not in ("equal", "opposite"):
        raise ValueError(f"kind must be 'equal' or 'opposite', got {kind!r}")
    if delta_mu is None:
        delta_mu = np.logspace(-3.0, -1.0, 25) * abs(t)
    delta_mu = np.asarray(delta_mu, dtype=float)
    if delta_mu.min() <= 0.0 or delta_mu.max() > 0.1 * abs(t) * (1.0 + 1e-12):
        raise ValueError("delta_mu grid must sit inside (0, 0.1 |t|]")
    energies = []
    for d in delta_mu:
        mu1 = -2.0 * t + d
        mu2 = mu1 if kind == "equal" else -mu1
        spec = ChildSpec(
            p1=ParentParams(t=t, delta=delta, mu=mu1),
            p2=ParentParams(t=t, delta=delta, mu=mu2),
            orientation=PARALLEL,
        )
        ev = np.linalg.eigvalsh(child_bloch(spec, 0.0))
        energies.append(float(np.abs(ev).min()))
    energies = np.asarray(energies)
    exponent = float(np.polyfit(np.log(delta_mu), np.log(energies), 1)[0])
    return ScalingFit(kind=kind, exponent=exponent, delta_mu=delta_mu, energies=energies)
