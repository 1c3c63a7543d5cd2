"""The paper's analytic boundary results, outside the command line's import path.

Decay roots of the localized (k -> iq) bulk problem and the branch that
decays from a left edge, closed-form standing-wave zero modes of the
sign-mixed product chain and their summed density, semi-infinite edge
decay profiles, where the zero modes of a fully open slab sit, and the
power law of the gap near a critical point.  No task runs them; the tests
check them against the lattice solvers.
"""

import numpy as np
from dataclasses import dataclass

from .boundary import _sign_mixed_family
from .errors import ConfigError, SingularConfigError
from .lattice import _with_mu
from .models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams, dispersion_parallel


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
    d, allowed = _sign_mixed_family(N, which)
    if n not in allowed:
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
        raise ConfigError(f"lattice size must be an integer >= 2, got {N!r}")
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
    parent = ParentParams(t=t, delta=delta, mu=0.0)
    template = ChildSpec(parent, parent, PARALLEL)
    energies = []
    for d in delta_mu:
        spec = _with_mu(template, -2.0 * t + d, kind)
        energies.append(float(dispersion_parallel(spec, 0.0)[0]))
    energies = np.asarray(energies)
    exponent = float(np.polyfit(np.log(delta_mu), np.log(energies), 1)[0])
    return ScalingFit(kind=kind, exponent=exponent, delta_mu=delta_mu, energies=energies)
