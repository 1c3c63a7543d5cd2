"""Exact-zero potentials and zero-mode classification for finite chains and slabs.

Three strands: the chemical potentials at which finite lattices host
exact zero modes, standing-wave quantization that generates those
potentials for general parameter classes, and the entanglement
classification of the zero-energy subspace.  Each boundary region's
spinor content at its dominant sites is read from its 4x4 Gram matrix and
rotated into a frame where it splits into product states and maximally
entangled pairs of the two internal two-level factors; reference states
are peeled off its 4x4 projector greedily, and what is left is kept as
is.  All regions go through these steps together, as one stack of 4x4
matrices.  The closed-form decay roots and edge wavefunctions that the
tests hold these against live in mkc.analytic, which no task imports.
"""

import math
import numpy as np
from dataclasses import dataclass

from .errors import ConfigError
from .lattice import OPEN, PERIODIC, ChainLattice, SlabLattice
from .lattice import exact_zero_potentials, zero_subspace
from .models import BELL_VECTORS, BLOCK_BASIS, PARALLEL, PERPENDICULAR, ChildSpec, ParentParams
from .solve import singular_pairs

LN2 = float(np.log(2.0))

# Basis products of the two internal two-level factors, in the same
# (00, 01, 10, 11) order as models.BELL_VECTORS.
PRODUCT_VECTORS = dict(zip(("00", "01", "10", "11"), np.eye(4)))

# The catalogue as the rows of one matrix, in peel order.  Products come
# first: when a degenerate subspace admits both a product and an entangled
# description, the tabulated sets keep the products explicit.  Every
# reference is real, so a row times a state is their overlap.
_REFERENCE_LABELS = tuple(f"prod:{n}" for n in PRODUCT_VECTORS) + tuple(
    f"bell:{n}" for n in BELL_VECTORS
)
_REFERENCES = np.stack([*PRODUCT_VECTORS.values(), *BELL_VECTORS.values()]).astype(complex)


def _references(labels):
    """The named catalogue states as the rows of one matrix."""
    return _REFERENCES[[_REFERENCE_LABELS.index(label) for label in labels]]


# Frame in which raw zero-subspace spinors assume the tabulated forms:
# the Bell columns of models.BLOCK_BASIS, reordered and signed as
# {|00-11>, -|00+11>, |01+10>, |01-10>}.  Coordinates in this frame are what
# the product/Bell catalogue refers to.
CLASSIFICATION_FRAME = BLOCK_BASIS[:, [0, 2, 3, 1]] * np.array([1.0, -1.0, 1.0, -1.0])


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


def _point_set(entries):
    entries = sorted(entries, key=lambda e: e[0])
    return MajoranaPointSet(
        mu_values=tuple(float(e[0]) for e in entries),
        degeneracies=tuple(int(e[1]) for e in entries),
        provenance=tuple(str(e[2]) for e in entries),
    )


def _window(p):
    """Half-width 2 sqrt(t^2 - Delta^2) of p's oscillatory mu window; 0 when |t| <= |Delta|."""
    return 2.0 * np.sqrt(max(p.t * p.t - p.delta * p.delta, 0.0))


def kc_majorana_points(p, L):
    """The L chain potentials mu_n = 2 sqrt(t^2 - Delta^2) cos(n pi / (L+1)).

    For |t| <= |Delta| the square root is taken as zero and every value
    collapses onto mu = 0.
    """
    if int(L) != L or L < 1:
        raise ValueError(f"chain length must be a positive integer, got {L!r}")
    scale = _window(p)
    return _point_set(
        (scale * np.cos(n * np.pi / (L + 1)), 1, f"n={n}/(L+1)") for n in range(1, L + 1)
    )


def _sign_mixed_family(L, which):
    """Denominator d and indices n of component which's standing-wave angles n pi / d.

    On L sites of the sign-mixed product chain d is L + 2 for even L; for odd
    L it is L + 1 for component 1 (even sites) and L + 3 for component 2 (odd
    sites).  The index 2n = d, whose standing wave vanishes on its sublattice
    (the mu = 0 slot), is excluded.
    """
    d = L + 2 if L % 2 == 0 else (L + 1 if which == 1 else L + 3)
    return d, [n for n in range(1, d) if 2 * n != d]


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
        raise ConfigError(f"chain length must be an integer >= 2, got {L!r}")
    scale = _window(ParentParams(t, delta, 0.0))
    if L % 2 == 0:
        d, ns = _sign_mixed_family(L, 1)
        return _point_set((scale * np.cos(n * np.pi / d), 2, f"n={n}/(L+2)") for n in ns)
    entries = []
    for which, sites in ((1, "even-sites"), (2, "odd-sites")):
        d, ns = _sign_mixed_family(L, which)
        entries += [
            (scale * np.cos(n * np.pi / d), 1, f"{sites} n={n}/(L+{d - L})") for n in ns
        ]
    return _point_set(entries)


# ---------------------------------------------------------------------------
# standing-wave quantization


def quantization_points(p1, p2, N, mu_range=None):
    """Exact-zero potentials of the shared-mu product chain in the oscillatory window.

    The chain is the parallel child of p1 and p2 on N open sites, both
    parents at the shared mu, and its exact-zero potentials are the real
    roots of its chiral-corner pencil, lattice.exact_zero_potentials.  Only
    roots strictly inside the window |mu| < 2 sqrt(t^2 - Delta^2) of both
    parents are returned, clipped further to mu_range when given: there the
    decay roots oscillate and the paper's standing-wave condition is
    defined.  Exact zeros outside it (mu = +-1.9781
    for the sign-mixed child t = 1, Delta = 0.5 at N = 31) are left out.  At
    small |Delta / t| the window also holds exact zeros that the condition
    does not generate; they are returned too.
    """
    half = min(_window(p) for p in (p1, p2))
    if half <= 0.0:
        raise ConfigError("no oscillatory window: a parent has |t| <= |Delta|")
    lo, hi = (-half, half) if mu_range is None else mu_range
    mu = exact_zero_potentials(ChildSpec(p1, p2, PARALLEL), N)
    mu = mu[(np.abs(mu) < half) & (mu >= lo) & (mu <= hi)]
    return _point_set((m, 1, "quantization-scan") for m in mu)


# ---------------------------------------------------------------------------
# zero-subspace entanglement classification


def _entropy(v00, v01, v10, v11):
    total = abs(v00) ** 2 + abs(v01) ** 2 + abs(v10) ** 2 + abs(v11) ** 2
    if total <= 0.0:
        raise ValueError("cannot take the entropy of a null vector")
    d = abs(v00 * v11 - v01 * v10) ** 2 / total**2
    big = 0.5 * (1.0 + math.sqrt(max(1.0 - 4.0 * d, 0.0)))
    small = d / big
    # both terms are >= 0 and a product's is +0.0, never -(1 log 1) = -0.0
    return (-small * math.log(small) if small > 0.0 else 0.0) - big * math.log(big)


def tau_sigma_entropy(vec):
    """Entanglement entropy of a 4-vector across its 2x2 factor cut.

    With d = |v00 v11 - v01 v10|^2 / |v|^4 the Schmidt weights are
    (1 +- sqrt(1 - 4d)) / 2 (Wootters, PRL 80 (1998) 2245).  The small one
    is taken as d over the large one: exact down to a product's +0.0.
    """
    return _entropy(*np.asarray(vec, dtype=complex).reshape(4).tolist())


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



def _row_table(row):
    """A state set's references as the rows of a zero-padded 4x4 matrix.

    An orthonormal set of 4-vectors has at most four members.
    """
    refs = np.zeros((4, 4), complex)
    refs[: len(row)] = _references(row)
    return refs


# Every catalogue row's table, built once; each row is orthonormal.
_ROW_TABLES = {
    row: _row_table(row)
    for row in [(), *_FIRST_TOPO_ROWS.values(), *_SECOND_TOPO_ROWS.values()]
    + [row for pair in _BOTH_TOPO_ROWS.values() for row in pair]
}


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


def _classify_stack(content, rows=None, entropy_tol=1e-6, overlap_min=0.999):
    """Classify the spinor content of R regions at once; content is (R, 4, K).

    Each region's columns are orthonormalized (relative cut 1e-8) and
    moved to the classification frame.  Reference states wholly inside a
    span are peeled off its 4x4 projector P greedily, in catalogue order: r
    is accepted when |P r|^2 > overlap_min and v = P r / |P r| removed as
    P - v v^H.  The directions left over come from the final P, or are the
    frame columns unchanged when nothing was peeled.  Each state is labeled
    by its factor-cut entropy and best reference overlap.  Every step is
    one call on the whole stack; a region of lower rank carries zero
    columns.  rows holds each region's expected state set (see
    mmzm_classify), or is None for no catalogue check.
    """
    u, sv, _ = singular_pairs(np.asarray(content, dtype=complex))
    keep = (sv > 1e-8 * sv[:, :1])[:, None, :]
    rank = keep.sum(axis=2)[:, 0]
    if not rank.all():
        raise ConfigError("zero subspace is empty")
    count = len(content)
    ct = np.zeros((count, 4, 4), complex)
    ct[..., : u.shape[2]] = CLASSIFICATION_FRAME.conj().T @ np.where(keep, u, 0.0)

    proj = ct @ ct.conj().transpose(0, 2, 1)
    # P only shrinks, so a reference out of the first P's reach in every
    # region is never accepted, and a full region's P is zero
    reach = (np.abs(proj @ _REFERENCES.T) ** 2).sum(axis=1) > overlap_min
    peeled = np.zeros((count, len(_REFERENCES), 4), complex)
    taken = np.zeros((count, len(_REFERENCES)), dtype=bool)
    slot, found = np.zeros(taken.shape, dtype=int), np.zeros(count, dtype=int)
    for k in np.flatnonzero(reach.any(axis=0)):
        v = proj @ _REFERENCES[k]
        norm = np.sqrt((np.abs(v) ** 2).sum(axis=1))
        take = norm**2 > overlap_min
        if take.any():
            w = v / np.where(take, norm, np.inf)[:, None]
            proj -= w[:, :, None] * w[:, None, :].conj()
            peeled[:, k], taken[:, k], slot[:, k] = w, take, found
            found += take
            if (found == rank).all():
                break
    # each region's accepted states in peel order, then what is left
    states = np.zeros_like(ct)
    reg, ref = np.nonzero(taken)
    states[reg, :, slot[reg, ref]] = peeled[reg, ref]
    rest = rank - found
    redo = np.flatnonzero((found > 0) & (rest > 0))
    if redo.size:
        at, col = np.nonzero(np.arange(4) < rest[redo, None])
        left = singular_pairs(proj[redo])[0]
        states[redo[at], :, found[redo[at]] + col] = left[at, :, col]
    states[found == 0] = ct[found == 0]

    # per state, its overlaps with the catalogue: products, then Bell pairs
    over = (np.abs(_REFERENCES @ states) ** 2).transpose(0, 2, 1).tolist()
    if rows is not None:
        refs = np.array([_ROW_TABLES[row] if row in _ROW_TABLES else _row_table(row) for row in rows])
        # an entangled pair's entries are 1/sqrt(2), a product's 1
        peak = np.abs(refs).max(axis=2)
        bell = (peak > 0.0) & (peak < 1.0)
        in_row = (np.abs(refs @ states) ** 2).sum(axis=1) > overlap_min
        in_span = (np.abs(refs @ ct) ** 2).sum(axis=2) > overlap_min
        matches = (in_row.sum(axis=1) == rank).tolist()
        complete = (in_span | ~bell).all(axis=1).tolist()

    out = []
    for r, coords in enumerate(states.transpose(0, 2, 1).tolist()):
        labels = []
        for i in range(rank[r]):
            S = _entropy(*coords[i])
            kind = 1 if abs(S - LN2) < entropy_tol else 0 if S < entropy_tol else None
            if kind is None:
                label, score = "unclassified", 0.0
            else:
                scores = over[r][i][4 * kind : 4 * kind + 4]
                score = max(scores)
                if score > overlap_min:
                    label = _REFERENCE_LABELS[4 * kind + scores.index(score)]
                else:
                    label = "unclassified" if kind else "prod:other"
            labels.append(StateLabel(label, S, score, states[r, :, i]))
        flags = {}
        if rows is not None:
            named = all(s.label != "unclassified" for s in labels)
            flags = dict(expected=rows[r], matches_table=named and matches[r], row_complete=complete[r])
        out.append(MmzmClass(states=tuple(labels), subspace_dimension=int(rank[r]), **flags))
    return out


def mmzm_classify(vectors, expected=None, entropy_tol=1e-6, overlap_min=0.999):
    """Classify zero-subspace spinor content against the state catalogue.

    The raw 4-vectors (rows) are orthonormalized and moved to the
    classification frame.  Reference states wholly inside their span are
    peeled off greedily (products before entangled pairs); the directions
    left over are kept as they are.  Each resulting state is labeled by its
    factor-cut entropy and best reference overlap.  This is the one-region
    case of the stack that classify_zero_modes classifies.

    With an expected state set the result is checked two ways: every
    classified state must lie in the span of the expected set
    (matches_table), and every expected entangled pair must be present in
    the subspace span (row_complete).  The expected references must be
    orthonormal, as every catalogue row is (ValueError otherwise).
    """
    raw = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if raw.shape[1] != 4:
        raise ValueError(f"expected internal 4-vectors, got shape {raw.shape}")
    rows = None
    if expected is not None:
        rows = [tuple(expected)]
        refs = _references(rows[0])
        if np.linalg.norm(refs @ refs.conj().T - np.eye(len(refs))) > 1e-12:
            raise ValueError(f"expected states must be orthonormal, got {rows[0]}")
    return _classify_stack(raw.T[None], rows, entropy_tol, overlap_min)[0]


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
    Per region, the spinors M of the maximum-density sites (within site_tol
    of the regional maximum) enter through the 4x4 Gram matrix M M^H: its
    singular vectors above rank_tol^2 of the leading one, passed once more
    through M M^H, span the content classified against the catalogue row.
    A region whose density vanishes is left out.  The regions' spinors are
    gathered into one stack, zero-padded to the widest, and every later
    step is one call on that stack.
    """
    zs = zero_subspace(spec, lat, tol=zero_tol, rel_tol=1e-6)
    if zs.count == 0:
        return {}
    regions, spinors = [], []
    for region, sl in _region_slices(lat).items():
        sub = zs.weights[sl]
        peak = float(sub.max())
        if peak > 0.0:
            idx = np.argwhere(sub >= (1.0 - site_tol) * peak) + [s0.start or 0 for s0 in sl]
            regions.append(region)
            spinors.append(zs.spinors(tuple(idx.T)))
    # each region's sites side by side, (4, sites x modes), zero-padded;
    # real spinors stay real
    m = np.zeros((len(regions), 4, max(map(len, spinors)), zs.count), np.result_type(*spinors))
    for r, spin in enumerate(spinors):
        m[r, :, : len(spin)] = spin.transpose(1, 0, 2)
    m = m.reshape(len(regions), 4, -1)
    # mh is a copy and u keeps all four columns, so each product is a
    # 4-wide gemm: syrk or skinny kernels would load code that peak RSS
    # counts.  The power step (u^H M) M^H undoes the Gram's rounding tilt of
    # weak ones; u^H M, the conjugate of M^H u, takes M's storage.  Dropped
    # directions divide by inf and leave zero columns.
    mh = np.conj(m.transpose(0, 2, 1), out=np.empty(m.shape[::2] + (4,), m.dtype))
    u, sv, _ = singular_pairs(m @ mh)
    sv = np.where(sv > rank_tol**2 * sv[:, :1], sv, np.inf)
    uhm = np.matmul(mh, u, out=m.reshape(mh.shape))
    np.conj(uhm, out=uhm)
    content = (uhm.transpose(0, 2, 1) @ mh).conj().transpose(0, 2, 1) / sv[:, None, :]
    rows = [expected_boundary_states(spec, lat, region) for region in regions]
    return dict(zip(regions, _classify_stack(content, rows)))


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
