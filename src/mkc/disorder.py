"""Seeded on-site disorder and robustness verdicts for near-zero modes.

Disorder enters as a site-diagonal term V_s P with P one internal channel
matrix (a Pauli matrix for the two-band chain, a Pauli tensor product for
the four-band models) and V_s drawn i.i.d. uniform on [-W, W].

The draws are numpy's Philox4x64-10 stream, reproduced bit for bit in
mkc.philox: realization r of seed s is
Generator(Philox(key=[s, r])).uniform(-W, W, sites).  The potentials
depend only on (seed, W, realization, site count), so robustness_sweep
draws every realization once per sweep and every channel and grid point
reads the same array.

Every clean model is real and chiral, and every clean child commutes with
t_x s_x (see models.symmetry_check).  BlockSolver solves each disordered
matrix in the smallest real blocks that lattice._FrameBlocks.split picks
for the channel matrix, from the clean model's checked and rotated
hopping blocks plus the site potentials; neither the disordered matrix
nor any of its blocks is ever assembled.  Each block is cut into the
connected components of its graph of (site, frame column) nodes
(lattice._components, the rule that also cuts the quantization pencils
of lattice.exact_zero_potentials), which meet where a lattice entry of
the clean block (a rotated hopping block's entry on a bond) lies above
the tolerance of the symmetry checks or where the channel's site term
sits, and components of one size are solved in one stacked call of
mkc.solve, which takes 1x1 components by their modulus.  The one rule
serves chains and slabs alike.  The parallel child at
mu1 = mu2 = 0 hops only by 0 and +-2, so on an open chain or an even ring
its even and odd sites are two chains of about L/2 sites; the
perpendicular slab there hops only by
(+-1, +-1), so on open sides and even rings it comes apart at least into
its sites with ix + iy even and those with ix + iy odd.  At Kitaev's
dead point, |t| = |Delta| in both parents as well, one t_x s_x sector
hops not at all and is solved site by site, and the other pairs each
node with one two sites away, so a channel that keeps that sector's
columns apart (00, 0x and their twins) solves it as 2x2 dimers and 1x1
end nodes.  A slab whose first parent sits at the
dead point, as (1, 1, 0) x (1, 1, 3) does, hops along x only inside
dimers, so those channels solve it as strips along y.

Channels also share solves below their classes: a group of equal-size
components is solved once per draw for every channel whose group key, the
part and its site-term coefficients, matches.  Where the components are
trees, the key takes the moduli of the coefficients that sit on clean
zeros, since a forest's singular values depend on its entry moduli alone;
at the dead point yy, yz and zz so share one hopping-sector solve.  A
chain sweep reads its clean levels from the same solver's checked frame,
a slab sweep from lattice.levels: both without an SVD.

The same symmetries make channels come in twins with one |E| spectrum:
the twin of a child channel P is the Pauli pair proportional to t_x s_x P.
Site-local symmetries of the clean hopping blocks (_site_symmetries,
searched at each grid point) join more channels.  _solve_owners says when
and why two channels share a spectrum; each channel reads the
displacement of the first channel of its class.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import (
    LINK_EQUAL,
    OPEN,
    SlabLattice,
    _FrameBlocks,
    _frame_levels,
    _kron2,
    _negligible,
    _support,
    _with_mu,
    _zero_tol,
    chain_hopping_blocks,
    levels,
    slab_hopping_blocks,
)
from .models import _C1, _C2, _U, PAULI, ParentParams
from .parts import bond_folds, part_groups
from .philox import _check_ensemble, _philox_uniform
from .solve import singular_values, symmetric_levels
from .tolerance import SYMMETRY_TOL

PARENT_CHANNELS = ("x", "y", "z")
CHILD_CHANNELS = tuple(itertools.product("0xyz", repeat=2))
# the sixteen child channel matrices, in CHILD_CHANNELS order
_PAIRS = np.stack([_kron2(PAULI[a], PAULI[b]) for a, b in CHILD_CHANNELS])

DEFAULT_AMPLITUDE = 0.2
DEFAULT_REALIZATIONS = 50
DEFAULT_SEED = 42


def _normalize_channel(channel):
    if isinstance(channel, str) and len(channel) == 2:
        channel = tuple(channel)
    if isinstance(channel, (tuple, list)):
        channel = tuple(channel)
        if len(channel) != 2 or any(c not in PAULI for c in channel):
            raise ConfigError(f"child channel must pair indices from 0xyz, got {channel!r}")
        return channel
    if channel not in PAULI:
        raise ConfigError(f"parent channel must be one of 0, x, y, z, got {channel!r}")
    return channel


def channel_matrix(channel):
    """Internal-space matrix of a disorder channel; 2x2 or 4x4."""
    channel = _normalize_channel(channel)
    if isinstance(channel, tuple):
        return _PAIRS[CHILD_CHANNELS.index(channel)].copy()
    return PAULI[channel].copy()


def channel_name(channel):
    channel = _normalize_channel(channel)
    return "".join(channel) if isinstance(channel, tuple) else channel


@dataclass(frozen=True)
class DisorderSpec:
    """One disorder ensemble: channel, bound W, realization count, seed."""

    channel: object
    amplitude: float
    realizations: int = DEFAULT_REALIZATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "channel", _normalize_channel(self.channel))
        _check_ensemble(self.amplitude, self.realizations, self.seed)


def site_potentials(spec, realization, sites):
    """The uniform [-W, W] draws of one realization, one value per site."""
    return _philox_uniform(spec.seed, spec.amplitude, [realization], sites)[0]


def _site_count(lat):
    return lat.Lx * lat.Ly if isinstance(lat, SlabLattice) else lat.L


class BlockSolver:
    """|E| spectra of a clean lattice model plus site-diagonal disorder.

    spec and lat give the clean model on a chain or slab, checked and
    rotated by lattice._FrameBlocks.  For a channel matrix P the solver
    puts a phase i on the t_x s_x = -1 columns when that makes P real (the
    antiunitary t_x s_x K then keeps the whole matrix real), and solves
    the blocks that _FrameBlocks.split picks for P.  Each block is cut
    into the connected components (lattice._components) of its clean
    lattice entries and the support of P there (mkc.parts; no block is
    assembled), and each group of equal-size components takes one stacked
    svd or eigvalsh call per draw; a group of 1x1 components takes the
    moduli of its entries instead.  The site term adds only P's entries
    that do not round to zero (_support).

    A group's levels are fixed by its key: its part (the clean stack and
    the site-term positions) and the site-term coefficients.  Where every
    corner component's exact nonzero pattern (clean entries != 0 and the
    site-term positions) is a tree, 2n - 1 edges on n row and n column
    nodes, diagonal unitaries take the block to its moduli, D1 A D2 = |A|,
    so its singular values depend on the entry moduli alone; there the
    key and the solve take |coef| for each entry that sits only on clean
    zeros.  An entry on a nonzero clean entry keeps its exact coefficient,
    and so does every symmetric (eigvalsh) group.  Each key is solved once
    per draw V, and every channel with that key reads that result.
    """

    def __init__(self, spec, lat):
        hopping = slab_hopping_blocks if isinstance(lat, SlabLattice) else chain_hopping_blocks
        self.sites = _site_count(lat)
        self._blocks = _FrameBlocks(hopping(spec))
        self._lat = lat
        self._folds = bond_folds(self._blocks.rotated, lat)
        self._parts = {}
        # the levels of each group key solved for the draw whose bytes are _drawn
        self._drawn, self._solved = None, {}

    def levels(self):
        """Ascending |E| of the clean chain, one per +-E pair, as lattice.levels.

        They are read from the solver's own checked frame
        (lattice._frame_levels); chains only.
        """
        return _frame_levels(self._blocks, self._lat)

    def _part(self, rows, cols, joins):
        """(key, groups) of the clean part rows x cols for the site term support joins.

        groups are parts.part_groups, cut from the part's lattice entries.
        Parts recur across channels, so each is cut once per solver.
        """
        key = (rows.tobytes(), cols.tobytes(), joins.tobytes())
        if key not in self._parts:
            groups = part_groups(self._folds, self.sites, self._blocks.tol, rows, cols, joins)
            self._parts[key] = key, groups
        return self._parts[key]

    def channel(self, mat):
        """The solve for channel matrix mat: site potentials -> ascending |E|."""
        fb = self._blocks
        q = fb.q
        p = fb.frame.T @ mat @ fb.frame
        if not _negligible(p.imag):
            phase = np.where(q < 0, 1j, 1.0)
            turned = phase.conj()[:, None] * p * phase[None, :]
            if _negligible(turned.imag):
                fb.require("t_x s_x", q[:, None] == q[None, :])
                p = turned
        if _negligible(p.imag):
            p = p.real
        blocks = []
        for rows, cols, corner in fb.split(p):
            pb = p[np.ix_(rows, cols)]
            joins = _support(pb)
            part, groups = self._part(rows, cols, joins)
            for g, (clean, idx, site, entry, free) in enumerate(groups):
                coef = np.where(free, np.abs(pb[joins]), pb[joins])
                if not coef.imag.any():
                    coef = coef.real
                key = (part, g, coef.dtype.char, coef.tobytes())
                blocks.append((key, (clean, idx, site, coef[entry], corner)))

        def solve(v):
            drawn = v.tobytes()
            if drawn != self._drawn:
                self._drawn, self._solved = drawn, {}
            out = []
            for key, block in blocks:
                if key not in self._solved:
                    self._solved[key] = _group_levels(v, *block)
                out += self._solved[key]
            return np.sort(np.concatenate(out))

        return solve


def _group_levels(v, clean, idx, site, coef, corner):
    """[|E|] of a class group plus the site term v[site] coef at idx, a corner's twice."""
    a = clean.astype(np.result_type(clean, coef))
    a.reshape(-1)[idx] += v[site] * coef
    if corner:
        sv = singular_values(a).ravel()
        return [sv, sv]
    return [symmetric_levels(a).ravel()]


def _site_turns():
    """(tp, ts): the 24 one-factor Cliffords, turn t taking s_j to ts[t, j] s_tp[t, j].

    Each maps (s_x, s_y, s_z) to a signed permutation of itself with
    determinant +1 (Gottesman, arXiv:quant-ph/9807006) and keeps s_0.
    """
    turns = [
        ((0,) + p, (1.0,) + s)
        for p in itertools.permutations((1, 2, 3)) for s in itertools.product((1.0, -1.0), repeat=3)
        if math.prod(s) * (p[1] - p[0]) * (p[2] - p[0]) * (p[2] - p[1]) > 0
    ]
    return tuple(np.array(t) for t in zip(*turns))


def _site_symmetries(fb, lat):
    """Links (a, b, s) of child channel names by the site-local symmetries of a clean child.

    A symmetry turns each factor by one of _site_turns, after swapping the
    factors or not (a map W, 1152 in all), with a sign eps and a gauge w^r,
    w^4 = 1 (w^L = 1 on a ring of L sites; wx^rx wy^ry on a slab), such that
    W H_r W^H = eps w^r H_r for each of fb's blocks within fb.tol on their
    Pauli coefficients.  With the site gauge w^-j it maps H0 + V P_a to
    eps (H0 + s V P_b), where W P_a W^H = eps s P_b.  Maps are pruned on
    each block's support first.
    """
    if fb.q.size != 4:
        return frozenset()
    pairs = fb.frame.T @ _PAIRS @ fb.frame
    blocks = np.stack(list(fb.rotated.values()))
    coef = 0.25 * (pairs[None] * blocks.transpose(0, 2, 1)[:, None]).sum(axis=(2, 3))
    # map (w, t1, t2) turns factor 1 by t1 and factor 2 by t2, after swapping them if w
    tp, ts = _site_turns()
    # a map must keep each block's support: bit r of code marks block r's nonzeros
    code = ((np.abs(coef) > fb.tol) << np.arange(len(coef))[:, None]).sum(axis=0).reshape(4, 4)
    moved = code[tp[:, None, :, None], tp[None, :, None, :]]
    w, t1, t2 = np.nonzero(np.stack([moved == code, moved == code.T]).all(axis=(3, 4)))
    # the survivors take Pauli pair i, 4a + b over 0xyz, to sign[k, i] pair perm[k, i]
    a, b = np.divmod(np.arange(16), 4)
    x, y = np.where(w[:, None], b, a), np.where(w[:, None], a, b)
    perm = 4 * tp[t1[:, None], x] + tp[t2[:, None], y]
    sign = ts[t1[:, None], x] * ts[t2[:, None], y]
    # fits[r, m, k]: map k takes block r to i^m times itself
    roots = np.array([1, 1j, -1, -1j])[:, None, None]
    fits = np.stack([np.abs(sign * c - roots * c[perm]).max(axis=2) <= fb.tol for c in coef])
    slab = isinstance(lat, SlabLattice)
    sides = ((lat.Lx, lat.bcx), (lat.Ly, lat.bcy)) if slab else ((lat.L, lat.bc),)
    exps = [[e for e in range(4) if bc == OPEN or e * n % 4 == 0] for n, bc in sides]
    # eps w^r = i^m for eps = i^f and w = i^e per direction
    options = np.array(list(itertools.product((0, 2), *exps)))
    m = (options[:, :1] + options[:, 1:] @ np.reshape(list(fb.rotated), (len(coef), -1)).T) % 4
    g, k = np.nonzero(fits[np.arange(len(coef)), m].all(axis=1))
    names = np.array(["".join(c) for c in CHILD_CHANNELS])
    signs = ((1 - options[g, :1]) * sign[k]).astype(int).ravel().tolist()
    return frozenset(zip(np.tile(names, k.size).tolist(), names[perm[k]].ravel().tolist(), signs))


def _channel_algebra():
    """The twin pairs (P, P') and the flippable channels of _solve_owners, by name."""

    # broadcast sums and squared moduli: matmul, numpy reductions and complex
    # abs would load code at import that some tasks never run
    def times(a, b):
        return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)

    ops = np.stack([_C1, _C2, _U])[:, None]
    left, right = times(ops, _PAIRS), times(_PAIRS, ops)  # C P and P C, stacked (3, 16, 4, 4)
    # rows that must vanish: Re P, [P, C1], [P, C2] and {P, U}; distinct Pauli
    # pairs are trace-orthogonal, so |tr(Q^H U P)| is 4 for the twin Q of P, else 0
    checks = np.concatenate([_PAIRS.real[None], right[:2] - left[:2], right[2:] + left[2:]])
    row, pair = np.nonzero(checks.real**2 + checks.imag**2 >= SYMMETRY_TOL**2)[:2]
    fails = set(zip(row.tolist(), pair.tolist()))
    trace = (_PAIRS.conj() * left[2][:, None]).sum(axis=(-2, -1))
    names = ["".join(c) for c in CHILD_CHANNELS]
    flippable = {names[p] for p in range(len(names)) if {(0, p), (1, p), (2, p)} - fails}
    twins = {
        (names[p], names[q]) for p, q in zip(*np.nonzero(trace.real**2 + trace.imag**2 >= 4.0))
        if (3, p) not in fails or names[p] in flippable
    }
    return frozenset(twins), frozenset(flippable)


_TWINS, _FLIPPABLE = _channel_algebra()


def _solve_owners(channels, links):
    """For each channel of the tuple, the index of the channel whose solve it reads.

    That is the first channel of its orbit: the channels that share its |E|
    spectrum for every clean child H0 and real site potential V by the
    relations below, closed under composition (0y reaches zx only through
    both).  H0 is real, commutes with X = t_x s_x and anticommutes with
    C1 = t_0 s_x and C2 = t_x s_0.  H0 - V P then has the |E| spectrum of
    H0 + V P when P commutes with a chiral operator C, which maps one to
    minus the other, or when P is imaginary, which makes one the complex
    conjugate of the other; call such a P flippable.

    The twin of a Pauli pair P is the pair P' proportional to X P, and the
    two share a spectrum by one of three arguments:

    - {X, P} = 0: U = (1 + iX) / sqrt(2) commutes with H0 and maps P to
      i X P = +-P'.  A sign, read as V -> -V, is undone because P' is
      flippable: P commutes with exactly one of C1 and C2, X being their
      product, and P' with the same one.
    - [X, P] = 0 and P commutes with a chiral operator C: P' = +-P in one
      X sector and -+P in the other, where C maps h - V P to -(h + V P).
    - [X, P] = 0 and P imaginary (so in the real site frame too): in the
      sector where P' = -P the block h - V P is the complex conjugate of
      h + V P, h being real, so the two have the same eigenvalues.

    No model enters these, so the twin pairs and flippable channels are
    tabulated once, as _TWINS and _FLIPPABLE.  links holds the (a, b, s) of
    _site_symmetries: a site-local symmetry maps H0 + V P_a to
    +-(H0 + s V P_b).  With s = 1 the two channels share a spectrum
    outright, with s = -1 when P_b is flippable.

    The twins alone leave the sixteen child channels nine classes; the
    README lists the classes the links leave at the dead point.  A parent
    has no X and no links: every 2x2 channel owns its solve.
    """
    names = ["".join(c) for c in channels]  # the channel names, from tuples or names
    pairs = _TWINS.union([(a, b) for a, b, s in links if s == 1 or b in _FLIPPABLE])
    owners = list(range(len(names)))

    def find(c):
        while owners[c] != c:
            c = owners[c]
        return c

    for c, b in enumerate(names):
        for o in range(c):
            if (names[o], b) in pairs:
                low, high = sorted((find(o), find(c)))
                owners[high] = low
    return tuple(find(c) for c in range(len(names)))


@dataclass
class RobustnessReport:
    """Max zero-mode displacement per channel and grid point, with verdicts.

    displacement[c, m] is the largest |E| reached by the nominally zero
    levels over all realizations of channel c at grid point m; NaN where
    the clean system has no level inside the zero tolerance.  A channel is
    robust at a grid point when the displacement stays below threshold[m]
    (BAND_ZERO_TOL of the clean bandwidth there).
    """

    channels: tuple
    mu_values: np.ndarray
    amplitude: float
    realizations: int
    seed: int
    displacement: np.ndarray
    threshold: np.ndarray
    zero_counts: np.ndarray

    @property
    def robust(self):
        with np.errstate(invalid="ignore"):
            return self.displacement < self.threshold[None, :]


def robustness_sweep(
    model,
    lat,
    amplitude=DEFAULT_AMPLITUDE,
    channels=None,
    realizations=DEFAULT_REALIZATIONS,
    mu_values=None,
    seed=DEFAULT_SEED,
    zero_tol=None,
):
    """Displacement of nominal zero modes under every disorder channel.

    The chemical potential grid replaces mu on both parents together (the
    diagonal of the child phase diagram); None keeps the model's own mu.
    Channels default to x, y, z for a parent and all sixteen tensor pairs
    for a child.  Per grid point the clean levels (a chain's from
    BlockSolver.levels, a slab's from lattice.levels) fix the bandwidth,
    the zero tolerance (BAND_ZERO_TOL of it unless given) and which levels
    count as zero modes; the report then tracks how far those levels move,
    taking the worst realization.  Every channel must act on the model's internal
    space (2x2 for a parent, 4x4 for a child), else ConfigError.  The
    realizations are drawn once and shared by every channel and grid
    point.  A channel whose class (_solve_owners, with the site-local
    symmetries found at that grid point) has an earlier member reads that
    member's displacement instead of solving again, and the owners of the
    classes share each group solve of equal key (BlockSolver).
    """
    if channels is None:
        channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    internal = 2 if isinstance(model, ParentParams) else 4
    channels = tuple(_normalize_channel(c) for c in channels)
    _check_ensemble(amplitude, realizations, seed)
    mats = [channel_matrix(channel) for channel in channels]
    for channel, mat in zip(channels, mats):
        if len(mat) != internal:
            raise ConfigError(
                f"channel {channel_name(channel)} acts on {len(mat)} internal components, "
                f"the model has {internal}"
            )
    if mu_values is None:
        mu_values = [None]
        mu_out = np.array([model.mu if isinstance(model, ParentParams) else model.p1.mu])
    else:
        mu_values = list(np.asarray(mu_values, dtype=float))
        mu_out = np.asarray(mu_values, dtype=float)

    potentials = _philox_uniform(seed, amplitude, range(realizations), _site_count(lat))
    displacement = np.full((len(channels), len(mu_values)), np.nan)
    threshold = np.full(len(mu_values), np.nan)
    zero_counts = np.zeros(len(mu_values), dtype=int)
    for m, mu in enumerate(mu_values):
        spec = model if mu is None else _with_mu(model, mu, LINK_EQUAL)
        solver = BlockSolver(spec, lat)
        # a chain reads the solver's own frame; each level stands for a +-E pair
        clean = np.repeat(levels(spec, lat) if isinstance(lat, SlabLattice) else solver.levels(), 2)
        bw = 2.0 * float(clean[-1])  # the clean spectrum is symmetric about zero
        tol = _zero_tol(bw, zero_tol)
        threshold[m] = _zero_tol(bw, None)
        n_zero = int((clean < tol).sum())
        zero_counts[m] = n_zero
        if n_zero == 0:
            continue
        fb = solver._blocks
        # a link joins two channels, so a single channel skips the search
        owners = _solve_owners(channels, channels[1:] and _site_symmetries(fb, lat))
        if owners != tuple(range(len(channels))):
            # channels share a solve only while the clean model keeps all three symmetries
            fb.require("t_x s_x", fb.q[:, None] == fb.q[None, :])
            for name, s in fb.chirals:
                fb.require(name, s[:, None] != s[None, :])
        solves = [(c, solver.channel(mat)) for c, mat in enumerate(mats) if owners[c] == c]
        # realizations outermost, so the solver solves each group key once per draw
        reached = [[float(solve(v)[n_zero - 1]) for _, solve in solves] for v in potentials]
        for (c, _), worst in zip(solves, zip(*reached)):
            displacement[c, m] = max(worst)
        displacement[:, m] = displacement[list(owners), m]
    return RobustnessReport(
        channels=channels,
        mu_values=mu_out,
        amplitude=float(amplitude),
        realizations=int(realizations),
        seed=int(seed),
        displacement=displacement,
        threshold=threshold,
        zero_counts=zero_counts,
    )
