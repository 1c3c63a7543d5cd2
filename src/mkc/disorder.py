"""Seeded on-site disorder and robustness verdicts for near-zero modes.

Disorder enters as a site-diagonal term V_s P with P one internal channel
matrix (a Pauli matrix for the two-band chain, a Pauli tensor product for
the four-band models) and V_s drawn i.i.d. uniform on [-W, W].

The draws are numpy's Philox4x64-10 stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), reproduced here bit for bit
without importing numpy's random module: realization r of seed s is
Generator(Philox(key=[s, r])).uniform(-W, W, sites).  The key is
(s mod 2**64, r), each 64-bit output x becomes the double
u = (x >> 11) 2**-53 and the site value is low + (high - low) u with
low = -W, high = W.  Seeds lie in [-2**63, 2**63) and W >= 0 with 2W
finite.  The potentials depend only on (seed, W, realization, site
count), so robustness_sweep draws every realization once per sweep and
every channel and grid point reads the same array.

Every clean model is real and chiral, and every clean child commutes with
t_x s_x (see models.symmetry_check).  BlockSolver solves each disordered
matrix in the smallest real blocks that lattice._FrameBlocks.split picks
for the channel matrix, assembled from the clean model's checked and
rotated hopping blocks plus the site potentials; the full disordered
matrix is never built.  Each block is cut into the connected components
of its graph of (site, frame column) nodes (lattice._components, the rule
that also cuts the quantization pencils of lattice.exact_zero_potentials),
which meet where the assembled clean block has an entry above the
tolerance of the symmetry checks or where the channel's site term sits,
and components of one size are solved in one stacked LAPACK call.  The
one rule serves chains and slabs alike.  The parallel child at
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

The same symmetries make channels come in twins with one |E| spectrum:
the twin of a child channel P is the Pauli pair proportional to t_x s_x P.
Site-local symmetries of the clean hopping blocks (_site_symmetries,
searched at each grid point) join more channels.  _solve_owners says when
and why two channels share a spectrum; each channel reads the
displacement of the first channel of its class.
"""

import functools
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
    _components,
    _kron2,
    _negligible,
    _support,
    _with_mu,
    _zero_tol,
    chain_hopping_blocks,
    slab_hopping_blocks,
    spectrum,
)
from .models import _C1, _C2, _U, PAULI, ParentParams

PARENT_CHANNELS = ("x", "y", "z")
CHILD_CHANNELS = tuple(
    (a, b) for a, b in itertools.product("0xyz", repeat=2)
)
# the sixteen child channel matrices, in CHILD_CHANNELS order
_PAIRS = np.stack([_kron2(PAULI[a], PAULI[b]) for a, b in CHILD_CHANNELS])

DEFAULT_AMPLITUDE = 0.2
DEFAULT_REALIZATIONS = 50
DEFAULT_SEED = 42

# Philox4x64-10 multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF



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
        return np.kron(PAULI[channel[0]], PAULI[channel[1]])
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
        # numpy's uniform draws low + (high - low) u, so 2W must be finite too
        if not (0.0 <= self.amplitude and math.isfinite(2.0 * float(self.amplitude))):
            raise ConfigError(
                f"disorder amplitude W must be >= 0 with 2W finite, got {self.amplitude}"
            )
        if int(self.realizations) != self.realizations or self.realizations < 1:
            raise ConfigError(f"realizations must be a positive integer, got {self.realizations}")
        if not -(2**63) <= self.seed < 2**63:
            raise ConfigError(f"seed must lie in [-2**63, 2**63), got {self.seed}")


def _mulhilo(a, m):
    """(high, low) 64-bit words of the 128-bit products of uint64 array a and m.

    The high word is summed from 32-bit halves, each partial product fitting
    uint64.
    """
    a0, a1 = a & _LOW32, a >> 32
    m0, m1 = np.uint64(m & _LOW32), np.uint64(m >> 32)
    lh, hl = a0 * m1, a1 * m0
    mid = (a0 * m0 >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return a1 * m1 + (lh >> 32) + (hl >> 32) + (mid >> 32), a * np.uint64(m)


def _philox_uniform(seed, amplitude, realizations, sites):
    """Uniform [-W, W] draws, one row of sites values per realization.

    Row i is numpy's Generator(Philox(key=[seed, realizations[i]]))
    .uniform(-W, W, sites) bit for bit: block b of four outputs encrypts
    the counter (b + 1, 0, 0, 0), since numpy bumps the counter before its
    first block, under the key (seed mod 2**64, realization), bumped by the
    Weyl increments after each of the ten rounds.
    """
    k1 = np.asarray(realizations, dtype=np.uint64)[:, None]
    k0 = np.full_like(k1, int(seed) % 2**64)
    ctr = np.zeros((4, k1.size, -(-sites // 4)), dtype=np.uint64)
    ctr[0] = np.arange(1, ctr.shape[2] + 1, dtype=np.uint64)
    c0, c1, c2, c3 = ctr
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
    x = np.stack([c0, c1, c2, c3], axis=-1).reshape(k1.size, -1)[:, :sites]
    low, high = -amplitude, amplitude
    return low + (high - low) * ((x >> 11) * 2.0**-53)


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
    entries and the support of P there, and each group of equal-size components
    takes one stacked svd or eigvalsh call per realization; a group of
    1x1 components takes the moduli of its entries instead.  The site
    term adds only P's entries that do not round to zero (_support).
    """

    def __init__(self, spec, lat):
        if isinstance(lat, SlabLattice):
            blocks = slab_hopping_blocks(spec)
        else:
            blocks = chain_hopping_blocks(spec)
        self.sites = _site_count(lat)
        self._blocks = _FrameBlocks(blocks)
        self._lat = lat
        self._parts = {}

    def _part(self, rows, cols, joins):
        """[(clean, idx, site, entry)] of the clean part rows x cols, one per class group.

        clean, shape (k, n, n), stacks the part's node classes of size n
        (lattice._components) for the site term support joins; the site
        term adds v[site] times its entry-th nonzero (in the order of
        np.nonzero(joins)) at the flat indices idx of that stack.  Parts
        recur across channels, so each is built once per solver.
        """
        key = (rows.tobytes(), cols.tobytes(), joins.tobytes())
        if key not in self._parts:
            fb = self._blocks
            clean = fb.assemble(rows, cols, self._lat)
            nr, nc = clean.shape[0] // self.sites, clean.shape[1] // self.sites
            a, b = np.nonzero(joins)
            site = np.repeat(np.arange(self.sites), a.size)
            entry = np.tile(np.arange(a.size), self.sites)
            row, col = site * nr + a[entry], site * nc + b[entry]
            joined = np.abs(clean) > fb.tol
            joined[row, col] = True
            groups = []
            for ri, ci in _components(joined, np.array_equal(rows, cols)):
                n = ri.shape[1]
                at_r, at_c = np.full(clean.shape[0], -1), np.zeros(clean.shape[1], dtype=np.intp)
                at_r[ri.ravel()] = np.arange(ri.size)
                at_c[ci.ravel()] = np.arange(ci.size)
                # a site term entry joins a row and a column node of one class
                hit = at_r[row] >= 0
                idx = at_r[row[hit]] * n + at_c[col[hit]] % n
                groups.append((clean[ri[:, :, None], ci[:, None, :]], idx, site[hit], entry[hit]))
            self._parts[key] = groups
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
            for clean, idx, site, entry in self._part(rows, cols, joins):
                blocks.append((clean, idx, site, pb[joins][entry], corner))

        def solve(v):
            out = []
            for clean, idx, site, coef, corner in blocks:
                a = clean.astype(np.result_type(clean, coef))
                a.reshape(-1)[idx] += v[site] * coef
                if a.shape[-1] == 1:
                    # eigvalsh of a 1x1 returns its real part, svd |a| up to rounding
                    e = np.abs(a if corner else a.real).ravel()
                    out += [e, e] if corner else [e]
                elif corner:
                    sv = np.linalg.svd(a, compute_uv=False).ravel()
                    out += [sv, sv]
                else:
                    out.append(np.abs(np.linalg.eigvalsh(a)).ravel())
            return np.sort(np.concatenate(out))

        return solve


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


@functools.lru_cache(maxsize=16)
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

    links holds the (a, b, s) of _site_symmetries: a site-local symmetry
    maps H0 + V P_a to +-(H0 + s V P_b).  With s = 1 the two channels
    share a spectrum outright, with s = -1 when P_b is flippable.

    The twins alone leave the sixteen child channels nine classes; the
    README lists the classes the links leave at the dead point.  A parent
    has no X and no links: every 2x2 channel owns its solve.  Sweeps over
    one channel tuple and link set share the answer, which is cached.
    """

    def commutes(a, b):
        return _negligible(a @ b - b @ a)

    def flippable(p):
        return commutes(p, _C1) or commutes(p, _C2) or _negligible(p.real)

    def twins(p, q):
        if p.shape != _U.shape or abs(np.trace(q.conj().T @ _U @ p)) < 2.0:
            return False  # distinct Pauli pairs are trace-orthogonal
        return _negligible(_U @ p + p @ _U) or flippable(p)

    def linked(o, c):
        edge = (channel_name(channels[o]), channel_name(channels[c]))
        return edge + (1,) in links or (edge + (-1,) in links and flippable(mats[c]))

    mats = [channel_matrix(channel) for channel in channels]
    owners = list(range(len(mats)))

    def find(c):
        while owners[c] != c:
            c = owners[c]
        return c

    for c, q in enumerate(mats):
        for o in range(c):
            if twins(mats[o], q) or linked(o, c):
                a, b = sorted((find(o), find(c)))
                owners[b] = a
    return tuple(find(c) for c in range(len(mats)))


@dataclass
class RobustnessReport:
    """Max zero-mode displacement per channel and grid point, with verdicts.

    displacement[c, m] is the largest |E| reached by the nominally zero
    levels over all realizations of channel c at grid point m; NaN where
    the clean system has no level inside the zero tolerance.  A channel is
    robust at a grid point when the displacement stays below threshold[m]
    (1e-6 of the clean bandwidth there).
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

    def channel_index(self, channel):
        name = channel_name(channel)
        for i, c in enumerate(self.channels):
            if channel_name(c) == name:
                return i
        raise KeyError(f"channel {name!r} not in report")

    def displacement_for(self, channel):
        return self.displacement[self.channel_index(channel)]


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
    for a child.  Per grid point the clean spectrum fixes the bandwidth,
    the zero tolerance (1e-6 of it unless given) and which levels count as
    zero modes; the report then tracks how far those levels move, taking
    the worst realization.  Every channel must act on the model's internal
    space (2x2 for a parent, 4x4 for a child), else ConfigError.  The
    realizations are drawn once and shared by every channel and grid
    point.  A channel whose class (_solve_owners, with the site-local
    symmetries found at that grid point) has an earlier member reads that
    member's displacement instead of solving again.
    """
    if channels is None:
        channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    internal = 2 if isinstance(model, ParentParams) else 4
    ensembles = [DisorderSpec(c, amplitude, realizations, seed) for c in channels]
    channels = tuple(e.channel for e in ensembles)
    mats = [channel_matrix(channel) for channel in channels]
    for channel, mat in zip(channels, mats):
        d = mat.shape[0]
        if d != internal:
            raise ConfigError(
                f"channel {channel_name(channel)} acts on {d} internal components, "
                f"the model has {internal}"
            )
    if mu_values is None:
        mu_values = [None]
        mu_out = np.array(
            [model.mu if isinstance(model, ParentParams) else model.p1.mu]
        )
    else:
        mu_values = list(np.asarray(mu_values, dtype=float))
        mu_out = np.asarray(mu_values, dtype=float)

    potentials = _philox_uniform(seed, amplitude, range(realizations), _site_count(lat))
    displacement = np.full((len(channels), len(mu_values)), np.nan)
    threshold = np.full(len(mu_values), np.nan)
    zero_counts = np.zeros(len(mu_values), dtype=int)
    for m, mu in enumerate(mu_values):
        spec = model if mu is None else _with_mu(model, mu, LINK_EQUAL)
        clean = np.sort(np.abs(spectrum(spec, lat)))
        bw = 2.0 * float(clean[-1])  # the clean spectrum is symmetric about zero
        tol = _zero_tol(bw, zero_tol, 1e-6)
        threshold[m] = _zero_tol(bw, None, 1e-6)
        n_zero = int((clean < tol).sum())
        zero_counts[m] = n_zero
        if n_zero == 0:
            continue
        solver = BlockSolver(spec, lat)
        fb = solver._blocks
        owners = _solve_owners(channels, _site_symmetries(fb, lat))
        if owners != tuple(range(len(channels))):
            # channels share a solve only while the clean model keeps all three symmetries
            fb.require("t_x s_x", fb.q[:, None] == fb.q[None, :])
            for name, s in fb.chirals:
                fb.require(name, s[:, None] != s[None, :])
        for c, mat in enumerate(mats):
            if owners[c] != c:
                displacement[c, m] = displacement[owners[c], m]
                continue
            solve = solver.channel(mat)
            worst = 0.0
            for v in potentials:
                worst = max(worst, float(solve(v)[n_zero - 1]))
            displacement[c, m] = worst
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
