"""Seeded on-site disorder and robustness verdicts for near-zero modes.

Disorder enters as a site-diagonal term V_s P with P one internal channel
matrix (a Pauli matrix for the two-band chain, a Pauli tensor product for
the four-band models) and V_s drawn i.i.d. uniform on [-W, W].  Draws come
from a counter-based generator keyed by (seed, realization) with the site
index addressing the stream position, so any (seed, realization, site)
triple reproduces its value without coordination between realizations.

Every clean model is real and chiral, and every clean child commutes with
t_x s_x (see models.symmetry_check).  BlockSolver solves each disordered
matrix in the smallest real blocks that lattice._FrameBlocks.split picks
for the channel matrix, assembled from the clean model's checked and
rotated hopping blocks plus the site potentials; the full disordered
matrix is never built.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import (
    LINK_EQUAL,
    SlabLattice,
    _FrameBlocks,
    _negligible,
    _with_mu,
    _zero_tol,
    chain_hopping_blocks,
    slab_hopping_blocks,
    spectrum,
)
from .models import PAULI, ParentParams

PARENT_CHANNELS = ("x", "y", "z")
CHILD_CHANNELS = tuple(
    (a, b) for a, b in itertools.product("0xyz", repeat=2)
)

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
        if not 0.0 <= self.amplitude < np.inf:
            raise ConfigError(f"disorder amplitude must be finite and >= 0, got {self.amplitude}")
        if int(self.realizations) != self.realizations or self.realizations < 1:
            raise ConfigError(f"realizations must be a positive integer, got {self.realizations}")


def site_potentials(spec, realization, sites):
    """The uniform [-W, W] draws of one realization, one value per site."""
    rng = np.random.Generator(np.random.Philox(key=[spec.seed, realization]))
    return rng.uniform(-spec.amplitude, spec.amplitude, sites)


class BlockSolver:
    """|E| spectra of a clean lattice model plus site-diagonal disorder.

    spec and lat give the clean model on a chain or slab, checked and
    rotated by lattice._FrameBlocks.  For a channel matrix P the solver
    puts a phase i on the t_x s_x = -1 columns when that makes P real (the
    antiunitary t_x s_x K then keeps the whole matrix real), and solves
    the blocks that _FrameBlocks.split picks for P.
    """

    def __init__(self, spec, lat):
        if isinstance(lat, SlabLattice):
            blocks, self.sites = slab_hopping_blocks(spec), lat.Lx * lat.Ly
        else:
            blocks, self.sites = chain_hopping_blocks(spec), lat.L
        self._blocks = _FrameBlocks(blocks)
        self._lat = lat

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
            clean = fb.assemble(rows, cols, self._lat)
            clean = clean.reshape(self.sites, rows.sum(), self.sites, -1)
            blocks.append((clean, p[np.ix_(rows, cols)], corner))
        diag = np.arange(self.sites)

        def solve(v):
            out = []
            for clean, pb, corner in blocks:
                a = clean.astype(np.result_type(clean, pb))
                a[diag, :, diag, :] += v[:, None, None] * pb
                a = a.reshape(a.shape[0] * a.shape[1], -1)
                if corner:
                    sv = np.linalg.svd(a, compute_uv=False)
                    out += [sv, sv]
                else:
                    out.append(np.abs(np.linalg.eigvalsh(a)))
            return np.sort(np.concatenate(out))

        return solve


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
    space (2x2 for a parent, 4x4 for a child), else ConfigError.
    """
    if channels is None:
        channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    internal = 2 if isinstance(model, ParentParams) else 4
    ensembles = [DisorderSpec(c, amplitude, realizations, seed) for c in channels]
    channels = tuple(e.channel for e in ensembles)
    for channel in channels:
        d = channel_matrix(channel).shape[0]
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
        for c, ens in enumerate(ensembles):
            solve = solver.channel(channel_matrix(ens.channel))
            worst = 0.0
            for r in range(realizations):
                ev = solve(site_potentials(ens, r, solver.sites))
                worst = max(worst, float(ev[n_zero - 1]))
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


def displacement_vs_amplitude(
    model,
    lat,
    channel,
    amplitudes,
    realizations=DEFAULT_REALIZATIONS,
    seed=DEFAULT_SEED,
    zero_tol=None,
):
    """Worst zero-mode displacement as a function of the disorder bound.

    Broken channels grow linearly in W on this curve while robust ones
    stay at the splitting floor, which is what makes the fixed verdict
    threshold defensible.
    """
    out = []
    for w in np.asarray(amplitudes, dtype=float):
        rep = robustness_sweep(
            model,
            lat,
            amplitude=w,
            channels=[channel],
            realizations=realizations,
            seed=seed,
            zero_tol=zero_tol,
        )
        out.append(rep.displacement[0, 0])
    return np.asarray(out)
