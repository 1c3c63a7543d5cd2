"""Seeded disorder channels and zero-mode robustness verdicts."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_reference import (
    apply_onsite_disorder,
    build_chain,
    build_slab,
    dense_levels,
    displacement_vs_amplitude,
    site_symmetry_links,
)
from mkc import disorder
from mkc.disorder import (
    CHILD_CHANNELS,
    PARENT_CHANNELS,
    BlockSolver,
    DisorderSpec,
    channel_matrix,
    channel_name,
    robustness_sweep,
    site_potentials,
)
from mkc.errors import ConfigError, SymmetryError
from mkc.lattice import (
    LINK_EQUAL,
    OPEN,
    PERIODIC,
    SYMMETRY_TOL,
    ChainLattice,
    SlabLattice,
    _FrameBlocks,
    _components,
    _support,
    _with_mu,
    chain_hopping_blocks,
    slab_hopping_blocks,
    spectrum,
)
from mkc.models import PAULI, PARALLEL, PERPENDICULAR, SZ, ChildSpec, ParentParams


# each child channel that shares its |E| spectrum with an earlier one, and that one
_TWIN_OF = {"x0": "0x", "xx": "00", "xy": "0z", "xz": "0y", "z0": "yx", "zx": "y0", "zy": "yz"}
# the classes of the twins joined by the site-local symmetries: of a child whose two
# factors are one chain up to a Pauli frame and a real scale, which exchanging the
# factors keeps; of the canonical child, whose dead-point gauge i^j also joins 0y with
# 0z; of the sign-mixed one, which also joins yy with zz; and of the canonical slab
_EXCHANGE_CLASSES = [
    ["00", "xx"], ["0x", "x0"], ["0y", "xz", "y0", "zx"], ["0z", "xy", "yx", "z0"],
    ["yy"], ["yz", "zy"], ["zz"],
]
_CANONICAL_CLASSES = [
    ["00", "xx"], ["0x", "x0"], ["0y", "0z", "xy", "xz", "y0", "yx", "z0", "zx"],
    ["yy"], ["yz", "zy"], ["zz"],
]
_MIXED_CLASSES = [
    ["00", "xx"], ["0x", "x0"], ["0y", "0z", "xy", "xz", "y0", "yx", "z0", "zx"],
    ["yy", "zz"], ["yz", "zy"],
]
_SLAB_CLASSES = [
    ["00", "xx"], ["0x", "x0"], ["0y", "xz"], ["0z", "xy"], ["y0", "yx", "z0", "zx"],
    ["yy", "yz", "zy", "zz"],
]


def _dead_parent():
    return ParentParams(t=1.0, delta=1.0, mu=0.0)


def _mixed_child():
    return ChildSpec(
        p1=ParentParams(t=1.0, delta=1.0, mu=0.0),
        p2=ParentParams(t=-1.0, delta=1.0, mu=0.0),
        orientation="parallel",
    )


def _canonical_child():
    """Both parents at t = Delta = 1, mu = 0: one t_x s_x sector has no hopping at all."""
    return ChildSpec(ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PARALLEL)


def test_channel_matrices():
    assert np.array_equal(channel_matrix("z"), np.diag([1.0, -1.0]))
    xy = channel_matrix(("x", "y"))
    assert xy.shape == (4, 4)
    assert np.array_equal(xy, np.kron(PAULI["x"], PAULI["y"]))
    # two-letter strings mean the same tensor pair
    assert np.array_equal(channel_matrix("xy"), xy)
    for c in PARENT_CHANNELS + CHILD_CHANNELS:
        m = channel_matrix(c)
        assert np.allclose(m, m.conj().T)


def test_channel_names_and_validation():
    assert channel_name("x") == "x"
    assert channel_name(("y", "0")) == "y0"
    assert channel_name("0z") == "0z"
    with pytest.raises(ConfigError):
        channel_matrix("q")
    with pytest.raises(ConfigError):
        channel_matrix(("x", "q"))
    with pytest.raises(ConfigError):
        DisorderSpec(channel="x", amplitude=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            DisorderSpec(channel="x", amplitude=bad)
    with pytest.raises(ConfigError):
        DisorderSpec(channel="x", amplitude=0.1, realizations=0)
    # the draws are low + (high - low) u, so 2W must stay finite
    DisorderSpec(channel="x", amplitude=8e307)
    with pytest.raises(ConfigError, match="amplitude"):
        DisorderSpec(channel="x", amplitude=1e308)
    # the key takes seed mod 2**64, so only one representative per key is accepted
    for seed in (-(2**63), 2**63 - 1):
        DisorderSpec(channel="x", amplitude=0.1, seed=seed)
    for seed in (-(2**63) - 1, 2**63, 2**64 - 1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            DisorderSpec(channel="x", amplitude=0.1, seed=seed)


def test_site_potentials_deterministic():
    spec = DisorderSpec(channel="z", amplitude=0.2, seed=7)
    v = site_potentials(spec, 1, 5)
    # counter-based stream: same (seed, realization) is bit-reproducible
    assert np.array_equal(v, site_potentials(spec, 1, 5))
    assert v[0] == 0.1529867321018165
    assert not np.array_equal(v, site_potentials(spec, 2, 5))
    other = DisorderSpec(channel="z", amplitude=0.2, seed=8)
    assert not np.array_equal(v, site_potentials(other, 1, 5))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    realization=st.integers(min_value=0, max_value=999),
    sites=st.integers(min_value=1, max_value=40),
    amplitude=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_site_potentials_bounded(seed, realization, sites, amplitude):
    spec = DisorderSpec(channel="y", amplitude=amplitude, seed=seed)
    v = site_potentials(spec, realization, sites)
    assert v.shape == (sites,)
    assert np.all(np.abs(v) <= amplitude)


_AMPLITUDES = st.sampled_from([0.0, 5e-324, 0.2, 1e307]) | st.floats(0.0, 1e307)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**63 - 1),
    realizations=st.lists(st.integers(0, 500), min_size=1, max_size=3),
    sites=st.integers(1, 2000),
    amplitude=_AMPLITUDES,
)
@example(seed=-(2**63), realizations=[0], sites=1, amplitude=0.2)
@example(seed=2**63 - 1, realizations=[500, 3], sites=1441, amplitude=1e307)
@example(seed=-1, realizations=[7], sites=2000, amplitude=5e-324)
@example(seed=42, realizations=[0, 1, 2], sites=82, amplitude=0.0)
def test_draws_match_numpy_philox_bit_for_bit(seed, realizations, sites, amplitude):
    got = disorder._philox_uniform(seed, amplitude, realizations, sites)
    assert got.shape == (len(realizations), sites)
    for row, r in zip(got, realizations):
        rng = np.random.Generator(np.random.Philox(key=[seed, r]))
        want = rng.uniform(-amplitude, amplitude, sites)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), r
    spec = DisorderSpec("x", amplitude, seed=seed)
    one = site_potentials(spec, realizations[-1], sites)
    assert np.array_equal(one.view(np.uint64), got[-1].view(np.uint64))


@pytest.mark.parametrize(
    "model, lat",
    [
        (_mixed_child(), ChainLattice(7)),
        (
            ChildSpec(ParentParams(1.0, 0.7, 0.0), ParentParams(-0.8, 1.1, 0.0), PERPENDICULAR),
            SlabLattice(3, 4, OPEN, PERIODIC),
        ),
    ],
    ids=["chain", "slab"],
)
def test_sweep_draws_once_like_per_channel_site_potentials(model, lat):
    # the reference draws every (channel, realization) anew, as the sweep once did;
    # each class of _solve_owners solves once, so only its first channel is bitwise
    # its own solve, and the classes follow the symmetries found at each grid point
    realizations, seed, mu_values = 3, -11, [0.0, 0.2]
    rep = robustness_sweep(
        model, lat, amplitude=0.3, realizations=realizations, seed=seed, mu_values=mu_values
    )
    assert rep.zero_counts[0] > 0
    names = [channel_name(c) for c in rep.channels]
    for m, mu in enumerate(mu_values):
        n_zero = rep.zero_counts[m]
        if n_zero == 0:
            assert np.all(np.isnan(rep.displacement[:, m]))
            continue
        spec = _with_mu(model, mu, LINK_EQUAL)
        scale = max(2.0 * np.abs(spectrum(spec, lat)).max(), 1.0)
        solver = BlockSolver(spec, lat)
        owners = disorder._solve_owners(rep.channels, _links(spec, lat))
        for c, channel in enumerate(rep.channels):
            ens = DisorderSpec(channel, 0.3, realizations, seed)
            solve = solver.channel(channel_matrix(channel))
            want = max(
                float(solve(site_potentials(ens, r, solver.sites))[n_zero - 1])
                for r in range(realizations)
            )
            got = rep.displacement[c, m]
            if owners[c] != c:
                assert got == rep.displacement[owners[c], m]
                assert abs(got - want) < 1e-11 * scale, names[c]
            else:
                assert got == want, names[c]


def test_apply_onsite_disorder_shapes_and_hermiticity():
    h = build_chain(_dead_parent(), ChainLattice(10))
    spec = DisorderSpec(channel="x", amplitude=0.3, seed=3)
    hd = apply_onsite_disorder(h, spec, 0)
    assert hd.shape == h.shape
    assert np.allclose(hd, hd.conj().T)
    # zero amplitude leaves the matrix untouched
    calm = DisorderSpec(channel="x", amplitude=0.0, seed=3)
    assert np.array_equal(apply_onsite_disorder(h, calm, 0), h)
    with pytest.raises(ConfigError):
        apply_onsite_disorder(h, spec, 0, sites=7)
    child_spec = DisorderSpec(channel="xx", amplitude=0.3, seed=3)
    with pytest.raises(ConfigError):
        # 4x4 channel cannot tile a 20-dimensional parent chain evenly
        apply_onsite_disorder(np.zeros((22, 22)), child_spec, 0)


def test_parent_sweep_matches_frozen_displacements():
    # dead point, zero modes fully on the edge sites: the x channel shifts
    # them by the local draw, so the worst case equals the largest |V_edge|
    rep = robustness_sweep(
        _dead_parent(), ChainLattice(16), amplitude=0.2, realizations=3, seed=7
    )
    assert rep.channels == PARENT_CHANNELS
    assert rep.zero_counts[0] == 2
    assert rep.threshold[0] == pytest.approx(4e-6, rel=1e-12)
    assert rep.displacement_for("x") == pytest.approx(0.152986732101817, rel=1e-9)
    assert rep.displacement_for("y")[0] < rep.threshold[0]
    assert rep.displacement_for("z")[0] < rep.threshold[0]
    assert list(rep.robust[:, 0]) == [False, True, True]


def test_child_sweep_matches_frozen_displacements():
    rep = robustness_sweep(
        _mixed_child(),
        ChainLattice(12),
        amplitude=0.2,
        realizations=3,
        seed=7,
        channels=[("0", "0"), ("x", "x"), ("z", "z"), ("y", "z")],
    )
    assert rep.zero_counts[0] == 4
    assert rep.displacement_for("00") == pytest.approx(0.17920554018103, rel=1e-9)
    assert rep.displacement_for("xx") == pytest.approx(0.17920554018103, rel=1e-9)
    assert rep.displacement_for("zz")[0] < rep.threshold[0]
    assert rep.displacement_for("yz")[0] < rep.threshold[0]
    assert list(rep.robust[:, 0]) == [False, False, True, True]
    with pytest.raises(KeyError):
        rep.channel_index("0x")


def test_sweep_without_zero_modes_reports_nan():
    trivial = ParentParams(t=1.0, delta=1.0, mu=3.0)
    rep = robustness_sweep(
        trivial, ChainLattice(12), amplitude=0.2, realizations=2, seed=1
    )
    assert rep.zero_counts[0] == 0
    assert np.all(np.isnan(rep.displacement))
    assert not rep.robust.any()


def test_sweep_mu_grid_replaces_both_parents():
    rep = robustness_sweep(
        _mixed_child(),
        ChainLattice(8),
        amplitude=0.1,
        realizations=1,
        seed=2,
        channels=[("z", "z")],
        mu_values=[0.0, 5.0],
    )
    assert np.array_equal(rep.mu_values, [0.0, 5.0])
    assert rep.zero_counts[0] > 0 and rep.zero_counts[1] == 0
    assert np.isnan(rep.displacement[0, 1])


def test_displacement_grows_linearly_on_broken_channel():
    amps = [0.05, 0.1, 0.2]
    broken = displacement_vs_amplitude(
        _dead_parent(), ChainLattice(12), "x", amps, realizations=2, seed=11
    )
    assert np.all(np.diff(broken) > 0)
    # linear response: doubling W doubles the worst displacement
    assert broken[2] / broken[1] == pytest.approx(2.0, rel=0.2)
    assert broken[1] / broken[0] == pytest.approx(2.0, rel=0.2)
    robust = displacement_vs_amplitude(
        _dead_parent(), ChainLattice(12), "z", amps, realizations=2, seed=11
    )
    assert np.all(robust < 1e-10)


_sign = st.sampled_from([-1.0, 1.0])
_bc = st.sampled_from([OPEN, PERIODIC])


@st.composite
def _parent(draw):
    """A random, critical (mu = +-2t) or flat-band (|t| = |Delta|) parent."""
    kind = draw(st.sampled_from(["random", "critical", "flat"]))
    t = draw(_sign) * draw(st.floats(0.3, 2.0))
    delta = draw(_sign) * draw(st.floats(0.2, 1.5))
    if kind == "flat":
        delta = draw(_sign) * abs(t)
    mu = draw(_sign) * 2.0 * abs(t) if kind == "critical" else draw(st.floats(-3.0, 3.0))
    return ParentParams(t, delta, mu)


@st.composite
def _disordered_system(draw, kinds=("parent", PARALLEL, PERPENDICULAR)):
    """(model, lattice) for the parent, the chain child or the slab.

    About half the draws put every chemical potential at exactly 0, where
    the chain child hops only by 0 and +-2 and its disorder solves split
    into even and odd sites (unless the ring is odd).
    """
    kind = draw(st.sampled_from(kinds))
    zero_mu = draw(st.booleans())

    def parent():
        p = draw(_parent())
        return replace(p, mu=0.0) if zero_mu else p

    p1 = parent()
    if kind == "parent":
        return p1, ChainLattice(draw(st.integers(3, 12)), draw(_bc))
    if draw(st.booleans()):
        p2 = parent()
    else:
        # the sign-mixed class: t2 = -t1 with the rest shared
        p2 = ParentParams(-p1.t, p1.delta, p1.mu)
    spec = ChildSpec(p1, p2, kind)
    if kind == PARALLEL:
        return spec, ChainLattice(draw(st.integers(3, 10)), draw(_bc))
    return spec, SlabLattice(draw(st.integers(3, 5)), draw(st.integers(3, 5)), draw(_bc), draw(_bc))


@st.composite
def _dead_point_system(draw, kinds=("parent", PARALLEL)):
    """(model, chain) at Kitaev's dead point: |t| = |Delta| and mu = 0, random signs.

    Each parent pairs every Majorana with one partner a site away, and the
    child's hopping t_x s_x sector every node with one two sites away, so
    potential-like channels leave node classes of one or two nodes, finer
    than any site class.
    """

    def parent():
        a = draw(st.floats(0.3, 2.0))
        return ParentParams(draw(_sign) * a, draw(_sign) * a, 0.0)

    model = parent()
    if draw(st.sampled_from(kinds)) == PARALLEL:
        model = ChildSpec(model, parent(), PARALLEL)
    return model, ChainLattice(draw(st.integers(3, 12)), draw(_bc))


@st.composite
def _zero_mu_slab_system(draw):
    """(slab child, slab) with mu = 0 in both parents, each at Kitaev's dead point or not.

    A dead-point factor hops only inside dimers along its side and a mu = 0
    slab only by (+-1, +-1), so the disorder blocks come apart into many
    components; odd and even sides, open or periodic, from 3x4 to 5x6.
    """

    def parent():
        t = draw(_sign) * draw(st.floats(0.3, 2.0))
        delta = abs(t) if draw(st.booleans()) else draw(st.floats(0.2, 1.5))
        return ParentParams(t, draw(_sign) * delta, 0.0)

    spec = ChildSpec(parent(), parent(), PERPENDICULAR)
    lx, ly = draw(st.integers(3, 5)), draw(st.integers(4, 6))
    return spec, SlabLattice(lx, ly, draw(_bc), draw(_bc))


@st.composite
def _related_child(draw):
    """(child, chain) with p2 = lambda (sigma t1, tau Delta1, sigma mu1), lambda in +-[0.3, 2].

    The two factors are then one chain up to a Pauli frame and a real
    scale, so exchanging them keeps the clean child.  p1 may sit at the
    dead point or at a critical mu.
    """
    p1 = draw(_parent())
    if draw(st.booleans()):
        p1 = replace(p1, mu=0.0)
    lam = draw(_sign) * draw(st.floats(0.3, 2.0))
    sigma, tau = draw(_sign), draw(_sign)
    p2 = ParentParams(lam * sigma * p1.t, lam * tau * p1.delta, lam * sigma * p1.mu)
    return ChildSpec(p1, p2, PARALLEL), ChainLattice(draw(st.integers(3, 10)), draw(_bc))


def _zero_mu_child():
    return ChildSpec(ParentParams(1.0, 0.7, 0.0), ParentParams(-0.8, 1.1, 0.0), PARALLEL)


def _zero_mu_slab():
    return ChildSpec(ParentParams(1.0, 0.7, 0.0), ParentParams(-0.8, 1.1, 0.0), PERPENDICULAR)


def _canonical_slab():
    """Parent 1 at Kitaev's dead point, parent 2 at mu = 3: x hops only inside dimers."""
    return ChildSpec(ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 3.0), PERPENDICULAR)


def _with_zero_mu_examples(test):
    """mu = 0 children with their sites split 2 + 1, 4 + 4 and not at all (odd ring).

    The canonical and the sign-mixed child (|t| = |Delta|) also have a
    t_x s_x sector without hopping, whose sites come apart one by one.
    """
    for model in (_zero_mu_child(), _canonical_child(), _mixed_child()):
        for lat in (ChainLattice(3), ChainLattice(8, PERIODIC), ChainLattice(7, PERIODIC)):
            test = example(system=(model, lat), amplitude=0.6, seed=9)(test)
    return test


_P1 = ParentParams(0.9, 0.6, 0.4)

# children whose factors are alike but that no site-local symmetry pairs beyond the
# twins, so each keeps nine solves: on a slab exchanging the factors would also swap
# x and y; 1e-6 in Delta2 tells the factors apart; the sign-mixed child at mu != 0
# needs the gauge (-1)^j, which an odd ring forbids
_UNPAIRED = [
    (ChildSpec(ParentParams(-2.0, -1.0, 0.0), ParentParams(-2.0, -1.0, 0.0), PERPENDICULAR),
     SlabLattice(3, 3)),
    (ChildSpec(_P1, replace(_P1, delta=_P1.delta + 1e-6), PARALLEL), ChainLattice(8)),
    (_with_mu(_mixed_child(), 0.1, LINK_EQUAL), ChainLattice(7, PERIODIC)),
]


def _unpaired_examples(test):
    for system in _UNPAIRED:
        test = example(system=system, amplitude=1.0, seed=0)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    system=_disordered_system() | _dead_point_system() | _related_child() | _zero_mu_slab_system(),
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@_with_zero_mu_examples
@_unpaired_examples
@example(system=(_dead_parent(), ChainLattice(5)), amplitude=0.6, seed=9)
# 1e-7 from the dead point: the small hopping t - Delta must still join the dimers
@example(system=(ParentParams(1.0, 1.0 - 1e-7, 0.0), ChainLattice(7)), amplitude=0.6, seed=9)
@example(system=(_canonical_slab(), SlabLattice(3, 4)), amplitude=0.6, seed=9)
@example(system=(_zero_mu_slab(), SlabLattice(4, 4, PERIODIC, PERIODIC)), amplitude=0.6, seed=9)
def test_block_solver_matches_dense_disorder(system, amplitude, seed):
    model, lat = system
    if isinstance(lat, SlabLattice):
        h, sites = build_slab(model, lat), lat.Lx * lat.Ly
    else:
        h, sites = build_chain(model, lat), lat.L
    channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    realizations = 2
    clean = np.sort(np.abs(dense_levels(h)))
    bw = 2.0 * clean[-1]
    tol = 1e-6 * bw
    # a level within rounding of the zero tolerance may count either way
    assume(np.all(np.abs(clean - tol) > 1e-9 * bw))
    n_zero = int((clean < tol).sum())
    solver = BlockSolver(model, lat)
    scale = max(bw, 1.0)
    assert np.abs(np.sort(np.abs(spectrum(model, lat))) - clean).max() < 1e-11 * scale

    rep = robustness_sweep(
        model, lat, amplitude=amplitude, realizations=realizations, seed=seed
    )
    assert rep.channels == channels
    assert rep.zero_counts[0] == n_zero
    assert rep.threshold[0] == pytest.approx(tol, rel=1e-12)
    for c, channel in enumerate(channels):
        spec = DisorderSpec(channel, amplitude, realizations, seed)
        solve = solver.channel(channel_matrix(channel))
        # every channel's blocks and node classes hold the clean spectrum
        assert np.abs(solve(np.zeros(sites)) - clean).max() < 1e-11 * scale, channel_name(channel)
        worst = 0.0
        for r in range(realizations):
            dense = np.sort(np.abs(dense_levels(apply_onsite_disorder(h, spec, r, sites))))
            blocked = solve(site_potentials(spec, r, sites))
            assert np.abs(blocked - dense).max() < 1e-11 * scale, channel_name(channel)
            if n_zero:
                worst = max(worst, dense[n_zero - 1])
        if not n_zero:
            assert np.isnan(rep.displacement[c, 0])
            continue
        assert rep.displacement[c, 0] == pytest.approx(worst, abs=1e-11 * scale)
        assume(abs(worst - tol) > 1e-9 * bw)
        assert rep.robust[c, 0] == (worst < tol), channel_name(channel)


def _dense_channel_levels(model, lat, channels, amplitude, seed):
    """|E| of the dense child plus one shared draw V in each channel, and the clean scale."""
    build = build_slab if isinstance(lat, SlabLattice) else build_chain
    h = build(model, lat)
    levels = {}
    for c in channels:
        hd = apply_onsite_disorder(h, DisorderSpec(c, amplitude, 1, seed), 0)
        levels[c] = np.sort(np.abs(dense_levels(hd)))
    return levels, max(2.0 * np.abs(dense_levels(h)).max(), 1.0)


def _links(model, lat):
    slab = isinstance(lat, SlabLattice)
    blocks = slab_hopping_blocks(model) if slab else chain_hopping_blocks(model)
    return disorder._site_symmetries(_FrameBlocks(blocks), lat)


def _classes(owners, channels=CHILD_CHANNELS):
    classes = {}
    for c, o in enumerate(owners):
        classes.setdefault(channel_name(channels[o]), []).append(channel_name(channels[c]))
    return sorted(classes.values())


def test_site_turns_are_the_one_factor_cliffords():
    # 24 distinct signed permutations of (s_x, s_y, s_z), each keeping s_x s_y = i s_z
    # and its cyclic images, so each is conjugation by a unitary
    tp, ts = disorder._site_turns()
    assert len({(tuple(p), tuple(s)) for p, s in zip(tp, ts)}) == 24
    paulis = np.stack([PAULI[c] for c in "0xyz"])
    for p, s in zip(tp, ts):
        assert p[0] == 0 and s[0] == 1 and sorted(p[1:]) == [1, 2, 3]
        image = s[:, None, None] * paulis[p]
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            assert np.array_equal(image[i] @ image[j], 1j * image[k])
    # without hopping every map keeps the child, and so does -1: s_0 x s_0 goes to
    # itself and each Pauli pair to each of its weight (6 of weight one, 9 of weight
    # two), all with either sign
    blocks = {r: np.zeros((4, 4)) for r in (-1, 0, 1)}
    links = disorder._site_symmetries(_FrameBlocks(blocks), ChainLattice(5))
    assert len(links) == 2 * (1 + 6 * 6 + 9 * 9)
    assert ("00", "00", 1) in links and ("xx", "zy", -1) in links and ("0x", "yy", 1) not in links


def test_twin_pairs_follow_from_the_symmetries():
    def owners(channels, links=frozenset()):
        return list(disorder._solve_owners(tuple(channels), links))

    names = [channel_name(c) for c in CHILD_CHANNELS]
    child = owners(CHILD_CHANNELS)
    assert {names[c]: names[o] for c, o in enumerate(child) if o != c} == _TWIN_OF
    assert len(set(child)) == 9
    # the site-local symmetries join twin classes: exchanging equal factors joins ab
    # with ba, and the dead-point gauge i^j also joins 0y with 0z
    related = ChildSpec(_P1, ParentParams(-1.7 * _P1.t, 1.7 * _P1.delta, -1.7 * _P1.mu), PARALLEL)
    for model, lat, want in [
        (related, ChainLattice(8), _EXCHANGE_CLASSES),
        (_canonical_child(), ChainLattice(80), _CANONICAL_CLASSES),
        (_canonical_child(), ChainLattice(12, PERIODIC), _CANONICAL_CLASSES),
        (_canonical_child(), ChainLattice(10, PERIODIC), _EXCHANGE_CLASSES),
        (_mixed_child(), ChainLattice(8), _MIXED_CLASSES),
        (_canonical_slab(), SlabLattice(12, 30), _SLAB_CLASSES),
    ]:
        links = _links(model, lat)
        assert _classes(owners(CHILD_CHANNELS, links)) == sorted(want), (model, lat)
    # 0y reaches zx only through a twin and a partner, xz, which may come last
    links = _links(related, ChainLattice(8))
    assert owners(("0y", "zx"), links) == [0, 1]
    assert owners(("0y", "xz", "zx"), links) == [0, 0, 0]
    assert owners(("0y", "zx", "xz"), links) == [0, 0, 0]
    # order decides which twin solves; a parent has no t_x s_x, no links and no twins
    assert owners(("xx", "zz", "yy", "00")) == [0, 1, 2, 0]
    assert owners(("zx", "xz", "y0", "0y"), links) == [0, 0, 0, 0]
    assert _links(_dead_parent(), ChainLattice(8)) == frozenset()
    assert owners(PARENT_CHANNELS) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(
    system=_disordered_system(kinds=(PARALLEL, PERPENDICULAR)) | _dead_point_system((PARALLEL,)),
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@example(system=(_mixed_child(), ChainLattice(7, PERIODIC)), amplitude=0.7, seed=5)
@_with_zero_mu_examples
@example(
    system=(
        ChildSpec(ParentParams(1.0, 0.6, 0.1), ParentParams(-1.0, 0.6, 0.1), PERPENDICULAR),
        SlabLattice(3, 4, OPEN, PERIODIC),
    ),
    amplitude=0.9,
    seed=8,
)
def test_twin_channels_share_dense_spectra(system, amplitude, seed):
    model, lat = system
    levels, scale = _dense_channel_levels(
        model, lat, list(_TWIN_OF) + list(_TWIN_OF.values()), amplitude, seed
    )
    for channel, twin in _TWIN_OF.items():
        assert np.abs(levels[channel] - levels[twin]).max() < 1e-11 * scale, (channel, twin)


@st.composite
def _near_dead_system(draw):
    """(child, chain or slab) with each parent at Kitaev's dead point or 1e-7 from it, mu = 0.

    Random signs and scales; the slab's second parent may sit at mu = 3, as
    in the canonical slab.  Chains and sides run over open ends and rings of
    every L mod 4.  Returns the system and "off-dead" where a parent is off the
    dead point, else "dead".
    """

    def parent():
        a = draw(st.floats(0.3, 2.0))
        off = draw(st.booleans())
        return ParentParams(draw(_sign) * a, draw(_sign) * (a - 1e-7 if off else a), 0.0), off

    (p1, off1), (p2, off2) = parent(), parent()
    if draw(st.booleans()):
        lat = ChainLattice(draw(st.integers(4, 12)), draw(_bc))
        return (ChildSpec(p1, p2, PARALLEL), lat), "off-dead" if off1 or off2 else "dead"
    if draw(st.booleans()):
        p2, off2 = replace(p2, mu=3.0), True
    lat = SlabLattice(draw(st.integers(3, 6)), draw(st.integers(3, 6)), draw(_bc), draw(_bc))
    return (ChildSpec(p1, p2, PERPENDICULAR), lat), "off-dead" if off1 or off2 else "dead"


def _paired_examples(test):
    """The six relations of p2 to p1 = (0.9, 0.6, 0.4), and the sign-mixed child, on even and odd L.

    Then the canonical and sign-mixed children on rings of every L mod 4
    and 1e-7 from the dead point, and the canonical slab on open and
    periodic sides.
    """
    t, d, mu = _P1.t, _P1.delta, _P1.mu
    related = [(t, d, mu), (1.7 * t, 1.7 * d, 1.7 * mu), (-0.6 * t, -0.6 * d, -0.6 * mu),
               (t, -d, mu), (-t, -d, -mu), (-t, d, -mu)]
    for p2 in related:
        for lat in (ChainLattice(7), ChainLattice(8), ChainLattice(7, PERIODIC), ChainLattice(8, PERIODIC)):
            system = (ChildSpec(_P1, ParentParams(*p2), PARALLEL), lat)
            test = example(system=(system, "related"), amplitude=0.8, seed=2)(test)
    mixed = _with_mu(_mixed_child(), 0.1, LINK_EQUAL)
    for lat in (ChainLattice(7), ChainLattice(8, PERIODIC)):
        test = example(system=((mixed, lat), "related"), amplitude=0.8, seed=2)(test)
    near = ParentParams(1.0, 1.0 - 1e-7, 0.0)
    for model in (_canonical_child(), _mixed_child()):
        for L in (6, 7, 8, 10, 12):
            # exchanging the factors keeps the canonical child on every ring, the
            # sign-mixed one only with the gauge (-1)^j, on even rings
            kind = "related" if model == _canonical_child() or L % 2 == 0 else "dead"
            test = example(system=((model, ChainLattice(L, PERIODIC)), kind), amplitude=0.8, seed=2)(test)
        for p2 in (near, replace(near, t=-1.0)):
            system = (replace(model, p2=p2), ChainLattice(8))
            test = example(system=(system, "off-dead"), amplitude=0.8, seed=2)(test)
    for lat in (SlabLattice(4, 5), SlabLattice(4, 5, PERIODIC, OPEN),
                SlabLattice(5, 4, PERIODIC, PERIODIC)):
        test = example(system=((_canonical_slab(), lat), "off-dead"), amplitude=0.8, seed=2)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    system=_related_child().map(lambda s: (s, "related")) | _near_dead_system(),
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@_paired_examples
def test_site_symmetry_partners_share_dense_spectra(system, amplitude, seed):
    (model, lat), kind = system
    owners = disorder._solve_owners(CHILD_CHANNELS, _links(model, lat))
    levels, scale = _dense_channel_levels(model, lat, CHILD_CHANNELS, amplitude, seed)
    for c, o in enumerate(owners):
        channel, owner = CHILD_CHANNELS[c], CHILD_CHANNELS[o]
        assert np.abs(levels[channel] - levels[owner]).max() < 1e-11 * scale, (channel, owner)
    name = dict(zip([channel_name(c) for c in CHILD_CHANNELS], owners))
    # where exchanging the factors keeps the child, each of its seven classes has one owner
    if kind == "related":
        for cls in _EXCHANGE_CLASSES:
            assert len({name[c] for c in cls}) == 1, (model, lat, cls)
    # only the dead-point gauge i^j joins 0y with 0z and yy with zz: it needs every
    # chain parent at the dead point, and on a ring 4 | L
    if isinstance(lat, ChainLattice) and (kind == "off-dead" or (lat.bc == PERIODIC and lat.L % 4)):
        assert name["0y"] != name["0z"] and name["yy"] != name["zz"], (model, lat)


@pytest.mark.parametrize(
    "model, lat",
    [
        (_canonical_child(), ChainLattice(5)),
        (_canonical_child(), ChainLattice(6, PERIODIC)),
        (_mixed_child(), ChainLattice(5)),
        (ChildSpec(_P1, ParentParams(-1.7 * _P1.t, 1.7 * _P1.delta, -1.7 * _P1.mu), PARALLEL),
         ChainLattice(6)),
        (ChildSpec(_P1, ParentParams(0.5 * _P1.t, -0.5 * _P1.delta, 0.5 * _P1.mu), PARALLEL),
         ChainLattice(5, PERIODIC)),
        (replace(_canonical_child(), p2=ParentParams(1.0, 1.0 - 1e-7, 0.0)), ChainLattice(5)),
        (_canonical_slab(), SlabLattice(4, 3, PERIODIC, PERIODIC)),
    ],
    ids=["canonical", "canonical-ring-6", "mixed", "related", "related-ring-5", "near-dead", "slab"],
)
def test_site_symmetries_match_a_dense_search(model, lat):
    # the pruned search on Pauli coefficients finds what a brute force over every
    # Clifford unitary, gauge and sign finds on the whole lattice matrix
    slab = isinstance(lat, SlabLattice)
    assert _links(model, lat) == site_symmetry_links(
        slab_hopping_blocks(model) if slab else chain_hopping_blocks(model), lat
    )


def test_site_symmetries_find_swaps_that_transpose_the_support():
    # s_0 x s_x + s_z x s_0 is kept only by maps that swap the factors and turn them
    # apart (Hadamard on both): a support that the factor swap transposes
    onsite = np.kron(np.eye(2), PAULI["x"].real) + np.kron(SZ.real, np.eye(2))
    blocks = {-1: np.zeros((4, 4)), 0: onsite, 1: np.zeros((4, 4))}
    links = disorder._site_symmetries(_FrameBlocks(blocks), ChainLattice(3))
    assert links == site_symmetry_links(blocks, ChainLattice(3))
    assert ("0x", "z0", 1) in links


@pytest.mark.parametrize("model, lat", _UNPAIRED, ids=["slab", "near-equal", "mixed-ring-7"])
def test_site_symmetries_pair_no_channels_where_the_blocks_tell_the_factors_apart(model, lat):
    assert len(set(disorder._solve_owners(CHILD_CHANNELS, _links(model, lat)))) == 9


def test_yy_and_zz_pair_only_at_the_sign_mixed_dead_point():
    # both are real and anticommute with both chiral operators: no twin argument
    # pairs them, and their spectra differ, unless a site-local symmetry does
    model = ChildSpec(ParentParams(1.0, 0.7, 0.3), ParentParams(-0.8, 1.1, 0.5), PARALLEL)
    levels, scale = _dense_channel_levels(model, ChainLattice(8), ["yy", "zz"], 0.5, 3)
    assert np.abs(levels["yy"] - levels["zz"]).max() > 1e-2 * scale
    for system in [(model, ChainLattice(8)), (_canonical_child(), ChainLattice(8))] + _UNPAIRED:
        assert disorder._solve_owners(("yy", "zz"), _links(*system)) == (0, 1)
    assert disorder._solve_owners(("yy", "zz"), _links(_mixed_child(), ChainLattice(8))) == (0, 0)


_MU = [0.0, 0.1]


@pytest.mark.parametrize(
    "model, lat, channels, mu_values, per_point, zero_tol",
    [
        (_mixed_child(), ChainLattice(8), None, _MU, [5, 7], None),
        (_canonical_child(), ChainLattice(9), None, _MU, [6, 7], None),
        (_zero_mu_child(), ChainLattice(16), None, _MU, [9, 9], None),
        (
            ChildSpec(ParentParams(1.0, 0.7, 0.0), ParentParams(-0.8, 1.1, 0.0), PERPENDICULAR),
            SlabLattice(3, 4),
            None,
            _MU,
            [9, 0],
            None,
        ),
        # at its own mu1 = 0, mu2 = 3: the gauge along x joins its nine classes into six
        (_canonical_slab(), SlabLattice(12, 30), None, None, [6], None),
        (_dead_parent(), ChainLattice(8), None, _MU, [3, 3], None),
        (_mixed_child(), ChainLattice(8), ["xx"], _MU, [1, 1], None),
        # the sign-mixed factor swap needs the gauge (-1)^j once mu != 0, which an odd
        # ring forbids; its ring levels are gapped, so a zero tolerance counts some
        (
            ChildSpec(ParentParams(1.0, 0.2, 0.0), ParentParams(-1.0, 0.2, 0.0), PARALLEL),
            ChainLattice(7, PERIODIC),
            None,
            _MU,
            [7, 9],
            1.0,
        ),
    ],
    ids=["child-chain", "canonical", "unrelated", "child-slab", "canonical-slab", "parent",
         "one-channel", "mixed-ring-7"],
)
def test_sweep_solves_each_twin_class_once(
    monkeypatch, model, lat, channels, mu_values, per_point, zero_tol
):
    # per_point: solves per realization at each grid point, none without zero modes
    calls = []
    channel = BlockSolver.channel

    def counted(self, mat):
        solve = channel(self, mat)
        return lambda v: calls.append(1) or solve(v)

    monkeypatch.setattr(BlockSolver, "channel", counted)
    rep = robustness_sweep(
        model, lat, amplitude=0.2, channels=channels, realizations=2, seed=4,
        mu_values=mu_values, zero_tol=zero_tol,
    )
    assert list(rep.zero_counts > 0) == [n > 0 for n in per_point]
    assert len(calls) == 2 * sum(per_point)


@settings(max_examples=40, deadline=None)
@given(system=_disordered_system())
def test_frame_split_partitions_columns_and_keeps_every_entry(system):
    model, lat = system
    if isinstance(lat, SlabLattice):
        fb, sites = _FrameBlocks(slab_hopping_blocks(model)), lat.Lx * lat.Ly
    else:
        fb, sites = _FrameBlocks(chain_hopping_blocks(model)), lat.L
    n = fb.q.size
    everything = np.ones(n, dtype=bool)
    # internal indices first: clean[i, j] holds every site pair of frame entry (i, j)
    clean = fb.assemble(everything, everything, lat).reshape(sites, n, sites, n)
    clean = clean.transpose(1, 3, 0, 2)
    scale = max(np.abs(clean).max(), 1.0)
    channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    for channel in channels:
        p = fb.frame.T @ channel_matrix(channel) @ fb.frame
        kept = np.zeros((n, n), dtype=bool)
        cover = np.zeros(n, dtype=int)
        for rows, cols, corner in fb.split(p):
            assert rows.any() and cols.any()
            if corner:
                assert not (rows & cols).any()
                kept |= np.outer(rows, cols) | np.outer(cols, rows)
            else:
                assert np.array_equal(rows, cols)
                kept |= np.outer(rows, rows)
            cover += rows | cols
        assert np.array_equal(cover, np.ones(n)), channel_name(channel)
        # every entry the parts discard vanishes, in the clean blocks and in p
        assert np.abs(clean[~kept]).max(initial=0.0) < 1e-12 * scale, channel_name(channel)
        assert np.abs(p[~kept]).max(initial=0.0) < 1e-12, channel_name(channel)

    parts = fb.split(0)
    name, s = fb.chirals[0]
    assert all(corner for _, _, corner in parts)
    assert [fb.q[rows][0] for rows, _, _ in parts] == sorted(set(fb.q))
    for rows, cols, _ in parts:
        assert np.all(fb.q[rows | cols] == fb.q[rows][0])
        assert np.all(s[rows] > 0) and np.all(s[cols] < 0), name


@pytest.mark.parametrize(
    "model, lat, shapes",
    [
        (_dead_parent(), ChainLattice(7), [[(6, 2), (2, 1)]]),
        # 1e-7 from the dead point: the small hopping t - Delta still joins the
        # dimers, into the parent's two Majorana chains
        (ParentParams(1.0, 1.0 - 1e-7, 0.0), ChainLattice(7), [[(2, 7)]]),
        (ParentParams(1.0, 0.7, 0.3), ChainLattice(8, PERIODIC), [[(1, 16)]]),
        (ChildSpec(ParentParams(1.0, 0.7, 0.0), ParentParams(-0.8, 1.1, 0.4), PARALLEL),
         ChainLattice(8), [[(1, 16)]] * 2),
        (_zero_mu_child(), ChainLattice(3), [[(1, 4), (1, 2)]] * 2),
        (_zero_mu_child(), ChainLattice(9), [[(1, 10), (1, 8)]] * 2),
        (_zero_mu_child(), ChainLattice(8, PERIODIC), [[(2, 8)]] * 2),
        (_zero_mu_child(), ChainLattice(7, PERIODIC), [[(1, 14)]] * 2),
        (_canonical_child(), ChainLattice(9), [[(7, 2), (4, 1)], [(9, 2)]]),
        (_canonical_child(), ChainLattice(8, PERIODIC), [[(8, 2)], [(8, 2)]]),
        (_canonical_child(), ChainLattice(7, PERIODIC), [[(7, 2)], [(7, 2)]]),
        (_mixed_child(), ChainLattice(9), [[(9, 2)], [(7, 2), (4, 1)]]),
        (_zero_mu_slab(), SlabLattice(3, 4), [[(4, 6)]] * 2),
        (_zero_mu_slab(), SlabLattice(4, 4, PERIODIC, PERIODIC), [[(4, 8)]] * 2),
        (_zero_mu_slab(), SlabLattice(3, 4, PERIODIC, PERIODIC), [[(2, 12)]] * 2),
        (_canonical_slab(), SlabLattice(3, 4), [[(2, 8), (8, 1)]] * 2),
    ],
    ids=[
        "parent", "near-dead-parent", "parent-ring", "child-mu", "child-3", "child-9", "ring-8", "ring-7",
        "canonical-9", "canonical-ring-8", "canonical-ring-7", "mixed-9", "slab", "slab-ring-4x4",
        "slab-ring-3x4", "canonical-slab",
    ],
)
def test_node_classes_split_every_part_up_to_its_tolerance(model, lat, shapes):
    # shapes: the (count, size) class groups of each split part of channel x (parent) or 00
    # (child), by ascending t_x s_x; at the dead point 00 leaves dimers and end singletons
    # (on the canonical slab, x dimers stretched along y), and an odd ring joins
    # classes that an even one keeps apart
    if isinstance(lat, SlabLattice):
        fb, n_sites = _FrameBlocks(slab_hopping_blocks(model)), lat.Lx * lat.Ly
    else:
        fb, n_sites = _FrameBlocks(chain_hopping_blocks(model)), lat.L
    channels = PARENT_CHANNELS if isinstance(model, ParentParams) else CHILD_CHANNELS
    for channel in channels:
        p = fb.frame.T @ channel_matrix(channel) @ fb.frame
        got = []
        for rows, cols, corner in fb.split(p):
            pb = p[np.ix_(rows, cols)]
            part = fb.assemble(rows, cols, lat)
            term = np.kron(np.eye(n_sites), pb)
            joined = (np.abs(part) > fb.tol) | _support(term)
            groups = _components(joined, not corner)
            got.append([ri.shape for ri, _ in groups])
            sizes = [ri.shape[1] for ri, _ in groups]
            assert sizes == sorted(set(sizes), reverse=True), channel_name(channel)
            label_r, label_c = np.full(part.shape[0], -1), np.full(part.shape[1], -1)
            for c, (r_nodes, c_nodes) in enumerate(
                pair for ri, ci in groups for pair in zip(ri, ci)
            ):
                # a symmetric part keeps one order of its nodes on both sides
                assert corner or np.array_equal(r_nodes, c_nodes), channel_name(channel)
                assert np.all(label_r[r_nodes] == -1) and np.all(label_c[c_nodes] == -1)
                label_r[r_nodes] = label_c[c_nodes] = c
            assert np.all(label_r >= 0) and np.all(label_c >= 0), channel_name(channel)
            # what joins two classes lies within the tolerance that decided it
            cross = label_r[:, None] != label_c[None, :]
            assert np.abs(part[cross]).max(initial=0.0) <= fb.tol, channel_name(channel)
            assert np.abs(term[cross]).max(initial=0.0) < SYMMETRY_TOL, channel_name(channel)
        if channel == channels[0]:
            assert got == shapes


def test_node_classes_need_a_site_term_that_fills_each_corner():
    # the dead parent's corner hops by one site only, so without a site term
    # the first column node and the last row node have no partner
    fb = _FrameBlocks(chain_hopping_blocks(_dead_parent()))
    ((rows, cols, corner),) = fb.split(0)
    assert corner
    joined = np.abs(fb.assemble(rows, cols, ChainLattice(5))) > fb.tol
    with pytest.raises(ValueError, match="unequal row and column counts"):
        _components(joined, False)


def test_node_classes_of_a_symmetric_part_share_one_node_set():
    # a path 0 - 1 - 2 without diagonal entries stays whole on one node set, while
    # read as a corner its row and column nodes fall into mirror classes of unequal counts
    joined = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    ((ri, ci),) = _components(joined, True)
    assert ri.tolist() == ci.tolist() == [[0, 1, 2]]
    with pytest.raises(ValueError, match="unequal row and column counts"):
        _components(joined, False)


def test_canonical_child_solves_halved_blocks(monkeypatch):
    # t = Delta = 1 and mu = 0 on 80 open sites: every disorder block of the hopping sector
    # splits into even and odd sites, or into dimers and end singletons where the channel
    # keeps the sector's columns apart (00 and 0x), and the flat sector into single sites
    lat = ChainLattice(80)
    calls = []
    for name in ("svd", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, a.dtype.kind, a.shape[:-2], max(a.shape[-2:])))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(realizations):
        calls.clear()
        robustness_sweep(_canonical_child(), lat, amplitude=0.2, realizations=realizations, seed=4)
        assert max(dim for _, _, _, dim in calls) <= 80
        assert max(dim for _, _, stack, dim in calls if stack == (80,)) <= 2
        assert max(dim for name, _, stack, dim in calls
                   if name == "eigvalsh" and stack in ((78,), (80,))) <= 2
        return Counter(calls)

    # one stacked call per class group of each part a realization solves
    # and no LAPACK call for the 1x1 classes, whose |E| is the modulus of their entry;
    # the site-local symmetries leave y0, yx and 0z, and so their twins, to 0y
    assert count(2) - count(1) == {
        ("eigvalsh", "f", (78,), 2): 2,
        ("eigvalsh", "f", (80,), 2): 2,
        ("svd", "f", (2,), 80): 1,
        ("svd", "f", (2,), 40): 2,
        ("svd", "c", (2,), 40): 1,
    }


def test_canonical_slab_solves_dimer_strips(monkeypatch):
    # (1, 1, 0) x (1, 1, 3) on 6x10 sites: parent 1 at Kitaev's dead point hops along x
    # only inside dimers, so channel 00 solves 2 x 10 strips and single end nodes, never
    # a block as large as its 60-site corner; the verdicts are those of 12x30 and 20x50
    lat = SlabLattice(6, 10)
    rep = robustness_sweep(_canonical_slab(), lat, realizations=1, seed=42)
    broken = [channel_name(c) for c, robust in zip(rep.channels, rep.robust[:, 0]) if not robust]
    assert broken == ["00", "0x", "0y", "0z", "x0", "xx", "xy", "xz"]
    assert len(rep.channels) == 16 and rep.zero_counts[0] > 0

    calls = []
    for name in ("svd", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, a.dtype.kind, a.shape[:-2], max(a.shape[-2:])))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(realizations):
        calls.clear()
        robustness_sweep(_canonical_slab(), lat, channels=["00"], realizations=realizations, seed=4)
        assert max(dim for _, _, _, dim in calls) < lat.Lx * lat.Ly
        return Counter(calls)

    # per realization one stacked call per t_x s_x sector, the end nodes by their moduli
    assert count(2) - count(1) == {("eigvalsh", "f", (5,), 20): 2}


def test_block_solver_rejects_clean_matrix_without_txsx_symmetry(monkeypatch):
    lat = ChainLattice(8)
    BlockSolver(_mixed_child(), lat).channel(channel_matrix("00"))
    # t_z s_0 is real and Hermitian but anticommutes with t_x s_x
    blocks = chain_hopping_blocks(_mixed_child())
    blocks[0] = blocks[0] + 0.3 * np.kron(SZ, PAULI["0"])
    monkeypatch.setattr(disorder, "chain_hopping_blocks", lambda _: blocks)
    with pytest.raises(SymmetryError, match="t_x s_x"):
        BlockSolver(_mixed_child(), lat).channel(channel_matrix("00"))


def test_twins_share_a_solve_only_while_the_clean_child_keeps_its_symmetries(monkeypatch):
    # t_0 s_z keeps t_0 s_x chirality, which is all that the real xz solve needs,
    # but breaks t_x s_x and t_x s_0, on which its twin 0y relies
    blocks = chain_hopping_blocks(_mixed_child())
    blocks[0] = blocks[0] + 0.3 * np.kron(PAULI["0"], SZ)
    monkeypatch.setattr(disorder, "chain_hopping_blocks", lambda _: blocks)
    lat = ChainLattice(8)
    robustness_sweep(_mixed_child(), lat, channels=["xz"], realizations=1)
    with pytest.raises(SymmetryError, match="t_x s_x"):
        robustness_sweep(_mixed_child(), lat, channels=["xz", "0y"], realizations=1)
