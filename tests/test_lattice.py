"""Chiral-corner chain solver against dense references, and parameter sweeps."""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dense_reference import (
    assemble_frame,
    build_chain,
    build_slab,
    classify_with,
    decisions,
    dense_levels,
    dense_solver,
    diagonalize,
    parent_bloch,
    well_posed,
    whole_corner_potentials,
    zero_basis,
)
from mkc import lattice, toeplitz
from mkc.boundary import classify_zero_modes, mkc_parallel_majorana_points
from mkc.disorder import robustness_sweep
from mkc.errors import ConfigError, NonHermitianError, SymmetryError
from mkc.lattice import (
    LINK_EQUAL,
    OPEN,
    PERIODIC,
    ChainLattice,
    SlabLattice,
    _zero_tol,
    chain_hopping_blocks,
    exact_zero_potentials,
    low_energy_vs_length,
    spectrum,
    spectrum_vs_mu,
    zero_subspace,
)
from mkc.models import (
    PARALLEL,
    PERPENDICULAR,
    S0,
    SX,
    SY,
    SZ,
    ChildSpec,
    ParentParams,
    child_bloch,
)
from mkc.tolerance import BAND_ZERO_TOL, ROOT_MATCH, SYMMETRY_TOL

RNG = np.random.default_rng(20240812)


def random_parent():
    return ParentParams(
        t=float(RNG.uniform(-2, 2)),
        delta=float(RNG.uniform(-1.5, 1.5)),
        mu=float(RNG.uniform(-3, 3)),
    )


def test_lattice_validation():
    with pytest.raises(ValueError):
        ChainLattice(0)
    with pytest.raises(ValueError):
        ChainLattice(8, bc="twisted")
    with pytest.raises(ValueError):
        SlabLattice(2, 5)


@pytest.mark.parametrize("bc", [OPEN, PERIODIC])
def test_chain_is_hermitian(bc):
    for spec in (random_parent(), ChildSpec(random_parent(), random_parent(), PARALLEL)):
        h = build_chain(spec, ChainLattice(9, bc=bc))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_chain_dimensions():
    p = random_parent()
    assert build_chain(p, ChainLattice(7)).shape == (14, 14)
    spec = ChildSpec(random_parent(), random_parent(), PARALLEL)
    assert build_chain(spec, ChainLattice(7)).shape == (28, 28)


def test_pbc_chain_reproduces_bloch_bands():
    # eigenvalues of the ring must be the Bloch bands on the discrete grid
    L = 12
    ks = 2.0 * np.pi * np.arange(L) / L
    for _ in range(5):
        p = random_parent()
        ev_ring = np.linalg.eigvalsh(build_chain(p, ChainLattice(L, bc=PERIODIC)))
        ev_bloch = np.sort(np.linalg.eigvalsh(parent_bloch(p, ks)).ravel())
        assert np.max(np.abs(np.sort(ev_ring) - ev_bloch)) < 1e-10

        spec = ChildSpec(random_parent(), random_parent(), PARALLEL)
        ev_ring = np.linalg.eigvalsh(build_chain(spec, ChainLattice(L, bc=PERIODIC)))
        ev_bloch = np.sort(np.linalg.eigvalsh(child_bloch(spec, ks)).ravel())
        assert np.max(np.abs(np.sort(ev_ring) - ev_bloch)) < 1e-10


def test_pbc_slab_reproduces_bloch_bands():
    Lx, Ly = 5, 6
    spec = ChildSpec(random_parent(), random_parent(), PERPENDICULAR)
    h = build_slab(spec, SlabLattice(Lx, Ly, bcx=PERIODIC, bcy=PERIODIC))
    kk = np.array(
        [[2 * np.pi * i / Lx, 2 * np.pi * j / Ly] for i in range(Lx) for j in range(Ly)]
    )
    ev_bloch = np.sort(np.linalg.eigvalsh(child_bloch(spec, kk)).ravel())
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(h)) - ev_bloch)) < 1e-10


def test_slab_mixed_bc_matches_partial_transform():
    # periodic along y only: block-diagonal in ky, chains along x
    spec = ChildSpec(random_parent(), random_parent(), PERPENDICULAR)
    Lx, Ly = 4, 5
    h = build_slab(spec, SlabLattice(Lx, Ly, bcx=OPEN, bcy=PERIODIC))
    assert h.shape == (4 * Lx * Ly, 4 * Lx * Ly)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_diagonalize_contract():
    spec = ChildSpec(random_parent(), random_parent(), PARALLEL)
    h = build_chain(spec, ChainLattice(10))
    s = diagonalize(h)
    assert np.all(np.diff(s.eigenvalues) >= 0)
    overlap = s.eigenvectors.conj().T @ s.eigenvectors
    assert np.max(np.abs(overlap - np.eye(overlap.shape[0]))) < 1e-10
    resid = h @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.max(np.abs(resid)) < 1e-10


def test_diagonalize_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError):
        diagonalize(bad)


def test_particle_hole_pairing_of_spectrum():
    # BdG chains: spectrum symmetric under E -> -E
    for spec in (random_parent(), ChildSpec(random_parent(), random_parent(), PARALLEL)):
        ev = np.linalg.eigvalsh(build_chain(spec, ChainLattice(11)))
        assert np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1])) < 1e-10


def _signed(levels):
    """The ascending spectrum of a chain's ascending levels (one |E| per +-E pair)."""
    return np.concatenate([-levels[::-1], levels])


def test_spectrum_vs_mu_links():
    lat = ChainLattice(6)
    template = ChildSpec(ParentParams(1, 0.5, 0), ParentParams(-1, 0.5, 0), PARALLEL)
    grid = np.array([-0.4, 0.0, 0.7])
    for link, mu2 in (("equal", 0.7), ("opposite", -0.7), ("fixed", 0.0)):
        rows = spectrum_vs_mu(template, grid, link, lat)
        assert [r["mu"] for r in rows] == pytest.approx(list(grid))
        probe = ChildSpec(
            ParentParams(1, 0.5, 0.7), ParentParams(-1, 0.5, mu2), PARALLEL
        )
        want = np.linalg.eigvalsh(build_chain(probe, lat))
        assert _signed(rows[2]["obc"]) == pytest.approx(list(want), abs=1e-12)
        assert _signed(rows[2]["pbc"]).shape == want.shape


def test_spectrum_vs_mu_threads_do_not_change_values():
    lat = ChainLattice(6)
    template = ParentParams(1.0, 0.5, 0.0)
    grid = np.linspace(-2, 2, 7)
    one = spectrum_vs_mu(template, grid, "equal", lat, threads=1)
    four = spectrum_vs_mu(template, grid, "equal", lat, threads=4)
    for a, b in zip(one, four):
        assert a["mu"] == b["mu"]
        assert np.array_equal(a["obc"], b["obc"])
        assert np.array_equal(a["pbc"], b["pbc"])


def test_low_energy_vs_length_shapes_and_splitting():
    spec = ChildSpec(ParentParams(1, 0.5, 0.2), ParentParams(-1, 0.5, 0.2), PARALLEL)
    rows = low_energy_vs_length(spec, range(4, 9, 2))
    assert [r["L"] for r in rows] == [4, 6, 8]
    for r in rows:
        assert r["levels"].shape == (2 * r["L"],)
        assert np.all(np.diff(r["levels"]) >= 0.0)
        assert r["splitting"] == 2.0 * r["levels"][0] >= 0.0


def test_low_energy_vs_length_matches_dense_magnitudes():
    # each level stands for one +-E pair, so twice over it is the sorted |E|
    spec = ChildSpec(ParentParams(1, 0.5, 0.2), ParentParams(-1, 0.5, 0.2), PARALLEL)
    for bc in (OPEN, PERIODIC):
        rows = low_energy_vs_length(spec, range(3, 9), bc=bc)
        for r in rows:
            ev = np.linalg.eigvalsh(build_chain(spec, ChainLattice(r["L"], bc)))
            want = np.sort(np.abs(ev))
            assert np.repeat(r["levels"], 2) == pytest.approx(want, abs=1e-12)
            half = ev.size // 2
            assert r["splitting"] == pytest.approx(ev[half] - ev[half - 1], abs=1e-12)


_sign = st.sampled_from([-1.0, 1.0])


# |t| = |Delta| values whose rotated dead-point blocks keep their zeros exact
_DEAD_SCALES = (0.5, 0.75, 1.0, 1.5, 2.0)


@st.composite
def _parent(draw):
    """A random, critical (mu = +-2t), flat-band (|t| = |Delta|) or dead-point parent.

    A dead-point parent (|t| = |Delta|, mu = 0) takes a scale from
    _DEAD_SCALES, so that its open corners are exact weighted matchings.
    """
    kind = draw(st.sampled_from(["random", "critical", "flat", "dead"]))
    if kind == "dead":
        t = draw(_sign) * draw(st.sampled_from(_DEAD_SCALES))
        return ParentParams(t, draw(_sign) * abs(t), 0.0)
    t = draw(_sign) * draw(st.floats(0.3, 2.0))
    delta = draw(_sign) * draw(st.floats(0.2, 1.5))
    if kind == "flat":
        delta = draw(_sign) * abs(t)
    mu = draw(_sign) * 2.0 * abs(t) if kind == "critical" else draw(st.floats(-3.0, 3.0))
    return ParentParams(t, delta, mu)


_GENERIC = ParentParams(1.0, 0.6, 0.4)
_HALF_DEAD = ParentParams(0.5, 0.5, 0.0)


def _is_dead(p):
    return p.mu == 0.0 and abs(p.t) == abs(p.delta) in _DEAD_SCALES


@st.composite
def _chain_system(draw):
    """(model, lattice): a parent, a child, a child of equal parents or a sign-mixed (t2 = -t1) one."""
    p1 = draw(_parent())
    kind = draw(st.sampled_from(["parent", "child", "equal", "sign-mixed"]))
    L = draw(st.integers(2 if kind == "parent" else 3, 12))
    lat = ChainLattice(L, draw(st.sampled_from([OPEN, PERIODIC])))
    if kind == "parent":
        return p1, lat
    p2 = {"child": draw(_parent()), "equal": p1, "sign-mixed": ParentParams(-p1.t, p1.delta, p1.mu)}
    return ChildSpec(p1, p2[kind], PARALLEL), lat


@settings(max_examples=150, deadline=None)
@given(system=_chain_system())
# a flat-band parent whose complex eigvalsh level is off by 5e-5 (dense_levels)
@example((ParentParams(-0.9921875, -0.9921875, 8.6e-161), ChainLattice(3, OPEN)))
# dead points (weighted matchings) and equal parents (reflection halves) at both parities
@example((ParentParams(1.0, -1.0, 0.0), ChainLattice(2, OPEN)))
@example((ChildSpec(_HALF_DEAD, ParentParams(-1.5, 1.5, 0.0), PARALLEL), ChainLattice(7)))
@example((ChildSpec(_GENERIC, _GENERIC, PARALLEL), ChainLattice(3)))
@example((ChildSpec(_GENERIC, _GENERIC, PARALLEL), ChainLattice(8)))
def test_chain_spectrum_matches_dense(system):
    spec, lat = system
    dense = dense_levels(build_chain(spec, lat))
    fast = spectrum(spec, lat)
    assert fast.shape == dense.shape
    assert np.abs(fast - dense).max() < 1e-12 * max(np.abs(dense).max(), 1.0)
    bw = float(dense[-1] - dense[0])
    tol = _zero_tol(bw, None)
    parents = (spec.p1, spec.p2) if isinstance(spec, ChildSpec) else (spec,)
    if lat.bc == OPEN and all(map(_is_dead, parents)):
        # dead-point corners are weighted matchings, whose zero levels are exact
        assert np.all(fast[np.abs(dense) < tol] == 0.0)
    # a level within rounding of the zero tolerance may count either way
    assume(np.all(np.abs(np.abs(dense) - tol) > 1e-9 * bw))
    assert (np.abs(fast) < tol).sum() == (np.abs(dense) < tol).sum()


# lapack_calls is cleared before the one check that reads it
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    p1=_parent(), p2=_parent(), child=st.sampled_from(["no", "yes", "equal"]),
    bc=st.sampled_from([OPEN, PERIODIC]), L=st.integers(1, 40),
)
@example(p1=_GENERIC, p2=_HALF_DEAD, child="equal", bc=OPEN, L=1)
@example(p1=_GENERIC, p2=_HALF_DEAD, child="equal", bc=OPEN, L=2)
@example(p1=_GENERIC, p2=_HALF_DEAD, child="equal", bc=OPEN, L=3)
@example(p1=ParentParams(-1.5, 1.5, 0.0), p2=_HALF_DEAD, child="yes", bc=OPEN, L=6)
def test_corner_levels_match_corner_svd(p1, p2, child, bc, L, lapack_calls):
    spec = p1 if child == "no" else ChildSpec(p1, p1 if child == "equal" else p2, PARALLEL)
    blocks = chain_hopping_blocks(spec)
    if bc == OPEN:
        # an open chain of L sites has no bond of range L or more
        blocks = {r: b for r, b in blocks.items() if abs(r) < L}
    else:
        L = max(L, 2 if child == "no" else 3)
    lat = ChainLattice(L, bc)
    fb = lattice._FrameBlocks(blocks)
    sectors = []
    for rows, cols, _ in fb.split(0):
        corner = fb.corner(rows, cols, lat)
        want = np.linalg.svd(corner, compute_uv=False)
        if bc == PERIODIC:
            # the first column alone, as levels and sweeps keep it, gives the same bits
            column = fb.ring_column(rows, cols, lat.L)
            assert column.tobytes() == corner[:, 0].tobytes()
            got = toeplitz.circulant_levels(corner[:, 0].copy())
            assert toeplitz.circulant_levels(column).tobytes() == got.tobytes()
        else:
            got = toeplitz.persymmetric_levels(corner)
        sectors.append(got)
        assert np.abs(np.sort(got)[::-1] - want).max() <= 1e-13 * max(want[0], 1.0)
        hit = corner != 0
        if bc == OPEN and hit.sum(axis=0).max() <= 1 and hit.sum(axis=1).max() <= 1:
            # a weighted matching: its entry moduli and exact zeros, with no LAPACK call
            lapack_calls.clear()
            assert toeplitz.persymmetric_levels(corner).tobytes() == got.tobytes()
            assert lapack_calls == []
            zeros = [0.0] * (L - hit.sum())
            assert np.sort(got).tolist() == sorted(np.abs(corner[hit]).tolist() + zeros)
    # the frame's levels are the sectors' levels, to the bit
    assert lattice._frame_levels(fb, lat).tobytes() == np.sort(np.concatenate(sectors)).tobytes()


def test_frame_blocks_share_one_read_only_frame_per_site_size():
    for spec in (_GENERIC, ChildSpec(_GENERIC, _HALF_DEAD, PARALLEL)):
        a, b = (lattice._FrameBlocks(chain_hopping_blocks(spec)) for _ in range(2))
        assert a.frame is b.frame and a.q is b.q and a.chirals is b.chirals
        for labels in (a.frame, a.q, *(s for _, s in a.chirals)):
            with pytest.raises(ValueError, match="read-only"):
                labels[0] = 1.0


def test_open_corner_levels_need_a_persymmetric_corner():
    # eigvalsh reads one triangle of J A, so a corner that is not persymmetric
    # to the bit raises instead of returning levels of another matrix
    a = np.array([[2.0, 1.0, 0.5], [0.25, 2.0, 1.0], [0.0, 0.25, 2.0]])
    assert np.allclose(np.sort(toeplitz.persymmetric_levels(a))[::-1],
                       np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-14)
    off = a.copy()
    off[0, 1] = np.nextafter(1.0, 2.0)
    for corner in (off, np.diag([1.0, 2.0, 3.0]), np.arange(16.0).reshape(4, 4)):
        with pytest.raises(SymmetryError, match="persymmetric"):
            toeplitz.persymmetric_levels(corner)


# |t| of a sweep's dead-point parents: at 1 and 1.5 the frame rotation keeps
# every zero exact, so at the equal link a child with t1 = t2 has one sector
# that is a symmetric pencil with scalar A0 and A2, solved once per sweep;
# 0.7 leaves rounding residues in A0, and its sectors are solved at every point
_SWEEP_DEAD = (1.0, 1.5, 0.7)


@st.composite
def _sweep_case(draw):
    """(template, link, lattice, grid): L down to the minimum, grid through mu = +-2t.

    Half the templates are children of two dead-point parents of one |t|
    from _SWEEP_DEAD, with independent signs, and half the links are equal.
    """
    kind = draw(st.sampled_from(["parent", "child", "dead", "dead"]))
    if kind == "dead":
        t = draw(st.sampled_from(_SWEEP_DEAD))
        p1, p2 = (ParentParams(draw(_sign) * t, draw(_sign) * t, 0.0) for _ in range(2))
    else:
        p1, p2 = draw(_parent()), draw(_parent())
    template = p1 if kind == "parent" else ChildSpec(p1, p2, PARALLEL)
    child = isinstance(template, ChildSpec)
    link = draw(st.sampled_from([LINK_EQUAL, LINK_EQUAL, "opposite", "fixed"]))
    lat = ChainLattice(draw(st.integers(3 if child else 2, 12)), OPEN)
    ts = (p1.t, template.p2.t) if child else (p1.t,)
    grid = [draw(st.floats(-3.0, 3.0))] + [s * 2.0 * t for t in ts for s in (-1.0, 1.0)]
    return template, link, lat, grid


_DEAD = ParentParams(1.0, 1.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(case=_sweep_case())
@example((ChildSpec(_DEAD, _DEAD, PARALLEL), LINK_EQUAL, ChainLattice(7), [0.3, -2.0, 2.0]))
@example((ChildSpec(_DEAD, _DEAD, PARALLEL), LINK_EQUAL, ChainLattice(8), [0.3, -2.0, 2.0]))
@example((
    ChildSpec(ParentParams(0.7, 0.7, 0.0), ParentParams(0.7, 0.7, 0.0), PARALLEL),
    LINK_EQUAL, ChainLattice(8), [0.3, -1.4, 1.4],
))
# tiny mu, where eigvalsh of the uncut corner missed levels by up to 6.5e-10 of the scale
@example((
    ChildSpec(ParentParams(-1.0, -1.0, 0.0), ParentParams(-1.0, -1.0, 0.0), PARALLEL),
    LINK_EQUAL, ChainLattice(5), [2.4791031084876842e-79, 2.0, -2.0, 2.0, -2.0],
))
@example((ChildSpec(_DEAD, _DEAD, PARALLEL), LINK_EQUAL, ChainLattice(9), [3.449235e-42, -2.0, 2.0]))
@example((
    ChildSpec(ParentParams(-1.0, -1.0, 0.0), ParentParams(-1.0, -1.0, 0.0), PARALLEL),
    "fixed", ChainLattice(4), [4.3559057294848846e-161, 2.0, -2.0, 2.0, -2.0],
))
def test_spectrum_vs_mu_matches_dense(case):
    template, link, lat, grid = case
    rows = spectrum_vs_mu(template, grid, link, lat)
    assert [r["mu"] for r in rows] == grid
    for row in rows:
        spec = lattice._with_mu(template, row["mu"], link)
        for key, bc in (("obc", OPEN), ("pbc", PERIODIC)):
            dense = dense_levels(build_chain(spec, replace(lat, bc=bc)))
            got = _signed(row[key])
            assert got.shape == dense.shape
            assert np.abs(got - dense).max() < 1e-12 * max(np.abs(dense).max(), 1.0)
    # the periodic levels are those of the whole circulant pencils, to the bit
    frames = lattice._mu_frames(template, link)
    ring = replace(lat, bc=PERIODIC)
    whole = [
        [fb.corner(rows, cols, ring) for fb, (rows, cols, _) in zip(frames, parts)]
        for parts in zip(*(fb.split(0) for fb in frames))
    ]
    for row in rows:
        mu = row["mu"]
        want = np.sort(np.concatenate([
            toeplitz.circulant_levels((a0 + mu * (a1 + mu * a2))[:, 0]) for a0, a1, a2 in whole
        ]))
        assert row["pbc"].tobytes() == want.tobytes()


def test_spectrum_vs_mu_builds_one_frame_per_coefficient(monkeypatch):
    # three frames for the three mu coefficients, shared by both boundary
    # conditions, and only open corners built: periodic ones stay columns
    built, assembled = [], []
    init, corner = lattice._FrameBlocks.__init__, lattice._FrameBlocks.corner

    def counted_init(self, blocks):
        built.append(len(blocks))
        init(self, blocks)

    def counted_corner(self, rows, cols, lat):
        assembled.append(lat.bc)
        return corner(self, rows, cols, lat)

    monkeypatch.setattr(lattice._FrameBlocks, "__init__", counted_init)
    monkeypatch.setattr(lattice._FrameBlocks, "corner", counted_corner)
    child = ChildSpec(ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PARALLEL)
    rows = spectrum_vs_mu(child, np.linspace(-3.0, 3.0, 11), LINK_EQUAL, ChainLattice(8))
    assert len(rows) == 11
    assert built == [5, 5, 5]
    assert assembled == [OPEN] * 6


def _sector_pencils(template, L):
    """[(A0, A1, A2)]: the open sweep pencil of each t_x s_x sector, as spectrum_vs_mu builds it."""
    frames = lattice._mu_frames(template, LINK_EQUAL)
    lat = ChainLattice(L)
    return [
        tuple(fb.corner(rows, cols, lat) for fb, (rows, cols, _) in zip(frames, parts))
        for parts in zip(*(fb.split(0) for fb in frames))
    ]


@pytest.mark.parametrize(
    "template, L, points, calls",
    [
        # the canonical child: its first sector takes one eigvalsh per point
        # except mu = 0 (a weighted matching), its second one none (closed form)
        (ChildSpec(_DEAD, _DEAD, PARALLEL), 80, 11, 10),
        (ChildSpec(_DEAD, _DEAD, PARALLEL), 80, 201, 200),
        # a generic equal-parent child: one call plus two reflection halves per point
        (ChildSpec(_GENERIC, _GENERIC, PARALLEL), 12, 11, 33),
    ],
)
def test_sweep_eigvalsh_calls(template, L, points, calls, lapack_calls):
    grid = np.linspace(-3.0, 3.0, points)
    rows = spectrum_vs_mu(template, grid, LINK_EQUAL, ChainLattice(L))
    assert [name for name, *_ in lapack_calls] == ["eigvalsh"] * calls
    for row in rows[:: max(points // 11, 1)]:
        spec = lattice._with_mu(template, row["mu"], LINK_EQUAL)
        dense = dense_levels(build_chain(spec, ChainLattice(L)))
        assert np.abs(_signed(row["obc"]) - dense).max() < 1e-12 * np.abs(dense).max()


def _ulp_off_symmetric(a0, a1, a2):
    # one entry and its persymmetric partner, so the pencil stays Toeplitz
    a1 = a1.copy()
    a1[0, 1] = a1[-2, -1] = np.nextafter(a1[0, 1], 0.0)
    return a0, a1, a2


def _ulp_off_scalar(a0, a1, a2):
    a0 = a0.copy()
    a0[0, 0] = a0[-1, -1] = np.nextafter(a0[0, 0], 0.0)
    return a0, a1, a2


def _ulp_off_tridiagonal(a0, a1, a2):
    # the smallest subnormal two sites off the diagonal, at both ends and on
    # both sides, so that A1 stays symmetric and the pencil Toeplitz
    a1 = a1.copy()
    a1[0, 2] = a1[2, 0] = a1[-3, -1] = a1[-1, -3] = np.nextafter(0.0, 1.0)
    return a0, a1, a2


@pytest.mark.parametrize("miss", [_ulp_off_symmetric, _ulp_off_scalar, _ulp_off_tridiagonal])
@pytest.mark.parametrize("L", [7, 8])
def test_near_symmetric_pencils_keep_the_per_point_path(miss, L, lapack_calls):
    # the canonical child's second sector is a symmetric pencil with scalar
    # A0 and A2 and tridiagonal A1, solved in closed form without LAPACK; an
    # ulp off any of them, at every point
    exact = _sector_pencils(ChildSpec(_DEAD, _DEAD, PARALLEL), L)[1]
    grid = np.linspace(-3.0, 3.0, 11)
    levels = toeplitz.pencil_levels(*exact)
    assert [levels(mu).size for mu in grid] == [L] * grid.size
    assert lapack_calls == []
    a0, a1, a2 = pencil = miss(*exact)
    spy = mock.patch.object(toeplitz, "persymmetric_levels", wraps=toeplitz.persymmetric_levels)
    with spy as per_point:
        levels = toeplitz.pencil_levels(*pencil)
        got = [np.sort(levels(mu))[::-1] for mu in grid]
    assert per_point.call_count == grid.size
    # one or two calls a point, none at mu = 0, where A0 is diagonal (a weighted matching)
    assert len(lapack_calls) >= grid.size - 1
    assert {name for name, *_ in lapack_calls} == {"eigvalsh"}
    for mu, g in zip(grid, got):
        want = np.linalg.svd(a0 + mu * (a1 + mu * a2), compute_uv=False)
        assert np.abs(g - want).max() <= 1e-13 * want[0]


@pytest.mark.parametrize("t", [1.0, 1.5])
@pytest.mark.parametrize("L", [*range(1, 13), 80])
def test_closed_form_sector_matches_eigvalsh_and_the_dense_chain(t, L, lapack_calls):
    # a child of two dead-point parents with t1 = t2 has exactly one sector
    # whose pencil takes the closed form: the second when Delta1 = Delta2, else
    # the first; its levels are those of eigvalsh(A1) to 1e-14 of the scale
    grid = np.linspace(-3.0, 3.0, 7)
    for s, d1, d2 in itertools.product((-1.0, 1.0), repeat=3):
        p1, p2 = ParentParams(s * t, d1 * t, 0.0), ParentParams(s * t, d2 * t, 0.0)
        template = ChildSpec(p1, p2, PARALLEL)
        # an open chain of L sites has no bond of range L or more
        frames = lattice._mu_frames(template, LINK_EQUAL, L=L)
        pencils = [
            tuple(fb.corner(rows, cols, ChainLattice(L)) for fb, (rows, cols, _) in zip(frames, parts))
            for parts in zip(*(fb.split(0) for fb in frames))
        ]
        closed = []
        for k, (a0, a1, a2) in enumerate(pencils):
            lapack_calls.clear()
            with mock.patch.object(toeplitz, "persymmetric_levels", side_effect=AssertionError):
                try:
                    levels = toeplitz.pencil_levels(a0, a1, a2)
                    got = [np.sort(levels(mu)) for mu in grid]
                except AssertionError:
                    continue
            # the closed form makes no LAPACK call
            assert lapack_calls == []
            closed.append(k)
            c0, c2, lam = a0[0, 0], a2[0, 0], np.linalg.eigvalsh(a1)
            for mu, g in zip(grid, got):
                want = np.sort(np.abs(c0 + mu * (lam + mu * c2)))
                assert np.abs(g - want).max() <= 1e-14 * max(want[-1], 1.0)
        # on one site every pencil is three scalars
        assert closed == ([0, 1] if L == 1 else [1] if d1 == d2 else [0])
        if L < 3:
            continue
        # the closed form stands in spectrum_vs_mu's rows against the dense chain
        # (at L = 80 at mu = -3, 0 and 3 only)
        rows = spectrum_vs_mu(template, grid, LINK_EQUAL, ChainLattice(L))
        for row in rows if L <= 12 else rows[::3]:
            spec = lattice._with_mu(template, row["mu"], LINK_EQUAL)
            dense = dense_levels(build_chain(spec, ChainLattice(L)))
            bound = 1e-12 * max(np.abs(dense).max(), 1.0)
            assert np.abs(_signed(row["obc"]) - dense).max() < bound


@st.composite
def _frame_entry_case(draw):
    """(blocks, lattice): chain blocks of a parent or child, or of one mu coefficient, on 1 to 9 sites."""
    p1 = draw(_parent())
    kind = draw(st.sampled_from(["parent", "child", "equal"]))
    template = p1 if kind == "parent" else ChildSpec(p1, draw(_parent()) if kind == "child" else p1, PARALLEL)
    coefficient = draw(st.sampled_from([None, 0, 1, 2]))
    if coefficient is None:
        blocks = chain_hopping_blocks(template)
    else:
        link = draw(st.sampled_from([LINK_EQUAL, "opposite", "fixed"]))
        blocks = lattice._mu_coefficients(template, link)[coefficient]
    return blocks, ChainLattice(draw(st.integers(1, 9)), draw(st.sampled_from([OPEN, PERIODIC])))


@settings(max_examples=200, deadline=None)
@given(case=_frame_entry_case())
# rings whose bonds fold: r = 2 onto r = -1 on 3 sites, r = 1 onto r = -1 on 2
@example(case=(chain_hopping_blocks(ChildSpec(_GENERIC, _HALF_DEAD, PARALLEL)), ChainLattice(3, PERIODIC)))
@example(case=(chain_hopping_blocks(_GENERIC), ChainLattice(2, PERIODIC)))
def test_corner_is_the_assembled_frame_entry_to_the_bit(case):
    # built diagonal by diagonal, each chiral corner holds the bits of the whole
    # lattice matrix of its frame entry, and so does a ring's first column
    blocks, lat = case
    fb = lattice._FrameBlocks(blocks)
    for rows, cols, _ in fb.split(0):
        try:
            want = assemble_frame(fb, rows, cols, lat)
        except ConfigError:
            with pytest.raises(ConfigError, match="too short"):
                fb.corner(rows, cols, lat)
            continue
        got = fb.corner(rows, cols, lat)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if lat.bc == PERIODIC:
            assert fb.ring_column(rows, cols, lat.L).tobytes() == want[:, 0].tobytes()


@st.composite
def _graded_case(draw):
    """(template, link, lattice, grid): a child of two dead-point parents, eight mu = +-10^U(-165, -3).

    Its first open sector at such mu is a graded pencil: entries of order
    1, mu and mu^2 on three diagonals.
    """
    t = draw(st.sampled_from(_SWEEP_DEAD))
    p1, p2 = (ParentParams(draw(_sign) * t, draw(_sign) * t, 0.0) for _ in range(2))
    link = draw(st.sampled_from([LINK_EQUAL, "opposite", "fixed"]))
    lat = ChainLattice(draw(st.integers(3, 12)))
    grid = [draw(_sign) * 10.0 ** draw(st.floats(-165.0, -3.0)) for _ in range(8)]
    return ChildSpec(p1, p2, PARALLEL), link, lat, grid


@settings(max_examples=100, deadline=None)
@given(case=_graded_case())
@example(case=(
    ChildSpec(ParentParams(-1.0, -1.0, 0.0), ParentParams(-1.0, -1.0, 0.0), PARALLEL),
    LINK_EQUAL, ChainLattice(5), [2.4791031084876842e-79],
))
def test_graded_pencils_match_dense(case):
    # at mu = 10^-80 a corner holds entries of order 1, mu and mu^2, which
    # eigvalsh alone can miss by far more than rounding; entries below eps^2 of
    # the largest are cut first (toeplitz.persymmetric_levels)
    template, link, lat, grid = case
    for row in spectrum_vs_mu(template, grid, link, lat):
        spec = lattice._with_mu(template, row["mu"], link)
        for key, bc in (("obc", OPEN), ("pbc", PERIODIC)):
            dense = dense_levels(build_chain(spec, replace(lat, bc=bc)))
            assert np.abs(_signed(row[key]) - dense).max() < 1e-12 * max(np.abs(dense).max(), 1.0)


@settings(max_examples=150, deadline=None)
@given(system=_chain_system())
def test_chain_zero_subspace_matches_dense(system):
    spec, lat = system
    fast = zero_subspace(spec, lat)
    dense = dense_solver(spec, lat)
    spread = float(dense.eigenvalues[-1] - dense.eigenvalues[0])
    assert np.max(np.abs(spectrum(spec, lat) - dense.eigenvalues)) <= 1e-12 * max(spread, 1.0)
    assert fast.tol == pytest.approx(dense.tol, rel=1e-12)

    assume(well_posed(dense.eigenvalues, dense.tol))
    assert fast.count == dense.count
    if fast.count:
        b = zero_basis(fast, lat)
        assert np.max(np.abs(b.T @ b - np.eye(fast.count))) < 1e-13
        # the projector moves by the rounding error over the gap; the
        # dense span is orthonormalized first, since eigh vectors inside a
        # tight cluster can lose orthogonality
        ev = np.abs(dense.eigenvalues)
        gap = ev[ev >= dense.tol].min(initial=np.inf) - ev[ev < dense.tol].max()
        proj_tol = 1e-12 * max(spread, 1.0) / gap + 1e-12
        q = np.linalg.qr(zero_basis(dense, lat))[0]
        p_dense = q @ q.conj().T
        assert np.max(np.abs(b @ b.T - p_dense)) <= proj_tol
        dens_dense = np.real(np.diag(p_dense)).reshape(lat.L, -1).sum(axis=-1)
        assert np.max(np.abs(fast.weights - dens_dense)) <= proj_tol
    assert fast.weights.sum() == pytest.approx(fast.count, abs=1e-9)

    if isinstance(spec, ParentParams):
        return  # the boundary catalogue covers the child only
    # classify reads the zero subspace at 1e-6 of the bandwidth
    assume(well_posed(dense.eigenvalues, 1e-6 * spread))
    got = classify_with(zero_subspace, spec, lat)
    # a decision that a 0.1% change of its own threshold flips is ill-posed
    assume(all(
        decisions(classify_with(zero_subspace, spec, lat, scale)) == decisions(got)
        for scale in (0.999, 1.001)
    ))
    want = classify_with(dense_solver, spec, lat)
    assert decisions(got) == decisions(want)
    if isinstance(want, dict):
        for region, res in want.items():
            for g, w in zip(got[region].states, res.states):
                assert g.entropy == pytest.approx(w.entropy, abs=1e-9)
                assert g.overlap == pytest.approx(w.overlap, abs=1e-9)


@pytest.mark.parametrize("link", ["equal", "opposite", "fixed"])
def test_mu_coefficients_reproduce_blocks_and_lead_with_identity(link):
    child = ChildSpec(ParentParams(0.7, -0.4, 0.3), ParentParams(-1.3, 0.5, -0.8), PARALLEL)
    for template in (child, child.p2):
        c0, c1, c2 = lattice._mu_coefficients(template, link)
        for mu in (-1.7, 0.37):
            blocks = chain_hopping_blocks(lattice._with_mu(template, mu, link))
            for r, blk in blocks.items():
                assert np.abs(c0[r] + mu * c1[r] + mu**2 * c2[r] - blk).max() < 1e-14
        # mu^2 enters only through the child's on-site -mu1 mu2 s_z x s_z
        sign = {"equal": -1.0, "opposite": 1.0, "fixed": 0.0}[link]
        want = {0: sign * np.kron(SZ, SZ)} if template is child else {}
        for r, blk in c2.items():
            assert np.abs(blk - want.get(r, 0.0)).max() < 1e-15
        if template is child and link == "equal":
            for corner, _, _ in lattice._chiral_corners(c2, ChainLattice(5)):
                assert np.abs(corner + np.eye(5)).max() < 1e-15


def _dense_open_levels(spec, L):
    """Eigenvalues of the open chain built densely; bonds longer than L - 1 drop out."""
    blocks = chain_hopping_blocks(spec)
    return dense_levels(sum(np.kron(np.eye(L, k=r), blk) for r, blk in blocks.items()))


@st.composite
def _pencil_case(draw):
    """(sign-mixed, child, L): a sign-mixed or generic child with |Delta| < |t|."""

    def parent():
        t = draw(_sign) * draw(st.floats(0.3, 2.0))
        return ParentParams(t, draw(_sign) * draw(st.floats(0.02, 0.95)) * abs(t), 0.0)

    p1, mixed = parent(), draw(st.booleans())
    p2 = ParentParams(-p1.t, p1.delta, 0.0) if mixed else parent()
    return mixed, ChildSpec(p1, p2, PARALLEL), draw(st.integers(2, 40))


def _nearest(roots, points):
    """Distance from each point to the nearest root."""
    return np.abs(np.asarray(points)[:, None] - roots[None, :]).min(axis=1, initial=np.inf)


@settings(max_examples=30, deadline=None)
@given(case=_pencil_case())
def test_exact_zero_potentials_are_dense_zeros_and_closed_forms(case):
    mixed, child, L = case
    roots = exact_zero_potentials(child, L)
    assert np.all(np.diff(roots) > 0)
    for mu in roots:
        ev = _dense_open_levels(lattice._with_mu(child, mu, LINK_EQUAL), L)
        assert np.abs(ev).min() < 1e-10 * (ev[-1] - ev[0])
    if not mixed:
        return
    p = child.p1
    want = mkc_parallel_majorana_points(p.t, p.delta, L).mu_values
    assert _nearest(roots, want).max() < 1e-9
    # below |Delta / t| = 1/sqrt(5) (L = 3; lower for longer odd L), exact zeros
    # of the other t_x s_x sector, not in the closed forms, enter the window
    if abs(p.delta / p.t) >= 0.45:
        inside = np.abs(roots) < 2.0 * np.sqrt(p.t**2 - p.delta**2)
        assert inside.sum() == len(want)


@settings(max_examples=40, deadline=None)
@given(case=_pencil_case())
@example(case=(True, ChildSpec(ParentParams(1.0, 0.5, 0.0), ParentParams(-1.0, 0.5, 0.0), PARALLEL), 2))
@example(case=(True, ChildSpec(ParentParams(-1.3, 0.2, 0.0), ParentParams(1.3, 0.2, 0.0), PARALLEL), 5))
# two independent parents that are sign-mixed up to rounding: the cut splits them too
@example(case=(
    False,
    ChildSpec(
        ParentParams(0.30000000000000004, -0.15000000000000002, 0.0),
        ParentParams(-0.3, -0.15, 0.0),
        PARALLEL,
    ),
    2,
))
def test_exact_zero_potentials_match_whole_corner_companions(case):
    _, child, L = case
    roots, want = exact_zero_potentials(child, L), whole_corner_potentials(child, L)
    assert roots.size == want.size
    assert np.all(np.abs(roots - want) <= ROOT_MATCH * (1.0 + np.abs(want)))
    # a child whose second parent is (-t1, +-Delta1) hops by 0 and +-2 only in one
    # sector, which comes apart into its even and odd sites; every other corner is whole
    whole = [[list(range(L))]]
    pieces = [
        [sites.tolist() for sites, _, _ in corner] for corner in lattice._pencil_pieces(child, L)
    ]
    p1, p2 = child.p1, child.p2
    # sign-mixed within the cut's tolerance, SYMMETRY_TOL of the scale, not bit for bit
    tol = SYMMETRY_TOL * max(abs(p1.t), abs(p2.t))
    if abs(p2.t + p1.t) <= tol and abs(abs(p2.delta) - abs(p1.delta)) <= tol:
        even, odd = list(range(0, L, 2)), list(range(1, L, 2))
        split = [[even, odd]] if L % 2 == 0 else [[even], [odd]]
        assert sorted(pieces) == sorted([whole, split])
    else:
        # one piece per corner: the whole-corner solve, bit for bit
        assert pieces == [whole, whole]
        assert np.array_equal(roots, want)


def test_exact_zero_potentials_solves_equal_pieces_once(lapack_calls):
    # at even L the sign-mixed sector of the zeros splits into two bitwise equal
    # sublattices, so one companion of L/2 sites serves both; at odd L they differ
    child = ChildSpec(ParentParams(1.0, 0.5, 0.0), ParentParams(-1.0, 0.5, 0.0), PARALLEL)
    stacks = {30: [((1,), 60), ((1,), 30)], 31: [((1,), 62), ((1,), 32), ((1,), 30)]}
    for L, want in stacks.items():
        lapack_calls.clear()
        roots = exact_zero_potentials(child, L)
        shapes = [(stack, n) for name, _, stack, n in lapack_calls if name == "eigvals"]
        assert sorted(shapes, reverse=True) == want
        oracle = whole_corner_potentials(child, L)
        assert np.all(np.abs(roots - oracle) <= ROOT_MATCH * (1.0 + np.abs(oracle)))


def test_exact_zero_potentials_keeps_roots_of_a_one_site_piece():
    # at L = 3 the sector of the zeros is the pieces {0, 2} and {1}; the level
    # test of the 1x1 piece must not overwrite its one level, the smallest,
    # with the chain's largest, or its roots +-sqrt(1.5) go missing
    child = ChildSpec(ParentParams(1.0, -0.5, 0.0), ParentParams(-1.0, -0.5, 0.0), PARALLEL)
    want = np.array([np.sqrt(0.75), np.sqrt(1.5), 1.5, np.sqrt(13.0) / 2.0])
    roots = exact_zero_potentials(child, 3)
    assert roots == pytest.approx(np.concatenate([-want[::-1], want]), abs=1e-14)


def test_exact_zero_potentials_keeps_close_roots_of_the_two_corners():
    # one root in each t_x s_x sector, 7.9e-8 apart: each corner's smallest
    # singular value falls to zero with slope about 2 at its own root, so
    # neither is a rounding copy of the other
    child = ChildSpec(ParentParams(-0.5, 0.005, 0.0), ParentParams(0.9, 0.055, 0.0), PARALLEL)
    roots = exact_zero_potentials(child, 36)
    pair = roots[np.abs(roots - 1.7903239) < 1e-6]
    assert pair.size == 2 and 7e-8 < pair[1] - pair[0] < 9e-8
    for mu in (*pair, pair.mean()):
        ev = _dense_open_levels(lattice._with_mu(child, mu, LINK_EQUAL), 36)
        level = np.abs(ev).min() / (ev[-1] - ev[0])
        assert level < 1e-12 if mu in pair else level > 1e-9


def test_exact_zero_potentials_on_two_sites():
    # a 2-site open chain has no range-2 bond; the sign-mixed corner of the
    # t_x s_x sector that holds the zeros is (1.5 - mu^2) I there
    child = ChildSpec(ParentParams(1.0, 0.5, 0.0), ParentParams(-1.0, 0.5, 0.0), PARALLEL)
    assert exact_zero_potentials(child, 2) == pytest.approx([-np.sqrt(1.5), np.sqrt(1.5)], abs=1e-14)
    with pytest.raises(ConfigError):
        exact_zero_potentials(child, 1)


_CHILD = ChildSpec(ParentParams(1, 0.5, 0.2), ParentParams(-1, 0.5, 0.2), PARALLEL)
_PARENT = ParentParams(1.0, 0.5, 0.2)


@pytest.mark.parametrize(
    "spec, term, match",
    [
        # t_z s_0 is real and Hermitian but anticommutes with t_x s_x
        (_CHILD, np.kron(SZ, S0), "t_x s_x"),
        # t_0 s_0 commutes with t_x s_x but breaks the chiral t_0 s_x
        (_CHILD, np.kron(S0, S0), "t_0 s_x"),
        (_CHILD, np.kron(S0, SY), "not real"),
        (_PARENT, SX, "s_x"),
    ],
    ids=["child-txsx", "child-chiral", "child-imaginary", "parent-chiral"],
)
def test_chain_spectrum_rejects_symmetry_breaking_block(monkeypatch, spec, term, match):
    blocks = chain_hopping_blocks(spec)
    blocks[0] = blocks[0] + 0.3 * term
    monkeypatch.setattr(lattice, "chain_hopping_blocks", lambda _: blocks)
    with pytest.raises(SymmetryError, match=match):
        spectrum(spec, ChainLattice(6))


@pytest.mark.parametrize("spec", [_PARENT, _CHILD], ids=["parent", "child"])
def test_chain_spectrum_rejects_unpaired_hopping_block(monkeypatch, spec):
    blocks = chain_hopping_blocks(spec)
    blocks[-1] = blocks[1]  # H_{-1} != H_1^H: the pairing term flips sign
    monkeypatch.setattr(lattice, "chain_hopping_blocks", lambda _: blocks)
    with pytest.raises(NonHermitianError):
        spectrum(spec, ChainLattice(6))
    del blocks[-1]
    with pytest.raises(NonHermitianError):
        spectrum(spec, ChainLattice(6))


def test_zero_mode_density_counts_and_normalization():
    # dead point: exact edge zeros on the open chain
    p = ParentParams(1.0, 1.0, 0.0)
    lat = ChainLattice(14)
    dens = zero_subspace(p, lat, tol=1e-8)
    assert dens.count == 2
    assert dens.weights.shape == (14,)
    assert dens.weights.sum() == pytest.approx(dens.count, abs=1e-9)
    assert dens.weights[0] + dens.weights[-1] == pytest.approx(2.0, abs=1e-9)


def test_zero_mode_density_slab_shape():
    spec = ChildSpec(ParentParams(1, 1, 0), ParentParams(1, 1, 3), PERPENDICULAR)
    lat = SlabLattice(4, 5)
    dens = zero_subspace(spec, lat, tol=1e-8)
    assert dens.weights.shape == (4, 5)
    assert dens.weights.sum() == pytest.approx(dens.count, abs=1e-9)


def test_default_zero_subspace_holds_the_modes_classify_labels():
    # each end holds a pair split by ~1.5e-6, about 1.6e-7 of the bandwidth:
    # the default zero subspace and the classifier read one relative tolerance
    child = ChildSpec(ParentParams(1.0, 0.5, 0.4), ParentParams(1.0, 1.0, 0.0), PARALLEL)
    lat = ChainLattice(26)
    zs = zero_subspace(child, lat)
    assert zs.count == 4
    assert zs.tol == pytest.approx(BAND_ZERO_TOL * 2.0 * lattice.levels(child, lat)[-1], rel=1e-12)
    result = classify_zero_modes(child, lat)
    assert {region: res.labels for region, res in result.items()} == {
        "left": ("prod:00", "prod:11"), "right": ("prod:00", "prod:11"),
    }
    assert sum(res.subspace_dimension for res in result.values()) == zs.count


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_zero_tolerance_raises(tol):
    # no |E| lies below zero, so such a tolerance would silently count no zero modes
    child = ChildSpec(ParentParams(1, 1, 0), ParentParams(1, 1, 0), PARALLEL)
    assert zero_subspace(child, ChainLattice(12)).count == 4
    with pytest.raises(ConfigError, match="zero tolerance"):
        _zero_tol(1.0, tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        zero_subspace(child, ChainLattice(12), tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        zero_subspace(replace(child, orientation=PERPENDICULAR), SlabLattice(4, 5), tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        classify_zero_modes(child, ChainLattice(12), zero_tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        robustness_sweep(child, ChainLattice(12), channels=["xx"], realizations=1, zero_tol=tol)
