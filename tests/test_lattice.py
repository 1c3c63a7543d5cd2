"""Chiral-corner chain solver against dense references, and parameter sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_reference import (
    build_chain,
    build_slab,
    classify_with,
    decisions,
    dense_levels,
    dense_solver,
    diagonalize,
    well_posed,
    whole_corner_potentials,
    zero_basis,
)
from mkc import lattice
from mkc.boundary import classify_zero_modes, mkc_parallel_majorana_points
from mkc.disorder import robustness_sweep
from mkc.errors import ConfigError, NonHermitianError, SymmetryError
from mkc.lattice import (
    LINK_EQUAL,
    OPEN,
    PERIODIC,
    ROOT_MATCH,
    ChainLattice,
    SlabLattice,
    _zero_tol,
    chain_hopping_blocks,
    chain_spectrum,
    exact_zero_potentials,
    low_energy_vs_length,
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
    parent_bloch,
)

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
        assert rows[2]["obc"] == pytest.approx(list(want), abs=1e-12)
        assert rows[2]["pbc"].shape == want.shape


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
    rows = low_energy_vs_length(spec, range(4, 9, 2), n_modes=4)
    assert [r["L"] for r in rows] == [4, 6, 8]
    for r in rows:
        assert r["modes"].shape == (4,)
        assert r["splitting"] >= 0.0


def test_low_energy_vs_length_matches_dense_magnitudes():
    # odd n_modes splits a +-E pair, whose member is picked by |E| ties
    spec = ChildSpec(ParentParams(1, 0.5, 0.2), ParentParams(-1, 0.5, 0.2), PARALLEL)
    for n_modes in (3, 4):
        for bc in (OPEN, PERIODIC):
            rows = low_energy_vs_length(spec, range(3, 9), bc=bc, n_modes=n_modes)
            for r in rows:
                ev = np.linalg.eigvalsh(build_chain(spec, ChainLattice(r["L"], bc)))
                want = np.sort(np.abs(ev))[:n_modes]
                assert np.sort(np.abs(r["modes"])) == pytest.approx(want, abs=1e-12)
                half = ev.size // 2
                assert r["splitting"] == pytest.approx(ev[half] - ev[half - 1], abs=1e-12)


_sign = st.sampled_from([-1.0, 1.0])


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
def _chain_system(draw):
    """(model, lattice): a parent, a child or a sign-mixed (t2 = -t1) child."""
    p1 = draw(_parent())
    lat = ChainLattice(draw(st.integers(3, 12)), draw(st.sampled_from([OPEN, PERIODIC])))
    kind = draw(st.sampled_from(["parent", "child", "sign-mixed"]))
    if kind == "parent":
        return p1, lat
    p2 = draw(_parent()) if kind == "child" else ParentParams(-p1.t, p1.delta, p1.mu)
    return ChildSpec(p1, p2, PARALLEL), lat


@settings(max_examples=150, deadline=None)
@given(system=_chain_system())
# a flat-band parent whose complex eigvalsh level is off by 5e-5 (dense_levels)
@example((ParentParams(-0.9921875, -0.9921875, 8.6e-161), ChainLattice(3, OPEN)))
def test_chain_spectrum_matches_dense(system):
    spec, lat = system
    dense = dense_levels(build_chain(spec, lat))
    fast = chain_spectrum(spec, lat)
    assert fast.shape == dense.shape
    assert np.abs(fast - dense).max() < 1e-12 * max(np.abs(dense).max(), 1.0)
    bw = float(dense[-1] - dense[0])
    tol = _zero_tol(bw, None, 1e-8)
    # a level within rounding of the zero tolerance may count either way
    assume(np.all(np.abs(np.abs(dense) - tol) > 1e-9 * bw))
    assert (np.abs(fast) < tol).sum() == (np.abs(dense) < tol).sum()


@settings(max_examples=150, deadline=None)
@given(p1=_parent(), p2=_parent(), child=st.booleans(), L=st.integers(2, 40))
def test_periodic_corner_levels_match_corner_svd(p1, p2, child, L):
    spec = ChildSpec(p1, p2, PARALLEL) if child else p1
    lat = ChainLattice(max(L, 3) if child else L, PERIODIC)
    for corner, _, _ in lattice._chiral_corners(chain_hopping_blocks(spec), lat):
        want = np.linalg.svd(corner, compute_uv=False)
        got = np.sort(lattice._corner_levels(corner, PERIODIC))[::-1]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(want[0], 1.0)


@st.composite
def _sweep_case(draw):
    """(template, link, lattice, grid): L down to the minimum, grid through mu = +-2t."""
    p1 = draw(_parent())
    template = p1 if draw(st.booleans()) else ChildSpec(p1, draw(_parent()), PARALLEL)
    child = isinstance(template, ChildSpec)
    link = draw(st.sampled_from([LINK_EQUAL, "opposite", "fixed"]))
    lat = ChainLattice(draw(st.integers(3 if child else 2, 12)), OPEN)
    ts = (p1.t, template.p2.t) if child else (p1.t,)
    grid = [draw(st.floats(-3.0, 3.0))] + [s * 2.0 * t for t in ts for s in (-1.0, 1.0)]
    return template, link, lat, grid


@settings(max_examples=100, deadline=None)
@given(case=_sweep_case())
def test_spectrum_vs_mu_matches_dense(case):
    template, link, lat, grid = case
    rows = spectrum_vs_mu(template, grid, link, lat)
    assert [r["mu"] for r in rows] == grid
    for row in rows:
        spec = lattice._with_mu(template, row["mu"], link)
        for key, bc in (("obc", OPEN), ("pbc", PERIODIC)):
            dense = dense_levels(build_chain(spec, replace(lat, bc=bc)))
            assert row[key].shape == dense.shape
            assert np.abs(row[key] - dense).max() < 1e-12 * max(np.abs(dense).max(), 1.0)


@settings(max_examples=150, deadline=None)
@given(system=_chain_system())
def test_chain_zero_subspace_matches_dense(system):
    spec, lat = system
    fast = zero_subspace(spec, lat)
    dense = dense_solver(spec, lat)
    spread = float(dense.eigenvalues[-1] - dense.eigenvalues[0])
    assert np.max(np.abs(fast.eigenvalues - dense.eigenvalues)) <= 1e-12 * max(spread, 1.0)
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
    if p2.t == -p1.t and abs(p2.delta) == abs(p1.delta):
        even, odd = list(range(0, L, 2)), list(range(1, L, 2))
        split = [[even, odd]] if L % 2 == 0 else [[even], [odd]]
        assert sorted(pieces) == sorted([whole, split])
    else:
        # one piece per corner: the whole-corner solve, bit for bit
        assert pieces == [whole, whole]
        assert np.array_equal(roots, want)


def test_exact_zero_potentials_solves_equal_pieces_once(monkeypatch):
    # at even L the sign-mixed sector of the zeros splits into two bitwise equal
    # sublattices, so one companion of L/2 sites serves both; at odd L they differ
    child = ChildSpec(ParentParams(1.0, 0.5, 0.0), ParentParams(-1.0, 0.5, 0.0), PARALLEL)
    shapes, eigvals = [], np.linalg.eigvals

    def counted(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    stacks = {30: [(1, 60, 60), (1, 30, 30)], 31: [(1, 62, 62), (1, 32, 32), (1, 30, 30)]}
    for L, want in stacks.items():
        shapes.clear()
        roots = exact_zero_potentials(child, L)
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
        chain_spectrum(spec, ChainLattice(6))


@pytest.mark.parametrize("spec", [_PARENT, _CHILD], ids=["parent", "child"])
def test_chain_spectrum_rejects_unpaired_hopping_block(monkeypatch, spec):
    blocks = chain_hopping_blocks(spec)
    blocks[-1] = blocks[1]  # H_{-1} != H_1^H: the pairing term flips sign
    monkeypatch.setattr(lattice, "chain_hopping_blocks", lambda _: blocks)
    with pytest.raises(NonHermitianError):
        chain_spectrum(spec, ChainLattice(6))
    del blocks[-1]
    with pytest.raises(NonHermitianError):
        chain_spectrum(spec, ChainLattice(6))


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_zero_tolerance_raises(tol):
    # no |E| lies below zero, so such a tolerance would silently count no zero modes
    child = ChildSpec(ParentParams(1, 1, 0), ParentParams(1, 1, 0), PARALLEL)
    assert zero_subspace(child, ChainLattice(12)).count == 4
    with pytest.raises(ConfigError, match="zero tolerance"):
        _zero_tol(1.0, tol, 1e-6)
    with pytest.raises(ConfigError, match="zero tolerance"):
        zero_subspace(child, ChainLattice(12), tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        zero_subspace(replace(child, orientation=PERPENDICULAR), SlabLattice(4, 5), tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        classify_zero_modes(child, ChainLattice(12), zero_tol=tol)
    with pytest.raises(ConfigError, match="zero tolerance"):
        robustness_sweep(child, ChainLattice(12), channels=["xx"], realizations=1, zero_tol=tol)
