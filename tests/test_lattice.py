"""Real-space builders, diagonalization contract, and parameter sweeps."""

import numpy as np
import pytest

from mkc.errors import NonHermitianError
from mkc.lattice import (
    OPEN,
    PERIODIC,
    ChainLattice,
    SlabLattice,
    build_chain,
    build_slab,
    diagonalize,
    degeneracy_count,
    low_energy_vs_length,
    spectrum_vs_mu,
    zero_subspace,
)
from mkc.models import (
    PARALLEL,
    PERPENDICULAR,
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


def test_degeneracy_count():
    p = ParentParams(1.0, 1.0, 0.0)
    lat = ChainLattice(10)
    s = diagonalize(build_chain(p, lat))
    assert degeneracy_count(s, 0.0, 1e-8) == 2
    with pytest.raises(ValueError):
        degeneracy_count(s, 0.0, 0.0)
