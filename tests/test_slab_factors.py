"""Factorized slab solver against the dense reference eigh(build_slab(...)).

The perpendicular slab is a reordered tensor product of two parent chains,
so lattice.zero_subspace solves it as the two chains.  These tests hold the
factor path to the dense solve of the full slab matrix: spectra, zero
counts, zero-subspace projectors, densities and classification labels,
never single eigenvectors.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mkc import boundary
from mkc.boundary import (
    classify_zero_modes,
    kc_majorana_points,
    mmzm_classify,
    perp_obc_gapless_points,
)
from mkc.errors import ConfigError
from mkc.lattice import (
    OPEN,
    PERIODIC,
    SlabLattice,
    build_slab,
    build_slab_factors,
    dense_zero_subspace,
    zero_subspace,
)
from mkc.models import PERPENDICULAR, ChildSpec, ParentParams

_sign = st.sampled_from([-1.0, 1.0])


@st.composite
def _parent(draw, L):
    """A random, critical, degenerate or near-degenerate parent for L sites."""
    kind = draw(st.sampled_from(["random", "critical", "sweet", "near-sweet", "point"]))
    t = draw(_sign) * draw(st.floats(0.3, 2.0))
    delta = draw(_sign) * draw(st.floats(0.2, 1.5))
    if kind == "random":
        return ParentParams(t, delta, draw(st.floats(-3.0, 3.0)))
    if kind == "critical":
        return ParentParams(t, delta, draw(_sign) * 2.0 * abs(t))
    if kind == "sweet":
        # |t| = |Delta|, mu = 0: flat bands and exact end zeros
        return ParentParams(t, draw(_sign) * abs(t), 0.0)
    if kind == "near-sweet":
        # a small mu splits the end pair by about 2|t| (mu / 2t)^L; the
        # splittings span the slab zero tolerance, alone and in products
        split = 10.0 ** draw(st.floats(-9.0, -2.0))
        mu = draw(_sign) * 2.0 * abs(t) * split ** (1.0 / L)
        return ParentParams(t, draw(_sign) * abs(t), mu)
    # an exact end-zero potential of the L-site chain
    points = kc_majorana_points(ParentParams(t, delta, 0.0), L).mu_values
    return ParentParams(t, delta, points[draw(st.integers(0, len(points) - 1))])


@st.composite
def _slab_case(draw):
    Lx, Ly = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    bc = st.sampled_from([OPEN, PERIODIC])
    lat = SlabLattice(Lx, Ly, bcx=draw(bc), bcy=draw(bc))
    spec = ChildSpec(draw(_parent(Lx)), draw(_parent(Ly)), PERPENDICULAR)
    return spec, lat


def _dense_solver(spec, lat, tol=None, rel_tol=1e-8):
    return dense_zero_subspace(build_slab(spec, lat), lat, tol, rel_tol)


def _classify(solver, spec, lat, scale=1.0):
    """classify_zero_modes on the given solver, or the ConfigError it raises.

    scale multiplies every decision threshold of the classification: the
    site and rank tolerances, the entropy tolerance and 1 - overlap_min.
    """
    mmzm = functools.partial(
        mmzm_classify, entropy_tol=1e-6 * scale, overlap_min=1.0 - 1e-3 * scale
    )
    with mock.patch.object(boundary, "zero_subspace", solver), mock.patch.object(
        boundary, "mmzm_classify", mmzm
    ):
        try:
            return classify_zero_modes(spec, lat, site_tol=1e-6 * scale, rank_tol=1e-6 * scale)
        except ConfigError as exc:
            return type(exc)


def _decisions(result):
    if not isinstance(result, dict):
        return result
    return {
        region: (res.labels, res.subspace_dimension, res.matches_table, res.row_complete)
        for region, res in result.items()
    }


def _basis(zs, lat):
    """All site spinors stacked into the (4 Lx Ly, count) basis matrix."""
    return np.concatenate(
        [zs.spinors((ix, iy)) for ix in range(lat.Lx) for iy in range(lat.Ly)]
    )


def _well_posed(ev, tol):
    """No eigenvalue sits within rounding reach of the zero tolerance."""
    return bool(np.all(np.abs(np.abs(ev) - tol) > 1e-3 * tol))


def test_slab_is_reordered_kronecker_product_of_factor_chains():
    spec = ChildSpec(
        ParentParams(0.7, -1.1, 0.4), ParentParams(-1.3, 0.6, 2.5), PERPENDICULAR
    )
    for bcx in (OPEN, PERIODIC):
        for bcy in (OPEN, PERIODIC):
            lat = SlabLattice(4, 5, bcx=bcx, bcy=bcy)
            hx, hy = build_slab_factors(spec, lat)
            assert hx.shape == (8, 8) and hy.shape == (10, 10)
            kron = np.kron(hx, hy).reshape(4, 2, 5, 2, 4, 2, 5, 2)
            permuted = kron.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(80, 80)
            assert np.max(np.abs(permuted - build_slab(spec, lat))) < 1e-14


_TIGHT_CLUSTER = (
    ChildSpec(
        ParentParams(-1.0, -1.0, -0.09283177667225559),
        ParentParams(-1.0, -1.0, -0.09283177667225559),
        PERPENDICULAR,
    ),
    SlabLattice(6, 6),
)


@settings(max_examples=80, deadline=None)
@given(_slab_case())
@example(_TIGHT_CLUSTER)
def test_factor_path_matches_dense_slab(case):
    spec, lat = case
    fast = zero_subspace(spec, lat)
    dense = _dense_solver(spec, lat)
    spread = float(dense.eigenvalues[-1] - dense.eigenvalues[0])
    assert np.max(np.abs(fast.eigenvalues - dense.eigenvalues)) <= 1e-12 * max(spread, 1.0)
    assert fast.tol == pytest.approx(dense.tol, rel=1e-12)

    assume(_well_posed(dense.eigenvalues, dense.tol))
    assert fast.count == dense.count
    if fast.count:
        b = _basis(fast, lat)
        assert np.max(np.abs(b.conj().T @ b - np.eye(fast.count))) < 1e-12
        # Davis-Kahan: the projector moves by the rounding error over the
        # gap.  Dense eigenvectors inside a tight cluster can lose
        # orthogonality (to 4e-11 in _TIGHT_CLUSTER), so the dense span is
        # orthonormalized before it becomes a projector.
        ev = np.abs(dense.eigenvalues)
        gap = ev[ev >= dense.tol].min(initial=np.inf) - ev[ev < dense.tol].max()
        proj_tol = 1e-12 * max(spread, 1.0) / gap + 1e-12
        q = np.linalg.qr(_basis(dense, lat))[0]
        p_dense = q @ q.conj().T
        assert np.max(np.abs(b @ b.conj().T - p_dense)) <= proj_tol
        dens_dense = np.real(np.diag(p_dense)).reshape(lat.Lx, lat.Ly, 4).sum(axis=-1)
        assert np.max(np.abs(fast.weights - dens_dense)) <= proj_tol
    assert fast.weights.sum() == pytest.approx(fast.count, abs=1e-9)

    # classify reads the zero subspace at 1e-6 of the bandwidth
    assume(_well_posed(dense.eigenvalues, 1e-6 * spread))
    got = _classify(zero_subspace, spec, lat)
    # a decision that a 0.1% change of its own threshold flips is ill-posed:
    # rounding alone may send it either way
    assume(all(
        _decisions(_classify(zero_subspace, spec, lat, scale)) == _decisions(got)
        for scale in (0.999, 1.001)
    ))
    want = _classify(_dense_solver, spec, lat)
    assert _decisions(got) == _decisions(want)
    if isinstance(want, dict):
        for region, res in want.items():
            for g, w in zip(got[region].states, res.states):
                assert g.entropy == pytest.approx(w.entropy, abs=1e-9)
                assert g.overlap == pytest.approx(w.overlap, abs=1e-9)


def test_product_of_two_nonzero_factor_levels_counts_as_zero():
    # near the sweet spot each 6-site chain splits its end pair by ~1e-6:
    # neither factor has a level below the slab tolerance, their product does
    spec = ChildSpec(
        ParentParams(1.0, 1.0, 0.2), ParentParams(1.0, 1.0, -0.2), PERPENDICULAR
    )
    lat = SlabLattice(6, 6)
    fast = zero_subspace(spec, lat)
    hx, hy = build_slab_factors(spec, lat)
    low_x = np.abs(np.linalg.eigvalsh(hx)).min()
    low_y = np.abs(np.linalg.eigvalsh(hy)).min()
    assert low_x > fast.tol and low_y > fast.tol
    assert low_x * low_y < fast.tol
    assert fast.count == 4
    ev = np.linalg.eigvalsh(build_slab(spec, lat))
    assert (np.abs(ev) < fast.tol).sum() == 4
    dense = _dense_solver(spec, lat)
    assert np.max(np.abs(fast.weights - dense.weights)) < 1e-9


def test_gapless_point_quartets_follow_from_factor_kernels():
    # 20x50 is out of reach of the dense path inside the test budget.  At
    # Delta = 0.1 t the 50-site chain's end splitting stays far above the
    # tolerance (at Delta = 0.5 t it drops to ~1e-12 and adds near-zero
    # products that are not gap closings).
    Lx, Ly, tol = 20, 50, 1e-8
    spec0 = ChildSpec(
        ParentParams(1.0, 0.1, 0.0), ParentParams(1.0, 0.1, 0.0), PERPENDICULAR
    )
    points = perp_obc_gapless_points(spec0, Lx, Ly)
    assert sorted(set(points.degeneracies)) == [Lx, Ly, Lx + Ly - 1]
    lat = SlabLattice(Lx, Ly)
    for mu, deg in zip(points.mu_values, points.degeneracies):
        spec = ChildSpec(
            ParentParams(1.0, 0.1, mu), ParentParams(1.0, 0.1, mu), PERPENDICULAR
        )
        zs = zero_subspace(spec, lat, tol=tol)
        assert zs.count == 4 * deg
        ev = np.abs(zs.eigenvalues)
        assert ev[ev >= tol].min() > 100.0 * tol
