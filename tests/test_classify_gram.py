"""The Gram-matrix classification against its wide-SVD oracle, and its LAPACK budget.

classify_zero_modes reads each region's spinor content from a 4x4 Gram
matrix, peels reference states off a 4x4 projector and takes entropies in
closed form, all regions at once as one stack.  svd_classify_zero_modes in
dense_reference does the same region by region, by the wide SVD of the
per-site spinor stack, an SVD per peeled reference and a 2x2 SVD per
entropy; the two must reach the same decisions.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import (
    decisions,
    orthonormal_columns,
    peak_site_stacks,
    reference_vector,
    svd_classify_zero_modes,
    svd_entropy,
    svd_mmzm_classify,
)
from mkc import boundary
from mkc.boundary import (
    BELL_VECTORS,
    CLASSIFICATION_FRAME,
    PRODUCT_VECTORS,
    classify_zero_modes,
    kc_majorana_points,
    tau_sigma_entropy,
)
from mkc.errors import ConfigError
from mkc.lattice import OPEN, PERIODIC, ChainLattice, SlabLattice, zero_subspace
from mkc.models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams

RANK_TOL = 1e-6
RNG = np.random.default_rng(20261019)

_sign = st.sampled_from([-1.0, 1.0])
_bc = st.sampled_from([OPEN, PERIODIC])


@st.composite
def _parent(draw, L):
    """A parent for L sites; the dead point |t| = |Delta|, mu = 0 half the time."""
    kind = draw(st.sampled_from(["dead", "dead", "dead", "random", "point", "near-dead"]))
    t = draw(_sign) * draw(st.floats(0.3, 2.0))
    if kind == "dead":
        return ParentParams(t, draw(_sign) * abs(t), 0.0)
    if kind == "near-dead":
        return ParentParams(t, draw(_sign) * abs(t), draw(st.floats(-0.3, 0.3)))
    delta = draw(_sign) * draw(st.floats(0.2, 1.5))
    if kind == "random":
        return ParentParams(t, delta, draw(st.floats(-3.0, 3.0)))
    # an exact end-zero potential of the L-site chain
    points = kc_majorana_points(ParentParams(t, delta, 0.0), L).mu_values
    return ParentParams(t, delta, points[draw(st.integers(0, len(points) - 1))])


@st.composite
def _chain_case(draw):
    L = draw(st.integers(3, 14))
    spec = ChildSpec(draw(_parent(L)), draw(_parent(L)), PARALLEL)
    return spec, ChainLattice(L, draw(_bc))


@st.composite
def _slab_case(draw):
    Lx, Ly = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    spec = ChildSpec(draw(_parent(Lx)), draw(_parent(Ly)), PERPENDICULAR)
    return spec, SlabLattice(Lx, Ly, bcx=draw(_bc), bcy=draw(_bc))


def _outcome(classify, spec, lat):
    try:
        return classify(spec, lat)
    except ConfigError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_chain_case(), _slab_case()))
def test_gram_classification_matches_svd_oracle(case):
    spec, lat = case
    zs = zero_subspace(spec, lat, rel_tol=1e-6)
    if zs.count:
        for stack in peak_site_stacks(zs, lat).values():
            ratio = np.linalg.svd(stack, compute_uv=False) ** 2
            ratio /= ratio[0]
            # the Gram matrix squares each singular value's ratio to the
            # leading one; its rounding reaches about 1e-16 of that leading
            # value, so a squared ratio that close to the cut is ill-posed
            assume(np.all(np.abs(ratio - RANK_TOL**2) > 1e-14))
    got = _outcome(classify_zero_modes, spec, lat)
    want = _outcome(svd_classify_zero_modes, spec, lat)
    assert decisions(got) == decisions(want)
    if isinstance(want, dict):
        for region, res in want.items():
            for g, w in zip(got[region].states, res.states, strict=True):
                assert abs(g.entropy - w.entropy) <= 1e-12
                assert abs(g.overlap - w.overlap) <= 1e-12


def _product(a, b):
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


def _random_complex(n):
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def _entropy_vectors():
    """Random, near-product (|det| down to 1e-12) and near-Bell complex 4-vectors."""
    vecs = [_random_complex(4) for _ in range(40)]
    for eps in np.logspace(-12.0, -1.0, 12):
        for _ in range(3):
            prod = _product(_random_complex(2), _random_complex(2))
            vecs.append(prod + eps * _random_complex(4))
            # a local unitary keeps a Bell state maximally entangled
            u = np.linalg.qr(_random_complex(4).reshape(2, 2))[0]
            v = np.linalg.qr(_random_complex(4).reshape(2, 2))[0]
            bell = np.kron(u, v) @ BELL_VECTORS["00+11"]
            vecs.append(bell + eps * _random_complex(4))
    vecs += [_product(_random_complex(2), _random_complex(2)) for _ in range(5)]
    vecs += [np.eye(4)[k] * 3.0 for k in range(4)] + list(BELL_VECTORS.values())
    return vecs


def test_closed_form_entropy_matches_svd_formula():
    # exact products included: -(1 log 1) is -0.0, which the CSV prints as -0
    for vec in _entropy_vectors():
        got = tau_sigma_entropy(vec)
        assert math.copysign(1.0, got) > 0.0
        assert got <= math.log(2.0) + 1e-15
        assert abs(got - svd_entropy(vec)) <= 1e-12


# the benchmark's three 12x30 slab phases: x-edges, y-edges, perimeter
_SLAB_PHASES = [(0.0, 3.0), (3.0, 0.0), (0.0, 0.0)]


@pytest.mark.parametrize("mu1, mu2", _SLAB_PHASES, ids=["x-edges", "y-edges", "perimeter"])
def test_slab_classify_factors_no_matrix_beyond_4x4_and_the_corners(mu1, mu2, lapack_calls):
    spec = ChildSpec(ParentParams(1.0, 1.0, mu1), ParentParams(1.0, 1.0, mu2), PERPENDICULAR)
    lat = SlabLattice(12, 30)
    zero_subspace(spec, lat, tol=1e-8)
    corners = list(lapack_calls)
    lapack_calls.clear()
    out = classify_zero_modes(spec, lat, zero_tol=1e-8)
    assert out and all(res.matches_table for res in out.values())
    # the factor chains' corners take one svd each, none larger than its chain
    assert corners and all(
        name == "svd" and stack == () and n <= max(lat.Lx, lat.Ly) for name, _, stack, n in corners
    )
    assert lapack_calls[: len(corners)] == corners
    # one svd of the four quadrants' Gram stack and one orthonormalization
    # of their content; a peel that leaves directions would add a third
    assert [(name, stack, n) for name, _, stack, n in lapack_calls[len(corners):]] == [
        ("svd", (4,), 4),
        ("svd", (4,), 4),
    ]


def _stack(*regions):
    """Regions' raw spinor columns, zero-padded side by side into one (R, 4, 4) stack."""
    out = np.zeros((len(regions), 4, 4), complex)
    for r, cols in enumerate(regions):
        out[r, :, : len(cols)] = np.transpose(cols)
    return out


def _frame(*coords):
    """Raw spinors whose classification-frame coordinates are the given vectors."""
    return [CLASSIFICATION_FRAME @ np.asarray(c, dtype=complex) for c in coords]


def test_stacked_regions_classify_as_they_do_alone():
    # unequal ranks (1 and 3, as in the slab's edge and perimeter phases), a
    # span whose peel accepts nothing, and one whose peel leaves a direction
    other = np.array([0.0, 0.6, 0.8j, 0.0])
    prod = dict(PRODUCT_VECTORS)
    regions = [
        _frame(BELL_VECTORS["01+10"]),
        _frame(prod["00"], prod["11"], BELL_VECTORS["01-10"]),
        list(_random_complex(4) for _ in range(2)),
        _frame(prod["00"] + other, prod["00"] - other),
    ]
    rows = [("bell:01+10", "bell:00-11"), ("bell:01-10", "prod:00", "prod:11"), (), ()]
    stacked = boundary._classify_stack(_stack(*regions), rows)
    assert [res.subspace_dimension for res in stacked] == [1, 3, 2, 2]
    assert stacked[0].labels == ("bell:01+10",)
    assert stacked[1].labels == ("prod:00", "prod:11", "bell:01-10")
    assert stacked[3].labels == ("prod:00", "unclassified")
    for r, (cols, row) in enumerate(zip(regions, rows)):
        alone = boundary._classify_stack(_stack(cols), [row])[0]
        assert alone.labels == stacked[r].labels
        assert (alone.matches_table, alone.row_complete) == (
            stacked[r].matches_table, stacked[r].row_complete
        )
        for a, s in zip(alone.states, stacked[r].states, strict=True):
            assert np.array_equal(a.vector, s.vector)
            assert (a.entropy, a.overlap) == (s.entropy, s.overlap)
        want = svd_mmzm_classify(np.transpose(cols), row)
        assert decisions({0: stacked[r]}) == decisions({0: want})
        for s, w in zip(stacked[r].states, want.states, strict=True):
            assert abs(s.entropy - w.entropy) <= 1e-12
            assert abs(s.overlap - w.overlap) <= 1e-12
    assert stacked[0].row_complete is False and stacked[1].matches_table
    # the generic span is kept as its orthonormalized frame columns, each
    # up to the phase that the padded stack's svd gives it
    ct = CLASSIFICATION_FRAME.conj().T @ orthonormal_columns(np.transpose(regions[2]))
    for k, s in enumerate(stacked[2].states):
        assert abs(abs(np.vdot(ct[:, k], s.vector)) - 1.0) <= 1e-12


def test_region_without_density_is_left_out():
    spec = ChildSpec(ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PARALLEL)
    lat = ChainLattice(8)

    def right_end_only(*args, **kwargs):
        zs = zero_subspace(*args, **kwargs)
        return replace(zs, weights=np.where(np.arange(lat.L) < lat.L // 2, 0.0, zs.weights))

    full = classify_zero_modes(spec, lat)
    with mock.patch.object(boundary, "zero_subspace", right_end_only):
        got = classify_zero_modes(spec, lat)
    assert set(full) == {"left", "right"} and set(got) == {"right"}
    assert decisions(got)["right"] == decisions(full)["right"]
    for g, f in zip(got["right"].states, full["right"].states, strict=True):
        assert np.array_equal(g.vector, f.vector)


def test_every_catalogue_row_is_orthonormal():
    rows = [*boundary._FIRST_TOPO_ROWS.values(), *boundary._SECOND_TOPO_ROWS.values()]
    rows += [row for pair in boundary._BOTH_TOPO_ROWS.values() for row in pair]
    assert set(rows) | {()} == set(boundary._ROW_TABLES)
    for row in rows:
        refs = np.stack([reference_vector(label) for label in row])
        assert np.linalg.norm(refs @ refs.T - np.eye(len(row))) <= 1e-15
        table = boundary._ROW_TABLES[row]
        assert np.array_equal(table[: len(row)], refs) and not table[len(row):].any()
