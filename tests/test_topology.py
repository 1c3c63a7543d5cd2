"""Wilson-loop Wannier centers and component winding numbers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import (
    WindingCurve,
    dense_wannier_parallel,
    dense_wannier_parent,
    dense_wannier_perp,
    sampled_parent_winding,
    sampled_winding_parallel,
    sampled_winding_perp,
    winding_locus_check,
    winding_number,
)
from mkc.errors import CriticalCurveError, GaplessPathError
from mkc.models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams, _modulus_bounds, _mr
from mkc.topology import (
    center_distance,
    component_winding_parallel,
    component_winding_perp,
    parent_winding,
    wannier_center_parent,
    wannier_centers_parallel,
    wannier_centers_perp,
)


@st.composite
def _gapped_parent(draw):
    """A parent whose curve stays 5% of its largest modulus, and 0.05, clear of the origin.

    At that margin and 96 or more samples no sampled angle step reaches
    pi/2, so a sampled product curve winds as the sum of its factors.
    """
    p = ParentParams(
        draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-4.0, 4.0))
    )
    d = np.hypot(*_mr(p, np.linspace(0.0, 2.0 * np.pi, 4097)))
    assume(d.min() > 0.05 * max(d.max(), 1.0))
    return p


@st.composite
def _any_parent(draw):
    """A parent of any kind, t^2 = Delta^2 included."""
    t = draw(st.floats(-2.0, 2.0))
    delta = draw(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([t, -t])))
    return ParentParams(t, delta, draw(st.floats(-4.0, 4.0)))


@settings(max_examples=300, deadline=None)
@given(p=_any_parent())
def test_largest_modulus_bounds_a_dense_sample(p):
    d = np.hypot(*_mr(p, np.linspace(0.0, 2.0 * np.pi, 4097)))
    low, high = _modulus_bounds(p)
    # k = 0 and pi are on the grid; a sample may meet the vertex only to rounding
    assert high >= d.max() - 4.0 * np.spacing(d.max())
    assert high - d.max() <= 1e-6 * high
    # |(M, R)|^2 is quadratic in cos k, and a grid step moves cos k by at
    # most 2pi/4096, so the squared sampled minimum lies within 1e-5 of
    # the squared largest modulus above the closed one
    assert low <= d.min() + 8.0 * np.spacing(high)
    assert d.min() ** 2 - low**2 <= 1e-5 * high**2


@pytest.mark.parametrize(
    "p, want",
    [
        (ParentParams(1, 0.5, 0.3), 1),
        (ParentParams(-1, 0.5, 0.3), -1),
        (ParentParams(1, -0.5, -0.3), -1),
        (ParentParams(-1, -0.5, 1.9), 1),
        (ParentParams(1, 0.5, 2.5), 0),
        (ParentParams(-1, 0.5, -2.5), 0),
    ],
)
def test_parent_winding_is_the_sign_of_t_delta_inside_the_topological_range(p, want):
    assert parent_winding(p) == want


def test_center_distance_is_circle_metric():
    assert center_distance(0.0, 1.0) == pytest.approx(0.0)
    assert center_distance(0.1, 0.9) == pytest.approx(0.2)
    assert center_distance(0.5, 0.5) == 0.0


@pytest.mark.parametrize(
    "mu, want",
    [(0.0, 0.5), (1.2, 0.5), (-1.9, 0.5), (2.4, 0.0), (-3.0, 0.0)],
)
def test_parent_wannier_center_quantized(mu, want):
    p = ParentParams(t=1.0, delta=0.5, mu=mu)
    ws = wannier_center_parent(p)
    assert ws.filling == 1
    assert center_distance(ws.centers[0], want) < 1e-8


@pytest.mark.parametrize(
    "critical",
    [
        ParentParams(1.0, 0.5, 2.0),   # closes at k = pi
        ParentParams(1.0, 0.5, -2.0),  # closes at k = 0
        ParentParams(1.0, 0.0, 0.3),   # a Delta = 0 metal, closed at cos k = -0.15
        ParentParams(1.0, 1e-13, 0.0),  # near a metal: 2e-13 from the origin at k = pi/2
    ],
)
def test_critical_parent_has_no_center(critical):
    with pytest.raises(GaplessPathError):
        wannier_center_parent(critical)
    with pytest.raises(GaplessPathError):
        wannier_centers_parallel(ChildSpec(ParentParams(1, 1, 0.3), critical, PARALLEL))
    perp = ChildSpec(ParentParams(1, 1, 0.3), critical, PERPENDICULAR)
    with pytest.raises(GaplessPathError):
        wannier_centers_perp(perp, "y", 0.3)
    # frozen at ky = 0.3, away from its closing momentum, the critical
    # parent leaves the x loop gapped
    assert center_distance(wannier_centers_perp(perp, "x", 0.3).centers, 0.5).max() == 0.0


def test_undersampled_parent_loop_reads_the_closed_form():
    # topological (winding -1), though its curve sampled at 5 points winds 0
    p = ParentParams(0.8620648185190225, -0.6291570250874932, 1.5780077134830899)
    assert sampled_parent_winding(p, 5) == 0
    assert sampled_parent_winding(p, 4096) == -1
    assert parent_winding(p) == -1
    assert wannier_center_parent(p).centers[0] == 0.5


@pytest.mark.parametrize(
    "mu1, mu2, want",
    [
        (0.3, -0.9, (0.0, 0.0)),   # both topological: pair of unit shifts
        (0.3, 3.0, (0.5, 0.5)),    # one topological
        (2.7, -3.0, (0.0, 0.0)),   # both trivial
    ],
)
def test_parallel_wannier_center_pairs(mu1, mu2, want):
    spec = ChildSpec(
        ParentParams(1.0, 0.5, mu1), ParentParams(0.8, 0.6, mu2), PARALLEL
    )
    ws = wannier_centers_parallel(spec)
    assert ws.filling == 2
    got = sorted(ws.centers)
    for g, w in zip(got, sorted(want)):
        assert center_distance(g, w) < 1e-8


def test_perp_wannier_centers_both_directions():
    spec = ChildSpec(
        ParentParams(1.0, 1.0, 0.5), ParentParams(1.0, 1.0, -0.5), PERPENDICULAR
    )
    for direction in ("x", "y"):
        ws = wannier_centers_perp(spec, direction, 0.3)
        assert len(ws.centers) == 2
        for c in ws.centers:
            assert center_distance(c, 0.5) < 1e-8
        assert direction in ws.path


def test_coarse_parallel_loop_keeps_the_pair_degenerate():
    # the parents wind -1 and +1; the 4x4 loop on 41 points mixes the
    # degenerate occupied pair and splits it into (0, 0.5)
    spec = ChildSpec(
        ParentParams(1.3324, -1.7933, 2.6208), ParentParams(1.2510, 1.6959, 1.3152), PARALLEL
    )
    assert (parent_winding(spec.p1), parent_winding(spec.p2)) == (-1, 1)
    assert center_distance(dense_wannier_parallel(spec, 41).centers, [0.0, 0.5]).max() < 1e-12
    assert center_distance(wannier_centers_parallel(spec).centers, 0.0).max() < 1e-12


@pytest.mark.parametrize(
    "p2, ky",
    [
        (ParentParams(1, 1, 2.0), np.pi),          # closes at k = pi
        (ParentParams(1, 0, 1.0), 2 * np.pi / 3),  # a Delta = 0 metal at its Fermi point
    ],
)
def test_perp_loop_with_a_vanishing_frozen_factor_raises(p2, ky):
    # the 4x4 loop reads [0.5, 0.5] off a Bloch matrix of norm ~1e-16 there
    spec = ChildSpec(ParentParams(1, 1, 0.5), p2, PERPENDICULAR)
    with pytest.raises(GaplessPathError):
        wannier_centers_perp(spec, "x", ky)
    flipped = ChildSpec(p2, ParentParams(1, 1, 0.5), PERPENDICULAR)
    with pytest.raises(GaplessPathError):
        wannier_centers_perp(flipped, "y", ky)


@settings(max_examples=60, deadline=None)
@given(
    p1=_gapped_parent(),
    p2=_gapped_parent(),
    loop_direction=st.sampled_from(["x", "y"]),
    fixed=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2.0 * np.pi)),
    R=st.integers(96, 1001),
)
def test_wannier_centers_match_dense_loop_and_windings(p1, p2, loop_direction, fixed, R):
    half = {p: parent_winding(p) / 2.0 for p in (p1, p2)}
    parent = wannier_center_parent(p1)
    assert parent.filling == 1
    assert center_distance(parent.centers, dense_wannier_parent(p1, R).centers).max() < 1e-8
    assert center_distance(parent.centers, half[p1]).max() < 1e-8

    spec = ChildSpec(p1, p2, PARALLEL)
    ws = wannier_centers_parallel(spec)
    assert ws.filling == 2
    assert center_distance(ws.centers, dense_wannier_parallel(spec, R).centers).max() < 1e-8
    assert center_distance(ws.centers, half[p1] + half[p2]).max() < 1e-8

    spec = ChildSpec(p1, p2, PERPENDICULAR)
    ws = wannier_centers_perp(spec, loop_direction, fixed)
    want = dense_wannier_perp(spec, loop_direction, fixed, R)
    assert ws.filling == 2 and ws.path == want.path
    assert center_distance(ws.centers, want.centers).max() < 1e-8
    assert center_distance(ws.centers, half[p1 if loop_direction == "x" else p2]).max() < 1e-8


def test_winding_number_synthetic_curves():
    th = np.linspace(0.0, 2 * np.pi, 501)
    assert winding_number(WindingCurve(np.sin(th), np.cos(th))) in (-1, 1)
    assert abs(winding_number(WindingCurve(np.sin(2 * th), np.cos(2 * th)))) == 2
    assert winding_number(WindingCurve(np.sin(th), np.cos(th) + 2.0)) == 0
    with pytest.raises(CriticalCurveError):
        winding_number(WindingCurve(np.sin(th), np.cos(th) + 1.0))
    with pytest.raises(ValueError):
        winding_number(WindingCurve(np.sin(th[:-1]), np.cos(th[:-1])))  # open


@pytest.mark.parametrize(
    "p1, p2, want",
    [
        (ParentParams(1, 1, 0.4), ParentParams(1, 1, 0.4), (2, 0)),
        (ParentParams(1, 0.5, 0.3), ParentParams(0.8, 0.6, -0.9), (2, 0)),
        (ParentParams(-1, 0.5, 0.3), ParentParams(1, 0.5, 0.3), (0, -2)),
        (ParentParams(1, 0.5, 0.3), ParentParams(1, 0.5, 3.0), (1, 1)),
        (ParentParams(1, 0.5, 2.7), ParentParams(1, 0.5, -3.0), (0, 0)),
    ],
)
def test_component_winding_parallel_cases(p1, p2, want):
    assert component_winding_parallel(ChildSpec(p1, p2, PARALLEL)) == want


def test_total_winding_counts_edge_pairs():
    # each edge hosts two Majorana pairs whenever at least one parent is
    # topological, and none otherwise; the split across components varies
    both = ChildSpec(ParentParams(1, 1, 0.4), ParentParams(1, 1, 0.4), PARALLEL)
    one = ChildSpec(ParentParams(1, 0.5, 0.3), ParentParams(1, 0.5, 3.0), PARALLEL)
    none = ChildSpec(ParentParams(1, 0.5, 2.7), ParentParams(1, 0.5, -3.0), PARALLEL)
    for spec, n in ((both, 2), (one, 2), (none, 0)):
        w1, w2 = component_winding_parallel(spec)
        assert abs(w1 + w2) == n


def test_component_winding_perp_quantized_curves():
    spec = ChildSpec(
        ParentParams(1, 1, 3.0), ParentParams(1, 1, 3.0), PERPENDICULAR
    )
    table = component_winding_perp(spec, 4, 5)
    assert len(table["rows"]) == 5 and len(table["columns"]) == 4
    for rec in table["rows"] + table["columns"]:
        assert rec["w1"] == rec["w2"] == 0  # fully trivial slab


def test_component_winding_perp_critical_curve_raises():
    # a gapless quantized curve must refuse a winding, not fake one
    # a critical first parent kills the child at kx = 0 on every curve
    spec = ChildSpec(
        ParentParams(1, 1, -2.0), ParentParams(1, 1, 0.3), PERPENDICULAR
    )
    with pytest.raises(CriticalCurveError):
        component_winding_perp(spec, 4, 5)


@settings(max_examples=200, deadline=None)
@given(
    p1=_gapped_parent(),
    p2=_gapped_parent(),
    Lx=st.integers(3, 9),
    Ly=st.integers(3, 9),
    samples=st.builds(lambda half, odd: 2 * half + odd, st.integers(48, 512), st.integers(0, 1)),
)
def test_child_windings_match_sampled_product_curves(p1, p2, Lx, Ly, samples):
    for p in (p1, p2):
        assert parent_winding(p) == sampled_parent_winding(p, samples)
    perp = ChildSpec(p1, p2, PERPENDICULAR)
    assert component_winding_perp(perp, Lx, Ly) == sampled_winding_perp(perp, Lx, Ly, samples)
    parallel = ChildSpec(p1, p2, PARALLEL)
    assert component_winding_parallel(parallel) == sampled_winding_parallel(parallel, samples)


@pytest.mark.parametrize(
    "p",
    [
        ParentParams(1, 0, 0.3),     # a Delta = 0 metal
        ParentParams(1, 0, 0.0),
        ParentParams(1, 0, -2.0),    # a Delta = 0 chain at its band edge
        ParentParams(1, 1, 2.0),     # closes at k = pi
        ParentParams(-1, 0.5, 2.0),  # closes at k = 0
        ParentParams(1, 1, -2.0),
        ParentParams(0, 1, 0.0),     # no hopping: closes at k = 0 and pi
    ],
)
def test_gapless_parent_raises_at_every_sample_count(p):
    # nothing is sampled, so no grid can step over the closing momentum
    with pytest.raises(CriticalCurveError):
        parent_winding(p)


def test_insulating_delta_zero_parent_has_zero_winding():
    assert parent_winding(ParentParams(1, 0, 2.5)) == 0


@pytest.mark.parametrize(
    "p2",
    [
        ParentParams(1, 1, 2.0),     # a gapless second parent
        # gapped, but its factor nearly vanishes at the row ky = pi/2, which
        # the kx loops freeze
        ParentParams(1, 1e-13, 0.0),
    ],
)
def test_perpendicular_child_with_a_vanishing_factor_raises(p2):
    with pytest.raises(CriticalCurveError):
        component_winding_perp(ChildSpec(ParentParams(1, 1, 0.5), p2, PERPENDICULAR), 4, 4)


def test_parallel_child_with_a_gapless_parent_raises():
    spec = ChildSpec(ParentParams(1, 1, 0.5), ParentParams(1, 1, 2.0), PARALLEL)
    with pytest.raises(CriticalCurveError):
        component_winding_parallel(spec)


def test_winding_locus_check():
    spec = ChildSpec(
        ParentParams(1, 1, 0.3), ParentParams(1, 1, 0.3), PERPENDICULAR
    )
    resid = winding_locus_check(spec, 0.7)
    assert resid < 1e-9
