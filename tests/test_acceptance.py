"""Acceptance gate: one test per headline capability, at stated tolerances.

Each test carries its own wall-clock budget; together they cover bulk
spectra, symmetries, invariants, exact zero-mode loci, boundary-state
structure, disorder verdicts and critical scaling.
"""

import time

import numpy as np
import pytest

from dense_reference import block_diagonalize, build_chain, build_slab, component_bloch
from mkc.analytic import analytic_mmzm_density, energy_scaling_near_critical
from mkc.boundary import (
    classify_zero_modes,
    expected_boundary_states,
    kc_majorana_points,
    mkc_parallel_majorana_points,
    perp_obc_gapless_points,
)
from mkc.disorder import CHILD_CHANNELS, robustness_sweep
from mkc.lattice import ChainLattice, SlabLattice, zero_subspace
from mkc.models import (
    ChildSpec,
    ParentParams,
    child_bloch,
    dispersion_parallel,
    group_velocity_perp,
    symmetry_check,
)
from mkc.topology import (
    center_distance,
    component_winding_parallel,
    component_winding_perp,
    wannier_centers_parallel,
    wannier_centers_perp,
)

RNG = np.random.default_rng(771)


def _clock(budget):
    start = time.perf_counter()

    def check():
        assert time.perf_counter() - start < budget

    return check


def _random_parent(mu_span=3.0):
    t = RNG.choice([-1.0, 1.0]) * RNG.uniform(0.4, 1.6)
    d = RNG.choice([-1.0, 1.0]) * RNG.uniform(0.3, 1.5)
    return ParentParams(t=t, delta=d, mu=RNG.uniform(-mu_span, mu_span))


def _random_child(orientation="parallel"):
    return ChildSpec(p1=_random_parent(), p2=_random_parent(), orientation=orientation)


def _child(mu1, mu2, t=1.0, d=1.0, orientation="parallel", t2=None, d2=None):
    return ChildSpec(
        p1=ParentParams(t=t, delta=d, mu=mu1),
        p2=ParentParams(t=t if t2 is None else t2, delta=d if d2 is None else d2, mu=mu2),
        orientation=orientation,
    )


def test_criterion_01_bulk_equivalence():
    done = _clock(5.0)
    ks = np.linspace(-np.pi, np.pi, 201)
    for _ in range(100):
        spec = _random_child()
        stack = np.array([child_bloch(spec, k) for k in ks])
        numeric = np.linalg.eigvalsh(stack)
        plus = np.array([dispersion_parallel(spec, k)[0] for k in ks])
        analytic = np.sort(np.column_stack([-plus, -plus, plus, plus]), axis=1)
        assert np.abs(numeric - analytic).max() < 1e-10
        assert np.abs(numeric[:, 1] - numeric[:, 0]).max() < 1e-9
        assert np.abs(numeric[:, 3] - numeric[:, 2]).max() < 1e-9
    done()


def test_criterion_02_gap_closures():
    done = _clock(1.0)
    probes = 0
    for which in (1, 2):
        for sign, k_close in ((-1.0, 0.0), (1.0, np.pi)):
            for _ in range(3):
                p1, p2 = _random_parent(), _random_parent()
                if which == 1:
                    p1 = ParentParams(t=p1.t, delta=p1.delta, mu=sign * 2.0 * p1.t)
                else:
                    p2 = ParentParams(t=p2.t, delta=p2.delta, mu=sign * 2.0 * p2.t)
                spec = ChildSpec(p1=p1, p2=p2, orientation="parallel")
                gap = np.abs(np.linalg.eigvalsh(child_bloch(spec, k_close))).min()
                assert gap < 1e-12
                probes += 1
    assert probes == 12
    done()


def test_criterion_03_symmetries():
    done = _clock(2.0)
    kgrid = -np.pi + 2.0 * np.pi * np.arange(64) / 64
    perp_grid = np.column_stack([kgrid, np.roll(kgrid, 17)])
    for i in range(20):
        if i % 2:
            rep = symmetry_check(_random_child("perpendicular"), perp_grid)
        else:
            rep = symmetry_check(_random_child(), kgrid)
        assert set(rep.residuals) == {"T", "P1", "C1", "P2", "C2", "U"}
        assert max(rep.residuals.values()) < 1e-12
    done()


def test_criterion_04_block_diagonalization():
    done = _clock(2.0)
    for i in range(20):
        if i % 2:
            spec = _random_child("perpendicular")
            k = (RNG.uniform(-np.pi, np.pi), RNG.uniform(-np.pi, np.pi))
        else:
            spec = _random_child()
            k = RNG.uniform(-np.pi, np.pi)
        b1, b2, basis = block_diagonalize(spec, k)
        rot = basis.conj().T @ child_bloch(spec, k) @ basis
        off = max(np.abs(rot[:2, 2:]).max(), np.abs(rot[2:, :2]).max())
        assert off < 1e-12
        assert np.abs(b1 - component_bloch(spec, k, 1)[1]).max() < 1e-12
        assert np.abs(b2 - component_bloch(spec, k, 2)[1]).max() < 1e-12
    done()


def test_criterion_05_wannier_sum_law():
    done = _clock(30.0)
    quadrants = [
        ((0.5, 0.5), (0.0, 0.0)),
        ((0.5, 3.0), (0.5, 0.5)),
        ((3.0, 0.5), (0.5, 0.5)),
        ((3.0, 3.5), (0.0, 0.0)),
    ]
    for (mu1, mu2), expected in quadrants:
        centers = np.sort(wannier_centers_parallel(_child(mu1, mu2)).centers)
        for got, want in zip(centers, np.sort(expected)):
            assert center_distance(got, want) < 1e-6
    perp = _child(0.5, 0.5, orientation="perpendicular")
    for direction in ("x", "y"):
        spec = wannier_centers_perp(perp, direction, 0.3)
        assert all(center_distance(c, 0.5) < 1e-6 for c in spec.centers)
    done()


def test_criterion_06_winding_table():
    done = _clock(10.0)
    table = [((0.5, 0.5), (2, 0)), ((0.5, 3.0), (1, 1)), ((3.0, 3.5), (0, 0))]
    for mus, expected in table:
        assert component_winding_parallel(_child(*mus)) == expected
    # perpendicular: on a topological slab every quantized curve winds with
    # matching component magnitudes; on a trivial one none do
    wound = component_winding_perp(_child(0.5, 0.5, orientation="perpendicular"), 4, 5)
    flat = component_winding_perp(_child(3.0, 3.5, orientation="perpendicular"), 4, 5)
    for curve in wound["rows"] + wound["columns"]:
        assert abs(curve["w1"]) == 1 and abs(curve["w2"]) == 1
    for curve in flat["rows"] + flat["columns"]:
        assert curve["w1"] == 0 and curve["w2"] == 0
    done()


def test_criterion_07_majorana_points():
    done = _clock(20.0)
    parent = ParentParams(t=1.0, delta=0.5, mu=0.0)
    points = kc_majorana_points(parent, 6)
    assert len(points.mu_values) == 6
    for mu in points.mu_values:
        h = build_chain(ParentParams(t=1.0, delta=0.5, mu=float(mu)), ChainLattice(6))
        assert np.abs(np.linalg.eigvalsh(h)).min() < 1e-8

    for L in (6, 7):
        fam = mkc_parallel_majorana_points(1.0, 0.5, L)
        assert len(fam.mu_values) % 2 == 0
        if L == 6:
            assert set(fam.degeneracies) == {2}
        else:
            assert set(fam.degeneracies) == {1}
            # the two odd-length families interleave along the mu axis
            order = np.argsort(fam.mu_values)
            families = [fam.provenance[i].split(":")[0] for i in order]
            assert all(a != b for a, b in zip(families, families[1:]))
        for mu, deg in zip(fam.mu_values, fam.degeneracies):
            spec = _child(float(mu), float(mu), d=0.5, t2=-1.0, d2=0.5)
            ev = np.linalg.eigvalsh(build_chain(spec, ChainLattice(L)))
            assert (np.abs(ev) < 1e-8).sum() == 2 * deg
    done()


def test_criterion_08_mmzm_localization():
    done = _clock(5.0)
    spec = _child(0.0, 0.0)
    lat = ChainLattice(80)
    density = zero_subspace(spec, lat)
    assert density.count == 4
    edge = density.weights[[0, 1, 78, 79]].sum()
    assert edge / density.weights.sum() >= 0.999
    done()


def test_criterion_09_analytic_wavefunction_match():
    done = _clock(2.0)
    t, d, N = 1.0, 0.5, 30
    mu = 2.0 * np.sqrt(t * t - d * d) * np.cos(np.pi / (N + 2))
    assert mu == pytest.approx(np.sqrt(3.0) * np.cos(np.pi / 32), abs=1e-15)
    spec = _child(mu, mu, t=-1.0, d=0.5, t2=1.0, d2=0.5)
    lat = ChainLattice(N)
    density = zero_subspace(spec, lat)
    numeric = density.weights / density.weights.sum()
    analytic = analytic_mmzm_density(t, d, N, 1)
    overlap = np.sqrt(numeric * analytic).sum()
    assert overlap >= 0.999
    done()


def test_criterion_10_entanglement_classification():
    done = _clock(60.0)
    lat = ChainLattice(40)

    both_topo = {
        (1, 1): ("bell:00-11", "bell:00+11"),
        (1, -1): ("bell:01-10", "bell:01+10"),
        (-1, 1): ("bell:01+10", "bell:01-10"),
        (-1, -1): ("bell:00+11", "bell:00-11"),
    }
    for (s1, s2), (left_label, right_label) in both_topo.items():
        spec = _child(0.3, 0.9, d=float(s1), d2=float(s2))
        out = classify_zero_modes(spec, lat)
        for region, label in (("left", left_label), ("right", right_label)):
            got = out[region]
            assert got.labels == (label,)
            assert got.states[0].overlap > 0.999
            assert got.states[0].entropy > 0.6
            assert got.matches_table
            assert label in expected_boundary_states(spec, lat, region)

    single_topo = {
        ("first", 1): ("bell:00-11", "bell:01-10"),
        ("first", -1): ("bell:00+11", "bell:01+10"),
        ("second", 1): ("bell:00-11", "bell:01+10"),
        ("second", -1): ("bell:00+11", "bell:01-10"),
    }
    for (which, s), left_labels in single_topo.items():
        if which == "first":
            spec = _child(0.3, 3.0, d=float(s))
        else:
            spec = _child(3.0, 0.3, d2=float(s))
        out = classify_zero_modes(spec, lat)
        got = out["left"]
        assert got.labels == left_labels
        assert all(state.overlap > 0.999 for state in got.states)
        assert all(state.entropy > 0.6 for state in got.states)
        assert got.matches_table and got.row_complete

    # perpendicular rows: open/open corners carry one Bell and two products,
    # wrapping one direction or detopologizing one parent leaves Bell pairs
    slab = SlabLattice(10, 12)
    corners = {
        "xlo_ylo": ("prod:01", "prod:10", "bell:00-11"),
        "xhi_ylo": ("prod:00", "prod:11", "bell:01+10"),
        "xlo_yhi": ("prod:00", "prod:11", "bell:01-10"),
        "xhi_yhi": ("prod:01", "prod:10", "bell:00+11"),
    }
    out = classify_zero_modes(_child(0.0, 0.0, orientation="perpendicular"), slab)
    assert set(out) == set(corners)
    for region, labels in corners.items():
        got = out[region]
        assert tuple(sorted(got.labels)) == tuple(sorted(labels))
        assert got.matches_table and got.row_complete
        for state in got.states:
            assert state.overlap > 0.999
            if state.label.startswith("bell:"):
                assert state.entropy > 0.6
            else:
                assert state.entropy < 0.05

    pairs = {
        "xlo_ylo": ("bell:00-11", "bell:01-10"),
        "xlo_yhi": ("bell:00-11", "bell:01-10"),
        "xhi_ylo": ("bell:00+11", "bell:01+10"),
        "xhi_yhi": ("bell:00+11", "bell:01+10"),
    }
    wrapped = classify_zero_modes(
        _child(0.0, 0.0, orientation="perpendicular"),
        SlabLattice(10, 12, bcx="open", bcy="periodic"),
    )
    half_trivial = classify_zero_modes(
        _child(0.0, 3.0, orientation="perpendicular"), slab
    )
    for out in (wrapped, half_trivial):
        for region, labels in pairs.items():
            got = out[region]
            assert tuple(sorted(got.labels)) == tuple(sorted(labels))
            assert got.matches_table and got.row_complete
            assert all(state.overlap > 0.999 for state in got.states)
            assert all(state.entropy > 0.6 for state in got.states)
    done()


def test_criterion_11_perpendicular_edge_density():
    done = _clock(120.0)
    lat = SlabLattice(20, 50)

    def edge_fraction(mu1, mu2):
        spec = _child(mu1, mu2, orientation="perpendicular")
        density = zero_subspace(spec, lat)
        w = density.weights
        total = w.sum()
        return (
            (w[0, :].sum() + w[-1, :].sum()) / total,
            (w[:, 0].sum() + w[:, -1].sum()) / total,
            (total - w[1:-1, 1:-1].sum()) / total,
        )

    x_frac, _, _ = edge_fraction(0.0, 3.0)
    assert x_frac >= 0.95
    _, y_frac, _ = edge_fraction(3.0, 0.0)
    assert y_frac >= 0.95
    _, _, ring_frac = edge_fraction(0.0, 0.0)
    assert ring_frac >= 0.95
    done()


def test_criterion_12_perpendicular_gapless_points():
    done = _clock(60.0)
    t, d, Lx, Ly = 1.0, 0.5, 6, 7
    spec0 = _child(0.0, 0.0, d=0.5, orientation="perpendicular")
    points = perp_obc_gapless_points(spec0, Lx, Ly)

    scale = 2.0 * np.sqrt(t * t - d * d)
    x_family = sorted(scale * np.cos(np.arange(1, Lx + 1) * np.pi / (Lx + 1)))
    y_family = sorted(scale * np.cos(np.arange(1, Ly + 1) * np.pi / (Ly + 1)))
    got_x = sorted(
        mu for mu, deg in zip(points.mu_values, points.degeneracies) if deg == Ly
    )
    got_y = sorted(
        mu for mu, deg in zip(points.mu_values, points.degeneracies) if deg == Lx
    )
    assert len(got_x) == 6 and len(got_y) == 7
    assert np.abs(np.array(got_x) - x_family).max() < 1e-8
    assert np.abs(np.array(got_y) - y_family).max() < 1e-8

    # each crossing is deg-fold: deg branches, twice degenerate, in +/- pairs
    lat = SlabLattice(Lx, Ly)
    for mu, deg in zip(points.mu_values, points.degeneracies):
        spec = _child(float(mu), float(mu), d=0.5, orientation="perpendicular")
        ev = np.linalg.eigvalsh(build_slab(spec, lat))
        assert (np.abs(ev) < 1e-8).sum() == 4 * deg
    done()


def test_criterion_13_disorder_matrix():
    done = _clock(600.0)
    lat = ChainLattice(80)
    parent = robustness_sweep(
        ParentParams(t=1.0, delta=1.0, mu=0.0), lat, amplitude=0.2, realizations=50
    )
    robust = dict(zip(parent.channels, parent.robust[:, 0]))
    assert robust["y"] and robust["z"] and not robust["x"]

    child = robustness_sweep(
        _child(0.0, 0.0), lat, amplitude=0.2, realizations=50, channels=CHILD_CHANNELS
    )
    verdicts = {
        "".join(c): bool(v) for c, v in zip(child.channels, child.robust[:, 0])
    }
    asserted = {
        a + b for a in "0yz" for b in "0yz" if (a, b) != ("0", "0")
    }
    for name in sorted(asserted):
        assert verdicts[name], f"channel {name} expected robust"
    assert not verdicts["xx"]
    contested = {
        name: ("robust" if ok else "broken")
        for name, ok in sorted(verdicts.items())
        if name not in asserted and name != "xx"
    }
    # measured but deliberately unasserted; the identity pair and the
    # single-x channels shift the zero modes like a chemical potential
    print("reported, not asserted:", contested)
    done()


def test_criterion_14_critical_scaling():
    done = _clock(5.0)
    assert energy_scaling_near_critical("equal").exponent == pytest.approx(2.0, abs=0.05)
    assert energy_scaling_near_critical("opposite").exponent == pytest.approx(1.0, abs=0.05)
    done()


def test_criterion_15_group_velocity():
    done = _clock(1.0)
    for _ in range(8):
        p1, p2 = _random_parent(), _random_parent()
        spec = ChildSpec(
            p1=ParentParams(t=p1.t, delta=p1.delta, mu=-2.0 * p1.t),
            p2=ParentParams(t=p2.t, delta=p2.delta, mu=-2.0 * p2.t),
            orientation="perpendicular",
        )
        r = RNG.uniform(0.001, 0.05)
        phi = RNG.uniform(0.0, 2.0 * np.pi)
        kx, ky = r * np.cos(phi), r * np.sin(phi)
        record = group_velocity_perp(spec, kx, ky)
        assert record.at_critical
        field = 4.0 * spec.p1.delta * spec.p2.delta * np.array([ky, kx])
        v = np.asarray(record.velocity)
        rel = min(
            np.abs(v - field).max(), np.abs(v + field).max()
        ) / np.abs(field).max()
        assert rel < 1e-6
    done()
