"""Exact-zero loci, analytic boundary wavefunctions, and state classification."""

import numpy as np
import pytest

from mkc.boundary import (
    BELL_VECTORS,
    CLASSIFICATION_FRAME,
    PRODUCT_VECTORS,
    _label_state,
    _orthonormal_columns,
    analytic_mmzm_density,
    analytic_mmzm_wavefunction,
    classify_zero_modes,
    decay_roots,
    decaying_branch,
    energy_scaling_near_critical,
    expected_boundary_states,
    kc_majorana_points,
    mkc_parallel_majorana_points,
    mmzm_classify,
    perp_edge_prediction,
    perp_obc_gapless_points,
    quantization_points,
    quantization_residual,
    semi_infinite_edge_profile,
    tau_sigma_entropy,
)
from mkc.errors import ConfigError, SingularConfigError
from mkc.lattice import (
    PERIODIC,
    ChainLattice,
    SlabLattice,
    build_chain,
    diagonalize,
)
from mkc.models import PARALLEL, PERPENDICULAR, ChildSpec, ParentParams

RNG = np.random.default_rng(20240813)
LN2 = float(np.log(2.0))

# independently refined from the open-chain spectrum on a dense shared-mu
# grid (golden-section on the lowest |E|, residuals < 2e-14) for
# p1 = (1.0, 0.4), p2 = (-0.8, 0.3), four sites
GENERIC_N4_ROOTS = (
    -1.308095924580,
    -0.862163977398,
    -0.784413045047,
    0.784413045047,
    0.862163977398,
    1.308095924580,
)


# --- decay roots ------------------------------------------------------------


def test_decay_roots_satisfy_branch_quadratic():
    for _ in range(20):
        p = ParentParams(
            t=float(RNG.uniform(0.2, 2.0)),
            delta=float(RNG.uniform(0.1, 1.5)),
            mu=float(RNG.uniform(-3, 3)),
        )
        for branch, a, c in (
            ("+", p.t + p.delta, p.t - p.delta),
            ("-", p.t - p.delta, p.t + p.delta),
        ):
            if abs(a) < 1e-12:
                continue
            roots = decay_roots(p, branch)
            for r in roots.roots:
                assert abs(a * r * r + p.mu * r + c) < 1e-12 * max(1.0, abs(r)) ** 2


def test_decay_roots_polar_form_in_oscillatory_window():
    p = ParentParams(t=1.0, delta=0.4, mu=0.3)  # mu^2 < 4(t^2 - delta^2)
    roots = decay_roots(p, "+")
    assert roots.is_oscillatory
    r1, r2 = roots.roots
    assert r1 == r2.conjugate() and r1.imag > 0
    assert roots.magnitude == pytest.approx(abs(r1))
    assert roots.angle == pytest.approx(np.angle(r1))
    # outside the window the pair is real
    wide = decay_roots(ParentParams(1.0, 0.4, 2.5), "+")
    assert not wide.is_oscillatory and all(np.isreal(wide.roots))


def test_decay_roots_product_is_fixed_by_coefficients():
    # Vieta: r1 r2 = (t - delta)/(t + delta) on the "+" branch
    p = ParentParams(1.0, 0.4, 0.7)
    roots = decay_roots(p, "+")
    assert np.prod(roots.roots) == pytest.approx((1.0 - 0.4) / (1.0 + 0.4))


def test_decay_roots_degenerate_and_singular():
    flat = decay_roots(ParentParams(1.0, 1.0, 0.5), "+")  # c = 0: one root is 0
    assert 0.0 in [abs(r) for r in flat.roots]
    with pytest.raises(SingularConfigError):
        decay_roots(ParentParams(1.0, -1.0, 0.5), "+")  # a = 0
    assert decaying_branch(ParentParams(1.0, 0.5, 0.0)) == "+"
    assert decaying_branch(ParentParams(1.0, -0.5, 0.0)) == "-"
    with pytest.raises(SingularConfigError):
        decaying_branch(ParentParams(1.0, 0.0, 0.5))


# --- exact-zero chemical potentials ----------------------------------------


def test_parent_points_have_zero_modes():
    p = ParentParams(t=1.0, delta=0.5, mu=0.0)
    L = 6
    pts = kc_majorana_points(p, L)
    assert len(pts.mu_values) == L
    assert pts.degeneracies == (1,) * L
    lat = ChainLattice(L)
    for mu in pts.mu_values:
        ev = np.linalg.eigvalsh(build_chain(ParentParams(1.0, 0.5, mu), lat))
        assert np.abs(ev).min() < 1e-12


def test_parent_points_collapse_when_pairing_dominates():
    pts = kc_majorana_points(ParentParams(0.5, 0.9, 0.0), 5)
    assert np.max(np.abs(pts.mu_values)) == 0.0


@pytest.mark.parametrize("L, count, degs", [(6, 6, {2}), (7, 14, {1})])
def test_child_point_families(L, count, degs):
    pts = mkc_parallel_majorana_points(1.0, 0.5, L)
    assert len(pts.mu_values) == count
    assert set(pts.degeneracies) == degs
    lat = ChainLattice(L)
    for mu, deg in zip(pts.mu_values, pts.degeneracies):
        spec = ChildSpec(
            ParentParams(-1.0, 0.5, mu), ParentParams(1.0, 0.5, mu), PARALLEL
        )
        ev = np.sort(np.abs(np.linalg.eigvalsh(build_chain(spec, lat))))
        assert ev[2 * deg - 1] < 1e-10  # deg zero pairs
        assert ev[2 * deg] > 1e-6  # and no more


def test_child_points_exclude_vanishing_slots():
    # the mu = 0 slot of each family sits on a sublattice node and is not
    # an exact zero of the finite chain
    pts = mkc_parallel_majorana_points(1.0, 0.5, 6)
    assert np.min(np.abs(pts.mu_values)) > 0.1
    spec = ChildSpec(ParentParams(-1.0, 0.5, 0.0), ParentParams(1.0, 0.5, 0.0), PARALLEL)
    ev = np.abs(np.linalg.eigvalsh(build_chain(spec, ChainLattice(6))))
    assert ev.min() > 1e-3


def test_odd_chain_families_interleave():
    pts = mkc_parallel_majorana_points(1.0, 0.5, 7)
    even_family = sorted(
        mu for mu, prov in zip(pts.mu_values, pts.provenance) if "even" in prov
    )
    odd_family = sorted(
        mu for mu, prov in zip(pts.mu_values, pts.provenance) if "odd" in prov
    )
    assert len(even_family) == 6 and len(odd_family) == 8
    # positive halves alternate strictly
    pos_e = [m for m in even_family if m > 0]
    pos_o = [m for m in odd_family if m > 0]
    assert all(pos_o[i] < pos_e[i] for i in range(len(pos_e)))


def test_quantization_scan_matches_closed_family():
    t, d, N = 1.0, 0.5, 6
    family = np.sort(mkc_parallel_majorana_points(t, d, N).mu_values)
    pts = quantization_points(
        ParentParams(-t, d, 0.0), ParentParams(t, d, 0.0), N
    )
    got = np.sort(pts.mu_values)
    assert got.size == family.size
    # touching roots carry a ~1e-9 rounding floor; see quantization_points
    assert np.max(np.abs(got - family)) < 1e-8


def test_quantization_scan_generic_parents_frozen():
    pts = quantization_points(
        ParentParams(1.0, 0.4, 0.0), ParentParams(-0.8, 0.3, 0.0), 4
    )
    got = np.sort(pts.mu_values)
    assert got.size == len(GENERIC_N4_ROOTS)
    assert np.max(np.abs(got - np.array(GENERIC_N4_ROOTS))) < 1e-9


def test_quantization_requires_oscillatory_window():
    with pytest.raises(ConfigError):
        quantization_points(ParentParams(0.5, 0.9, 0.0), ParentParams(1.0, 0.5, 0.0), 6)


def test_quantization_residual_singular_denominator():
    with pytest.raises(SingularConfigError):
        quantization_residual(1.0, 1.0, 0.0, 0.0, 6)


# --- analytic boundary wavefunctions ----------------------------------------


def _mixed_child(t, delta, mu):
    return ChildSpec(
        ParentParams(-t, delta, mu), ParentParams(t, delta, mu), PARALLEL
    )


@pytest.mark.parametrize("N, which, n", [(8, 1, 1), (8, 2, 3), (9, 1, 2), (9, 2, 4)])
def test_analytic_mode_is_an_exact_eigenvector(N, which, n):
    t, d = 1.0, 0.4
    mode = analytic_mmzm_wavefunction(t, d, N, n, which)
    spec = _mixed_child(t, d, mode.mu)
    h = build_chain(spec, ChainLattice(N))
    vec = mode.lattice_vector()
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert np.linalg.norm(h @ vec) < 1e-12


def test_analytic_mode_sublattice_support():
    mode1 = analytic_mmzm_wavefunction(1.0, 0.4, 8, 1, 1)
    mode2 = analytic_mmzm_wavefunction(1.0, 0.4, 8, 1, 2)
    amp1 = np.abs(mode1.amplitudes)
    amp2 = np.abs(mode2.amplitudes)
    # component 1 lives on even sites (1-based), component 2 on odd
    assert np.all(amp1[0::2] < 1e-14) and amp1[1] > 0
    assert np.all(amp2[1::2] < 1e-14) and amp2[0] > 0


def test_analytic_mode_internal_spinors():
    left = analytic_mmzm_wavefunction(1.0, 0.4, 8, 1, 1, edge="left")
    right = analytic_mmzm_wavefunction(1.0, 0.4, 8, 1, 1, edge="right")
    assert left.internal == pytest.approx(np.array([1, -1, -1, 1]) / 2.0)
    assert right.internal == pytest.approx(np.array([1, 1, 1, 1]) / 2.0)
    assert right.mu == pytest.approx(left.mu)


def test_analytic_mode_index_validation():
    with pytest.raises(ConfigError):
        analytic_mmzm_wavefunction(1.0, 0.4, 8, 5, 1)  # 2n = N + 2 slot
    with pytest.raises(ConfigError):
        analytic_mmzm_wavefunction(1.0, 0.4, 8, 0, 1)
    with pytest.raises(ConfigError):
        analytic_mmzm_wavefunction(1.0, 2.0, 8, 1, 1)  # needs 0 < delta < t


def test_analytic_density_matches_numerics():
    t, d, N, n = 1.0, 0.5, 12, 2
    dens = analytic_mmzm_density(t, d, N, n)
    mode = analytic_mmzm_wavefunction(t, d, N, n, 1)
    spec = _mixed_child(t, d, mode.mu)
    lat = ChainLattice(N)
    s = diagonalize(build_chain(spec, lat))
    sel = np.abs(s.eigenvalues) < 1e-10
    num = (np.abs(s.eigenvectors[:, sel]) ** 2).sum(axis=1).reshape(N, 4).sum(axis=1)
    num = num / num.sum()
    overlap = float(np.sqrt(dens * num).sum())  # Bhattacharyya
    assert overlap > 0.9999


def test_semi_infinite_profile_matches_root_powers():
    spec = ChildSpec(
        ParentParams(1.0, 0.4, 0.3), ParentParams(1.0, 0.5, 3.0), PARALLEL
    )
    prof = semi_infinite_edge_profile(spec, 1, length=32)
    roots = decay_roots(spec.p1, "+")
    want = np.abs(roots.roots[0] ** np.arange(1, 33) - roots.roots[1] ** np.arange(1, 33))
    want = want / np.linalg.norm(want)
    assert prof.amplitudes == pytest.approx(want)
    assert prof.internal is None
    rev = semi_infinite_edge_profile(spec, 1, edge="right", length=32)
    assert rev.amplitudes == pytest.approx(want[::-1])


def test_semi_infinite_profile_needs_topological_parent():
    spec = ChildSpec(
        ParentParams(1.0, 0.4, 0.3), ParentParams(1.0, 0.5, 3.0), PARALLEL
    )
    with pytest.raises(ConfigError):
        semi_infinite_edge_profile(spec, 2)


def test_semi_infinite_profile_perp_notes_axis():
    spec = ChildSpec(
        ParentParams(1.0, 0.4, 0.3), ParentParams(1.0, 0.5, 3.0), PERPENDICULAR
    )
    prof = semi_infinite_edge_profile(spec, 1, length=16)
    assert "along x" in prof.label


# --- entanglement classification ---------------------------------------------


def test_entropy_endpoints():
    assert tau_sigma_entropy(BELL_VECTORS["00+11"]) == pytest.approx(LN2)
    assert tau_sigma_entropy(PRODUCT_VECTORS["01"]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        tau_sigma_entropy(np.zeros(4))


def test_classification_frame_is_unitary():
    f = CLASSIFICATION_FRAME
    assert np.max(np.abs(f.conj().T @ f - np.eye(4))) < 1e-14


def test_classification_frame_literal_columns():
    r = 1.0 / np.sqrt(2.0)
    columns = [[r, 0, 0, -r], [-r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]]
    assert CLASSIFICATION_FRAME.dtype == complex
    assert np.array_equal(CLASSIFICATION_FRAME, np.array(columns).T)


def test_mmzm_classify_pure_references():
    for name, vec in BELL_VECTORS.items():
        res = mmzm_classify((CLASSIFICATION_FRAME @ vec).reshape(1, 4))
        assert res.labels == (f"bell:{name}",)
        assert res.states[0].entropy == pytest.approx(LN2)
    for name, vec in PRODUCT_VECTORS.items():
        res = mmzm_classify((CLASSIFICATION_FRAME @ vec).reshape(1, 4))
        assert res.labels == (f"prod:{name}",)


def test_mmzm_classify_recovers_pair_from_rotated_subspace():
    # scramble a two-state subspace by a random unitary; the greedy pass
    # alone must recover the reference content
    b1 = CLASSIFICATION_FRAME @ BELL_VECTORS["00-11"]
    b2 = CLASSIFICATION_FRAME @ BELL_VECTORS["01-10"]
    for _ in range(5):
        th = RNG.uniform(0, 2 * np.pi)
        u = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        mixed = u @ np.stack([b1, b2])
        res = mmzm_classify(mixed, expected=("bell:00-11", "bell:01-10"))
        assert sorted(res.labels) == ["bell:00-11", "bell:01-10"]
        assert res.matches_table and res.row_complete


def test_mmzm_classify_keeps_leftover_directions_unrotated():
    # a generic two-dimensional span holds no reference state: the greedy
    # pass accepts nothing and both orthonormalized directions are labeled
    # as they are, with no rotation inside the span
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    res = mmzm_classify(raw)
    ct = CLASSIFICATION_FRAME.conj().T @ _orthonormal_columns(raw.T)
    expected = [_label_state(ct[:, k], 1e-6, 0.999) for k in range(2)]
    assert res.subspace_dimension == 2
    assert res.labels == tuple(s.label for s in expected)
    for got, want in zip(res.states, expected):
        assert np.array_equal(got.vector, want.vector)
        assert got.entropy == want.entropy and got.overlap == want.overlap


def test_mmzm_classify_unclassified_content():
    vec = np.array([1.0, 0.7, 0.2, 0.05], dtype=complex)
    vec /= np.linalg.norm(vec)
    res = mmzm_classify(vec.reshape(1, 4))
    assert res.labels[0] in ("unclassified", "prod:other")


def test_raw_edge_spinors_map_to_opposite_bells():
    # the two internal edge vectors of the mixed chain are Bell-type in the
    # classification frame, of opposite symmetry
    left = np.array([1, -1, -1, 1], dtype=complex) / 2.0
    right = np.array([1, 1, 1, 1], dtype=complex) / 2.0
    assert mmzm_classify(left.reshape(1, 4)).labels == ("bell:01+10",)
    assert mmzm_classify(right.reshape(1, 4)).labels == ("bell:01-10",)


# --- expected boundary rows ---------------------------------------------------


def _chain(spec, L=30, bc="open"):
    return ChainLattice(L, bc=bc)


def test_expected_states_both_topological_proportional_vs_not():
    # proportional parents (same |mu/t|, |t/delta|): three-state row
    prop = ChildSpec(
        ParentParams(1.0, 0.5, 0.3), ParentParams(1.0, 0.5, 0.3), PARALLEL
    )
    row = expected_boundary_states(prop, _chain(prop), "left")
    assert row == ("bell:00-11", "prod:01", "prod:10")
    # generic pair: Bell-pair row
    gen = ChildSpec(
        ParentParams(1.0, 0.5, 0.3), ParentParams(0.9, 0.7, -0.2), PARALLEL
    )
    row = expected_boundary_states(gen, _chain(gen), "left")
    assert row == ("bell:00-11", "bell:01-10")


def test_expected_states_sign_classes_and_edges():
    spec = ChildSpec(
        ParentParams(-1.0, 0.5, 0.0), ParentParams(1.0, 0.5, 0.0), PARALLEL
    )
    # the mixed pair is proportional, so the row carries explicit products
    left = expected_boundary_states(spec, _chain(spec), "left")
    right = expected_boundary_states(spec, _chain(spec), "right")
    assert left == ("bell:01+10", "prod:00", "prod:11")
    assert right == ("bell:01-10", "prod:00", "prod:11")


def test_expected_states_single_topological():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, 0.3), ParentParams(1.0, 0.5, 3.0), PARALLEL
    )
    assert expected_boundary_states(spec, _chain(spec), "left") == (
        "bell:00-11",
        "bell:01-10",
    )
    flipped = ChildSpec(
        ParentParams(1.0, -0.5, 0.3), ParentParams(1.0, 0.5, 3.0), PARALLEL
    )
    assert expected_boundary_states(flipped, _chain(flipped), "left") == (
        "bell:00+11",
        "bell:01+10",
    )


def test_expected_states_trivial_and_periodic():
    triv = ChildSpec(
        ParentParams(1.0, 0.5, 3.0), ParentParams(1.0, 0.5, -3.0), PARALLEL
    )
    assert expected_boundary_states(triv, _chain(triv), "left") == ()
    topo = ChildSpec(
        ParentParams(1.0, 0.5, 0.0), ParentParams(1.0, 0.5, 0.0), PARALLEL
    )
    ring = _chain(topo, bc=PERIODIC)
    assert expected_boundary_states(topo, ring, "left") == ()


def test_expected_states_slab_corners_always_three_state():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, 0.3), ParentParams(0.9, 0.7, -0.2), PERPENDICULAR
    )
    lat = SlabLattice(8, 9)
    row = expected_boundary_states(spec, lat, "xlo_ylo")
    assert row == ("bell:00-11", "prod:01", "prod:10")
    # sign flips per high edge: x flips the first factor, y the second
    assert expected_boundary_states(spec, lat, "xhi_ylo") == (
        "bell:01+10",
        "prod:00",
        "prod:11",
    )
    assert expected_boundary_states(spec, lat, "xlo_yhi") == (
        "bell:01-10",
        "prod:00",
        "prod:11",
    )
    assert expected_boundary_states(spec, lat, "xhi_yhi") == (
        "bell:00+11",
        "prod:01",
        "prod:10",
    )


def test_expected_states_slab_single_topo_edges():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, 0.3), ParentParams(1.0, 0.5, 3.0), PERPENDICULAR
    )
    lat = SlabLattice(8, 9)
    assert expected_boundary_states(spec, lat, "xlo_ylo") == (
        "bell:00-11",
        "bell:01-10",
    )
    # periodic x removes the first parent's boundary
    pbcx = SlabLattice(8, 9, bcx=PERIODIC)
    assert expected_boundary_states(spec, pbcx, "xlo_ylo") == ()


# --- full-chain classification -----------------------------------------------


def test_classify_zero_modes_mixed_chain_point():
    t, d, N = 1.0, 0.5, 30
    pts = mkc_parallel_majorana_points(t, d, N)
    mu = float(pts.mu_values[np.argmax(pts.mu_values)])
    spec = _mixed_child(t, d, mu)
    out = classify_zero_modes(spec, ChainLattice(N))
    assert set(out) == {"left", "right"}
    assert out["left"].labels == ("bell:01+10",)
    assert out["right"].labels == ("bell:01-10",)
    for region in ("left", "right"):
        assert out[region].matches_table and out[region].row_complete


def test_classify_short_chain_resolves_product_pair():
    # at N = 12 the opposite-edge tails (relative weight ~ R^N > rank_tol)
    # enlarge the regional span to both products; the row Bell stays inside
    # the span but the individual products fall outside the expected row
    t, d, N = 1.0, 0.5, 12
    pts = mkc_parallel_majorana_points(t, d, N)
    mu = float(pts.mu_values[np.argmax(pts.mu_values)])
    out = classify_zero_modes(_mixed_child(t, d, mu), ChainLattice(N))
    assert sorted(out["left"].labels) == ["prod:01", "prod:10"]
    assert out["left"].row_complete and not out["left"].matches_table


def test_classify_zero_modes_dead_point_chain():
    spec = ChildSpec(
        ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PARALLEL
    )
    out = classify_zero_modes(spec, ChainLattice(24))
    assert out["left"].matches_table and out["right"].matches_table


def test_classify_zero_modes_empty_when_gapped():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, 3.0), ParentParams(1.0, 0.5, -3.0), PARALLEL
    )
    assert classify_zero_modes(spec, ChainLattice(12)) == {}


# --- perpendicular geometry ----------------------------------------------------


def test_perp_edge_prediction_cases():
    mk = lambda mu1, mu2: ChildSpec(
        ParentParams(1.0, 1.0, mu1), ParentParams(1.0, 1.0, mu2), PERPENDICULAR
    )
    assert perp_edge_prediction(mk(0.0, 0.0)) == "perimeter"
    assert perp_edge_prediction(mk(0.0, 3.0)) == "x-edges"
    assert perp_edge_prediction(mk(3.0, 0.0)) == "y-edges"
    assert perp_edge_prediction(mk(3.0, 3.0)) == "none"
    assert perp_edge_prediction(mk(2.0, 0.0)) == "critical"


def test_perp_gapless_points_merge_and_quartets():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, 0.0), ParentParams(1.0, 0.5, 0.0), PERPENDICULAR
    )
    pts = perp_obc_gapless_points(spec, 6, 7)
    assert len(pts.mu_values) == 13  # 6 + 7, no collisions for coprime sizes
    x_points = [d for d, p in zip(pts.degeneracies, pts.provenance) if p.startswith("x:")]
    y_points = [d for d, p in zip(pts.degeneracies, pts.provenance) if p.startswith("y:")]
    assert x_points == [7] * 6 and y_points == [6] * 7


def test_perp_gapless_points_collapse_at_equal_hopping_pairing():
    spec = ChildSpec(
        ParentParams(1.0, 1.0, 0.0), ParentParams(1.0, 1.0, 0.0), PERPENDICULAR
    )
    pts = perp_obc_gapless_points(spec, 10, 10)
    assert pts.mu_values == (0.0,)
    assert pts.degeneracies == (19,)


# --- critical scaling ----------------------------------------------------------


def test_energy_scaling_exponents():
    eq = energy_scaling_near_critical("equal")
    assert eq.exponent == pytest.approx(2.0, abs=0.02)
    opp = energy_scaling_near_critical("opposite")
    assert opp.exponent == pytest.approx(1.0, abs=0.05)


def test_energy_scaling_grid_validation():
    with pytest.raises(ValueError):
        energy_scaling_near_critical("equal", delta_mu=np.array([0.5]))
    with pytest.raises(ValueError):
        energy_scaling_near_critical("sideways")
