"""Momentum-space Hamiltonians: closed forms, degeneracies, symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import block_diagonalize, component_bloch, component_dvector, parent_bloch
from mkc.analytic import perp_edge_prediction
from mkc.errors import CriticalCurveError
from test_lattice import _parent
from mkc.models import (
    PARALLEL,
    PERPENDICULAR,
    BLOCK_BASIS,
    ChildSpec,
    ParentParams,
    child_bloch,
    dirac_expansion_parallel,
    dispersion_parallel,
    group_velocity_perp,
    reduce_momentum,
    symmetry_check,
)
from mkc.topology import parent_winding

RNG = np.random.default_rng(20240811)
KGRID = np.linspace(-np.pi, np.pi, 65)[:-1]


def random_parent(topological=None):
    t = float(RNG.uniform(0.3, 2.0)) * (1 if RNG.random() < 0.5 else -1)
    delta = float(RNG.uniform(0.1, 1.5)) * (1 if RNG.random() < 0.5 else -1)
    if topological is True:
        mu = float(RNG.uniform(-1.8, 1.8)) * abs(t)
    elif topological is False:
        mu = float(RNG.uniform(2.2, 4.0)) * abs(t) * (1 if RNG.random() < 0.5 else -1)
    else:
        mu = float(RNG.uniform(-4.0, 4.0)) * abs(t)
    return ParentParams(t=t, delta=delta, mu=mu)


def random_child(orientation=PARALLEL):
    return ChildSpec(p1=random_parent(), p2=random_parent(), orientation=orientation)


def test_reduce_momentum_folds_to_principal_interval():
    k = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi])
    folded = reduce_momentum(k)
    assert np.all(folded >= -np.pi) and np.all(folded < np.pi)
    assert folded[1] == pytest.approx(-np.pi)  # pi and -pi are the same point


def test_parent_params_validation():
    with pytest.raises(ValueError):
        ParentParams(t=np.nan, delta=0.5, mu=0.0)
    p = ParentParams(t=1.0, delta=0.5, mu=0.3)
    assert p.is_topological() and not p.is_critical()
    assert not ParentParams(1.0, 0.5, 2.5).is_topological()
    assert ParentParams(1.0, 0.5, 2.0).is_critical()
    assert ParentParams(1.0, 0.5, -2.0).is_critical()
    assert ParentParams(1.0, 0.0, 0.5).is_critical()  # a Delta = 0 metal
    # a near-metal closes to 2e-13 at k = pi/2, away from k = 0 and pi
    assert ParentParams(1.0, 1e-13, 0.0).is_critical()
    assert not ParentParams(1.0, 0.0, 2.5).is_critical()


@pytest.mark.parametrize(
    "p",
    [
        ParentParams(1.0, 1e-11, 0.0),
        ParentParams(1.0, 1e-10, 0.0),
        ParentParams(1.0, 0.5, 2.0 + 1e-11),
    ],
    ids=["near-metal-1e-11", "near-metal-1e-10", "near-closing-at-pi"],
)
def test_near_critical_parents_read_one_gap_rule(p):
    # within 1e-9 of the largest modulus, but farther than 1e-12 from the origin
    assert p.is_critical()
    with pytest.raises(CriticalCurveError):
        parent_winding(p)
    other = ParentParams(1.0, 1.0, 0.5)
    for p1, p2 in ((p, other), (other, p)):
        assert perp_edge_prediction(ChildSpec(p1, p2, PERPENDICULAR)) == "critical"


def test_parent_bloch_closed_form_spectrum():
    for _ in range(20):
        p = random_parent()
        h = parent_bloch(p, KGRID)
        assert h.shape == (KGRID.size, 2, 2)
        assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-14
        ev = np.linalg.eigvalsh(h)
        m = 2.0 * p.t * np.cos(KGRID) + p.mu
        r = 2.0 * p.delta * np.sin(KGRID)
        e = np.sqrt(m * m + r * r)
        assert np.max(np.abs(ev - np.stack([-e, e], axis=-1))) < 1e-12


def test_parent_particle_hole_symmetry():
    # s_x H(k)* s_x = -H(-k)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(10):
        p = random_parent()
        lhs = sx @ np.conj(parent_bloch(p, KGRID)) @ sx
        rhs = -parent_bloch(p, -KGRID)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_child_bloch_product_of_factor_spectra():
    for _ in range(20):
        spec = random_child()
        h = child_bloch(spec, KGRID)
        assert h.shape == (KGRID.size, 4, 4)
        ev = np.linalg.eigvalsh(h)
        ep, em = dispersion_parallel(spec, KGRID)
        expected = np.sort(np.stack([em, em, ep, ep], axis=-1), axis=-1)
        assert np.max(np.abs(ev - expected)) < 1e-10


def test_child_spectrum_is_doubly_degenerate():
    for _ in range(10):
        spec = random_child()
        ev = np.linalg.eigvalsh(child_bloch(spec, KGRID))
        assert np.max(np.abs(ev[:, 0] - ev[:, 1])) < 1e-9
        assert np.max(np.abs(ev[:, 2] - ev[:, 3])) < 1e-9


def test_perpendicular_child_takes_two_momenta():
    spec = random_child(PERPENDICULAR)
    kk = np.stack([KGRID, np.roll(KGRID, 7)], axis=-1)
    h = child_bloch(spec, kk)
    ev = np.linalg.eigvalsh(h)
    m1 = 2 * spec.p1.t * np.cos(kk[:, 0]) + spec.p1.mu
    r1 = 2 * spec.p1.delta * np.sin(kk[:, 0])
    m2 = 2 * spec.p2.t * np.cos(kk[:, 1]) + spec.p2.mu
    r2 = 2 * spec.p2.delta * np.sin(kk[:, 1])
    e = np.sqrt(m1 * m1 + r1 * r1) * np.sqrt(m2 * m2 + r2 * r2)
    assert np.max(np.abs(ev - np.sort(np.stack([-e, -e, e, e], -1), -1))) < 1e-10


@pytest.mark.parametrize("mu_sign, k_close", [(-1, 0.0), (+1, np.pi)])
def test_gap_closes_at_band_edges(mu_sign, k_close):
    for t in (0.7, 1.0, 1.6):
        p1 = ParentParams(t=t, delta=0.5, mu=mu_sign * 2.0 * t)
        spec = ChildSpec(p1, ParentParams(1.0, 0.4, 0.3), PARALLEL)
        ep, _ = dispersion_parallel(spec, np.array([k_close]))
        assert abs(ep[0]) < 1e-12


def test_symmetry_residuals_vanish():
    for _ in range(10):
        spec = random_child()
        rep = symmetry_check(spec, KGRID)
        assert set(rep.residuals) == {"T", "P1", "C1", "P2", "C2", "U"}
        for name, res in rep.residuals.items():
            assert res < 1e-12, f"{name} residual {res:.3e}"


def test_exactly_vanishing_residuals_take_no_svd(lapack_calls):
    # C1, C2 and U hold exactly on the README's child: their stacks are
    # zero, and only T, P1 and P2 take the stacked spectral norm
    spec = ChildSpec(ParentParams(1.0, 1.0, 0.3), ParentParams(1.0, 1.0, 0.9), PARALLEL)
    rep = symmetry_check(spec, KGRID)
    assert [name for name, *_ in lapack_calls] == ["svd"] * 3
    assert [rep.residuals[name] for name in ("C1", "C2", "U")] == [0.0, 0.0, 0.0]
    assert min(rep.residuals[name] for name in ("T", "P1", "P2")) > 0.0


def test_block_diagonalization_reproduces_components():
    for _ in range(10):
        spec = random_child()
        b1, b2, basis = block_diagonalize(spec, KGRID)
        assert np.max(np.abs(basis - BLOCK_BASIS)) == 0.0
        _, c1 = component_bloch(spec, KGRID, 1)
        _, c2 = component_bloch(spec, KGRID, 2)
        assert np.max(np.abs(b1 - c1)) < 1e-10
        assert np.max(np.abs(b2 - c2)) < 1e-10


def test_block_basis_literal_columns():
    r = 1.0 / np.sqrt(2.0)
    columns = [[r, 0, 0, -r], [0, -r, r, 0], [r, 0, 0, r], [0, r, r, 0]]
    assert BLOCK_BASIS.dtype == complex
    assert np.array_equal(BLOCK_BASIS, np.array(columns).T)


_MOMENTUM = st.floats(-7.0, 7.0)


@settings(max_examples=60, deadline=None)
@given(
    p1=_parent(),
    p2=_parent(),
    orientation=st.sampled_from([PARALLEL, PERPENDICULAR]),
    ks=st.lists(st.tuples(_MOMENTUM, _MOMENTUM), min_size=1, max_size=8),
)
def test_component_dvector_matches_block_diagonalize(p1, p2, orientation, ks):
    # the product form against a numerical rotation of the 4x4 child
    spec = ChildSpec(p1, p2, orientation)
    k = np.array(ks)
    if orientation == PARALLEL:
        k = k[:, 0]
    blocks = block_diagonalize(spec, k)[:2]
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    for which, block in zip((1, 2), blocks):
        dy, dz = component_dvector(spec, k, which)
        rebuilt = dy[:, None, None] * sy + dz[:, None, None] * sz
        scale = max(1.0, float(np.hypot(dy, dz).max()))
        assert np.abs(block - rebuilt).max() < 1e-13 * scale


def test_dirac_expansion_masses_and_velocities():
    spec = ChildSpec(
        ParentParams(1.0, 0.5, -1.7), ParentParams(-0.8, 0.3, 1.0), PARALLEL
    )
    rec = dirac_expansion_parallel(spec)
    assert rec.m1 == pytest.approx(2 * 1.0 - 1.7)
    assert rec.m2 == pytest.approx(2 * (-0.8) + 1.0)
    assert rec.mass == pytest.approx(1.0 * rec.m2 + (-0.8) * rec.m1)
    # when only one mass vanishes the cone slope is 2|delta_1 m_2|
    tuned = ChildSpec(
        ParentParams(1.0, 0.5, -2.0), ParentParams(-0.8, 0.3, 1.0), PARALLEL
    )
    rec = dirac_expansion_parallel(tuned)
    ks = np.array([1e-5])
    ep, _ = dispersion_parallel(tuned, ks)
    assert ep[0] / ks[0] == pytest.approx(rec.v1, rel=1e-4)
    # both masses tuned away: quadratic touching with coefficient quad
    flat = ChildSpec(
        ParentParams(1.0, 0.5, -2.0), ParentParams(-0.8, 0.3, 1.6), PARALLEL
    )
    rec = dirac_expansion_parallel(flat)
    assert rec.m1 == rec.m2 == 0.0
    ep, _ = dispersion_parallel(flat, ks)
    assert ep[0] / ks[0] ** 2 == pytest.approx(rec.quad, rel=1e-4)


def test_group_velocity_perp_closed_form_at_double_criticality():
    # mu1 = -2 t1 and mu2 = -2 t2: both masses vanish
    spec = ChildSpec(
        ParentParams(1.0, 0.7, -2.0), ParentParams(0.6, 0.4, -1.2), PERPENDICULAR
    )
    rec = group_velocity_perp(spec, 0.01, 0.02)
    d1, d2 = spec.p1.delta, spec.p2.delta
    assert rec.at_critical
    assert rec.closed_form == pytest.approx((4 * d1 * d2 * 0.02, 4 * d1 * d2 * 0.01))
    # gradient components swap roles: dE/dkx tracks ky and vice versa
    assert abs(abs(rec.velocity[0]) - 4 * d1 * d2 * 0.02) < 1e-6
    assert abs(abs(rec.velocity[1]) - 4 * d1 * d2 * 0.01) < 1e-6


def test_group_velocity_perp_one_sided_where_one_mass_vanishes():
    # mu1 = -2 t1 at kx = 0: |E| has a kink in kx, so vx is the kx -> 0+ slope
    spec = ChildSpec(
        ParentParams(1.0, 0.7, -2.0), ParentParams(0.6, 0.4, 0.3), PERPENDICULAR
    )
    ky, h = 0.02, 1e-6
    rec = group_velocity_perp(spec, 0.0, ky)
    assert rec.one_sided and not rec.at_critical
    assert rec.velocity[1] == 0.0

    def lowest(kx):
        return np.abs(np.linalg.eigvalsh(child_bloch(spec, [kx, ky]))).min()

    assert rec.velocity[0] == pytest.approx((lowest(h) - lowest(0.0)) / h, rel=2e-4)


def test_group_velocity_perp_away_from_criticality():
    spec = ChildSpec(
        ParentParams(1.0, 0.7, -1.0), ParentParams(0.6, 0.4, 0.3), PERPENDICULAR
    )
    rec = group_velocity_perp(spec, 0.02, 0.03)
    assert rec.at_critical is False
    # gapped branch: central difference of the closed-form band
    m1 = 2 * spec.p1.t * np.cos(0.02) + spec.p1.mu
    assert np.isfinite(rec.velocity).all()


@pytest.mark.parametrize("s", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize(
    "mu1, mu2, kx, ky, flags",
    [(0.5, 3.0, 0.01, 0.01, (False, False)), (-2.0, -2.0, 0.01, 0.02, (True, False)),
     (-2.0, 0.3, 0.0, 0.02, (False, True))],
    ids=["gapped", "double-critical", "one-sided"],
)
def test_group_velocity_perp_is_scale_free(s, mu1, mu2, kx, ky, flags):
    # E is a product of two factors linear in the parameters, so scaling
    # them by s scales the velocity by s^2 and keeps both flags
    def record(s):
        spec = ChildSpec(ParentParams(s, s, mu1 * s), ParentParams(s, 0.5 * s, mu2 * s), PERPENDICULAR)
        return group_velocity_perp(spec, kx, ky)

    got, ref = record(s), record(1.0)
    assert (got.at_critical, got.one_sided) == (ref.at_critical, ref.one_sided) == flags
    assert got.velocity == pytest.approx(tuple(v * s * s for v in ref.velocity), rel=1e-12)


@pytest.mark.parametrize("s", [1e-13, 1e-4, 1.0, 1e13])
def test_is_topological_agrees_with_the_winding_at_every_scale(s):
    # 5e-9 of the scale inside |mu| < 2|t|, just clear of the critical band:
    # topological at every scale, as parent_winding says
    p = ParentParams(s, s, (2.0 - 5e-9) * s)
    assert not p.is_critical()
    assert p.is_topological() and parent_winding(p) == 1
