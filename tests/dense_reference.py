"""Dense references for mkc's structured solvers, and the comparisons made with them.

mkc never builds a full chain or slab matrix: clean models are solved
from the chiral corners of their hopping blocks, slabs as two factor
chains and disordered models in symmetry blocks.  The builders here
assemble the whole matrix from the same hopping blocks with Kronecker
products, and diagonalize it with one dense eigh, so that every fast path
can be checked against the plain solve.  displacement_vs_amplitude checks
the disorder verdict's fixed threshold by its linear growth in W.  The helpers at the end compare
zero subspaces by projectors, densities and classification decisions,
never by single eigenvectors.  The winding references sample each
parent curve, and each child component curve as the product it is, and
count their turns by angle accumulation (winding_number), where mkc reads
every winding from the parents' closed form.  The Wannier references run
the multiband Wilson loop of the full 2x2 or 4x4 Bloch matrices, where
mkc reads the centers from the parents' windings.
component_dvector and component_bloch give each two-band child component
as the product of its parents' (M, R); block_diagonalize checks them by
rotating the full 4x4 child into the Bell basis, and winding_locus_check
the circle identity of a perpendicular component curve.
quantization_residual is the paper's standing-wave condition, the oracle
of the exact-zero potentials, and whole_corner_potentials finds them with
one companion per chiral corner, where mkc solves each connected
component of the corner's pencil.  site_symmetry_links finds the
channel links of disorder._site_symmetries by brute force: every
Clifford unitary, site gauge and sign on the whole lattice matrix.
serialize_config writes a run config back as text, output routing
included.
"""

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from unittest import mock

import numpy as np

from mkc import boundary
from mkc.boundary import classify_zero_modes, mmzm_classify
from mkc.disorder import (
    DEFAULT_REALIZATIONS,
    DEFAULT_SEED,
    channel_matrix,
    robustness_sweep,
    site_potentials,
)
from mkc.errors import (
    ConfigError,
    CriticalCurveError,
    GaplessPathError,
    NonHermitianError,
    NumericalError,
    SingularConfigError,
)
from mkc.lattice import (
    EXACT_ZERO_TOL,
    LINK_EQUAL,
    PERIODIC,
    ROOT_MATCH,
    ROOT_SPREAD,
    SYMMETRY_TOL,
    ChainLattice,
    SlabLattice,
    ZeroSubspace,
    _chiral_corners,
    _distinct,
    _levels,
    _mu_coefficients,
    _zero_tol,
    chain_hopping_blocks,
    slab_factor_blocks,
    slab_hopping_blocks,
)
from mkc.models import (
    BLOCK_BASIS,
    PARALLEL,
    PERPENDICULAR,
    SY,
    SZ,
    _mr,
    _opnorm,
    _split_child_momentum,
    child_bloch,
    parent_bloch,
)
from mkc.topology import WannierSpectrum

Eigenpairs = namedtuple("Eigenpairs", "eigenvalues eigenvectors")


def _shift(L, r, bc):
    """L x L matrix with ones on the (j, j+r) positions, folded for PBC."""
    return np.roll(np.eye(L), r, axis=1) if bc == PERIODIC else np.eye(L, k=r)


def _assemble_chain(blocks, L, bc):
    rmax = max(blocks)
    if L < rmax + 1:
        raise ConfigError(f"chain of length {L} too short for range-{rmax} hopping")
    dim = blocks[0].shape[0]
    h = np.zeros((L * dim, L * dim), dtype=np.result_type(*blocks.values()))
    for r, blk in blocks.items():
        h += np.kron(_shift(L, r, bc), blk)
    return h


def build_chain(spec, lat):
    """Real-space chain Hamiltonian; dim 2L for the parent, 4L for the child."""
    return _assemble_chain(chain_hopping_blocks(spec), lat.L, lat.bc)


def _assemble_slab(blocks, lat):
    n = lat.Lx * lat.Ly * 4
    h = np.zeros((n, n), dtype=complex)
    for (ra, rb), blk in blocks.items():
        sx = _shift(lat.Lx, ra, lat.bcx)
        sy = _shift(lat.Ly, rb, lat.bcy)
        h += np.kron(np.kron(sx, sy), blk)
    return h


def build_slab(spec, lat):
    """Real-space slab Hamiltonian, site = ix*Ly + iy, internal index minor."""
    return _assemble_slab(slab_hopping_blocks(spec), lat)


def build_slab_factors(spec, lat):
    """(H_x, H_y), the factor chains whose reordered tensor product is build_slab."""
    a, b = slab_factor_blocks(spec)
    return _assemble_chain(a, lat.Lx, lat.bcx), _assemble_chain(b, lat.Ly, lat.bcy)


def _one_factor_cliffords():
    """The 24 single-qubit Clifford unitaries up to a phase: the closure of H and S."""
    gens = (np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), np.diag([1, 1j]))
    group, todo = {}, [np.eye(2, dtype=complex)]
    while todo:
        u = todo.pop()
        first = u.flat[np.argmax(np.abs(u) > 0.5)]  # fix the phase on one entry
        u = u * abs(first) / first
        key = (np.round(u, 8) + 0.0).tobytes()
        if key not in group:
            group[key] = u
            todo += [g @ u for g in gens]
    return list(group.values())


def site_symmetry_links(blocks, lat):
    """disorder._site_symmetries of 4x4 hopping blocks, by brute force on the dense lattice matrix.

    Every W = (U1 x U2) SWAP^w over the single-qubit Cliffords U1, U2 and
    w in {0, 1}, every site gauge g_j = w^j with w^4 = 1 (w^L = 1 on a
    ring, one w per slab direction) and eps = +-1 with G H G^H = eps H for
    G = diag(g) x W, within 1e-9 x scale; each gives the links (a, b, eps s)
    with W P_a W^H = s P_b.
    """
    slab = isinstance(lat, SlabLattice)
    h = _assemble_slab(blocks, lat) if slab else _assemble_chain(blocks, lat.L, lat.bc)
    sides = [(lat.Lx, lat.bcx), (lat.Ly, lat.bcy)] if slab else [(lat.L, lat.bc)]
    n = h.shape[0] // 4
    h4 = h.reshape(n, 4, n, 4)
    tol = 1e-9 * max(np.abs(h).max(), 1.0)
    allowed = [[w for w in (1, 1j, -1, -1j) if bc != PERIODIC or abs(w**size - 1) < 1e-9]
               for size, bc in sides]
    gauges = []
    for ws in itertools.product(*allowed):
        g = np.ones(1, dtype=complex)
        for w, (size, _) in zip(ws, sides):
            g = np.kron(g, w ** np.arange(size))
        gauges.append(np.outer(g, g.conj())[:, None, :, None])
    names = ["".join(p) for p in itertools.product("0xyz", repeat=2)]
    pairs = [channel_matrix(name) for name in names]
    swap = np.eye(4)[[0, 2, 1, 3]]
    links = set()
    cliffords = _one_factor_cliffords()
    for u1, u2, w in itertools.product(cliffords, cliffords, (np.eye(4), swap)):
        big = np.kron(u1, u2) @ w
        turned = np.einsum("ab,ibjc,dc->iajd", big, h4, big.conj())
        for phase in gauges:
            for eps in (1, -1):
                if np.abs(phase * turned - eps * h4).max() <= tol:
                    for a, p in zip(names, pairs):
                        image = big @ p @ big.conj().T
                        coef = [np.trace(q.conj().T @ image).real / 4.0 for q in pairs]
                        b = int(np.argmax(np.abs(coef)))
                        links.add((a, names[b], eps * int(np.sign(coef[b]))))
    return frozenset(links)


def diagonalize(h, hermiticity_tol=1e-12):
    """Ascending eigenpairs by eigh; NonHermitianError past tol x max(norm, 1)."""
    h = np.asarray(h)
    dev = np.linalg.norm(h - h.conj().T)
    if dev > hermiticity_tol * max(np.linalg.norm(h), 1.0):
        raise NonHermitianError(
            f"matrix is not Hermitian: deviation {dev:.3e} exceeds {hermiticity_tol:.1e} x norm"
        )
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real
    return Eigenpairs(*np.linalg.eigh(h))


def dense_levels(h):
    """Ascending eigenvalues of h, from np.linalg.eigh.

    Not np.linalg.eigvalsh: with OpenBLAS 0.3.31 its eigenvalue-only path
    returns 1.98442969 for the level 1.984375 of the complex flat-band
    parent t = Delta = -0.9921875, mu = 8.6e-161 on 3 open sites, while
    eigh is exact to rounding there.
    """
    return np.linalg.eigh(h)[0]


def dense_zero_subspace(h, lat, tol=None, rel_tol=1e-8):
    """Zero subspace of an explicit lattice matrix, by one dense solve.

    tol is an absolute energy; by default it is rel_tol times the spectral
    spread, as in lattice.zero_subspace.
    """
    s = diagonalize(h)
    ev = s.eigenvalues
    tol = _zero_tol(float(ev[-1] - ev[0]), tol, rel_tol)
    sel = np.abs(ev) < tol
    psi = s.eigenvectors[:, sel]
    shape = (lat.L,) if isinstance(lat, ChainLattice) else (lat.Lx, lat.Ly)
    internal = h.shape[0] // int(np.prod(shape))
    per_site = (np.abs(psi) ** 2).sum(axis=1).reshape(-1, internal).sum(axis=1)
    blocks = psi.reshape(shape + (internal, psi.shape[1]))
    return ZeroSubspace(
        eigenvalues=ev,
        weights=per_site.reshape(shape),
        count=int(sel.sum()),
        tol=tol,
        spinors=lambda site: blocks[site],
    )


def dense_solver(spec, lat, tol=None, rel_tol=1e-8):
    """lattice.zero_subspace's dense counterpart: the whole matrix, one eigh."""
    build = build_chain if isinstance(lat, ChainLattice) else build_slab
    return dense_zero_subspace(build(spec, lat), lat, tol, rel_tol)


def apply_onsite_disorder(h, spec, realization, sites=None):
    """Add one disorder realization to a real-space Hamiltonian.

    The channel matrix dimension must divide the Hamiltonian into whole
    sites; pass the site count explicitly to cross-check against lattices
    whose dimension is divisible by both internal sizes.
    """
    mat = channel_matrix(spec.channel)
    d = mat.shape[0]
    if sites is None:
        if h.shape[0] % d:
            raise ConfigError(
                f"channel dimension {d} does not divide Hamiltonian dimension {h.shape[0]}"
            )
        sites = h.shape[0] // d
    elif d * sites != h.shape[0]:
        raise ConfigError(
            f"channel dimension {d} x {sites} sites != Hamiltonian dimension {h.shape[0]}"
        )
    v = site_potentials(spec, realization, sites)
    return h + np.kron(np.diag(v), mat)


def displacement_vs_amplitude(
    model,
    lat,
    channel,
    amplitudes,
    realizations=DEFAULT_REALIZATIONS,
    seed=DEFAULT_SEED,
    zero_tol=None,
):
    """Worst zero-mode displacement of robustness_sweep as a function of the bound W.

    Broken channels grow linearly in W on this curve while robust ones
    stay at the splitting floor, which is what makes the fixed verdict
    threshold defensible.
    """
    out = []
    for w in np.asarray(amplitudes, dtype=float):
        rep = robustness_sweep(
            model,
            lat,
            amplitude=w,
            channels=[channel],
            realizations=realizations,
            seed=seed,
            zero_tol=zero_tol,
        )
        out.append(rep.displacement[0, 0])
    return np.asarray(out)


def zero_basis(zs, lat):
    """All site spinors of a zero subspace stacked into its (dim, count) basis."""
    shape = (lat.L,) if isinstance(lat, ChainLattice) else (lat.Lx, lat.Ly)
    return np.concatenate([zs.spinors(site) for site in np.ndindex(*shape)])


def well_posed(ev, tol):
    """No eigenvalue sits within rounding reach of the zero tolerance."""
    return bool(np.all(np.abs(np.abs(ev) - tol) > 1e-3 * tol))


def classify_with(solver, spec, lat, scale=1.0):
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


def decisions(result):
    """The discrete outcome of a classification: labels, ranks and flags."""
    if not isinstance(result, dict):
        return result
    return {
        region: (res.labels, res.subspace_dimension, res.matches_table, res.row_complete)
        for region, res in result.items()
    }


@dataclass
class WindingCurve:
    """Closed sampled curve of (d_y, d_z) over one momentum period."""

    dy: np.ndarray
    dz: np.ndarray

    @property
    def closed(self):
        scale = max(float(np.hypot(self.dy, self.dz).max()), 1e-30)
        return (
            abs(self.dy[0] - self.dy[-1]) <= 1e-9 * scale
            and abs(self.dz[0] - self.dz[-1]) <= 1e-9 * scale
        )


def winding_number(curve):
    """Integer turns of (d_y, d_z) around the origin, by angle accumulation.

    A sample within 1e-9 of the curve's largest modulus of the origin
    raises CriticalCurveError.  Increments between consecutive samples are
    forced into (-pi, pi]; the accumulated total must land on an integer
    multiple of 2*pi within 1%.
    """
    z = np.asarray(curve.dy, dtype=float) + 1j * np.asarray(curve.dz, dtype=float)
    if z.size < 4:
        raise ValueError("curve too coarsely sampled")
    if not curve.closed:
        raise ValueError("winding_number needs a closed curve")
    dist = float(np.abs(z).min())
    if dist < 1e-9 * max(float(np.abs(z).max()), 1e-30):
        raise CriticalCurveError(
            f"sampled curve passes through the origin (min |d| = {dist:.3e})",
            origin_distance=dist,
        )
    total = float(np.angle(z[1:] / z[:-1]).sum()) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > 0.01:
        raise NumericalError(
            f"winding did not accumulate to an integer: {total:.6f} turns"
        )
    if abs(w) > z.size // 4:
        raise NumericalError("winding exceeds the resolvable bound for this sampling")
    return w


def sampled_parent_winding(p, samples):
    """topology.parent_winding, counted along the parent's sampled (d_y, d_z) = (R, -M) curve."""
    m, r = _mr(p, np.linspace(0.0, 2.0 * np.pi, samples + 1))
    return winding_number(WindingCurve(dy=r, dz=-m))


def component_dvector(spec, k, which):
    """(d_y, d_z) arrays of component 1 or 2; vectorized over momenta.

    Each component is a product of the factors' (M_i, R_i) at their own
    momenta: component 1 is (M2 R1 + M1 R2, R1 R2 - M1 M2), component 2 is
    (M2 R1 - M1 R2, -R1 R2 - M1 M2).
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    ka, kb = _split_child_momentum(spec, k)
    m1, r1 = _mr(spec.p1, ka)
    m2, r2 = _mr(spec.p2, kb)
    s = 1.0 if which == 1 else -1.0
    return m2 * r1 + s * m1 * r2, s * r1 * r2 - m1 * m2


def component_bloch(spec, k, which):
    """One 2x2 component block d_y s_y + d_z s_z, returned as ((d_y, d_z), matrix)."""
    dy, dz = component_dvector(spec, k, which)
    mat = np.asarray(dy)[..., None, None] * SY + np.asarray(dz)[..., None, None] * SZ
    return (dy, dz), mat


def sampled_winding_parallel(spec, samples):
    """(w1, w2) of the 1D child, each from its sampled product curve."""
    assert spec.orientation == PARALLEL
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    return tuple(
        winding_number(WindingCurve(*component_dvector(spec, ks, which))) for which in (1, 2)
    )


def sampled_winding_perp(spec, Lx, Ly, samples):
    """component_winding_perp's table, one sampled product curve per loop and component."""
    assert spec.orientation == PERPENDICULAR
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    table = {}
    for key, axis, n in (("rows", 0, Ly), ("columns", 1, Lx)):
        table[key] = []
        for m in range(n):
            fixed = 2.0 * np.pi * m / n
            kk = np.full((ks.size, 2), fixed)
            kk[:, axis] = ks
            rec = {"m": m, "fixed": fixed}
            for which in (1, 2):
                dy, dz = component_dvector(spec, kk, which)
                rec[f"w{which}"] = winding_number(WindingCurve(dy=dy, dz=dz))
            table[key].append(rec)
    return table


def block_diagonalize(spec, k):
    """Rotate the child into the fixed Bell-type basis and split into blocks.

    Returns (block1, block2, basis); block1 acts on the subspace built from
    the odd combinations and reproduces component 1, block2 reproduces
    component 2.  The off-diagonal 2x2 corners vanish identically because
    the child commutes with t_x s_x; SingularConfigError if they do not.
    """
    h = child_bloch(spec, k)
    ht = BLOCK_BASIS.conj().T @ h @ BLOCK_BASIS
    off = max(_opnorm(ht[..., :2, 2:]), _opnorm(ht[..., 2:, :2]))
    scale = max(1.0, _opnorm(h))
    if off > 1e-9 * scale:
        raise SingularConfigError(f"block structure violated: off-block norm {off:.3e}")
    return ht[..., :2, :2], ht[..., 2:, 2:], BLOCK_BASIS.copy()


def winding_locus_check(spec, ky, samples=4096):
    """Residual of the circular-locus identity of the first component curve.

    For t1 = Delta1 the (d_y, d_z) curve at fixed ky lies on a circle of
    radius 2 t1 rho2 centered at (0, -mu1 rho2) after rotating by the angle
    theta with tan theta = R2/M2, where M2 = mu2 + 2 t2 cos ky and
    R2 = 2 Delta2 sin ky, rho2 = sqrt(M2^2 + R2^2).
    """
    if spec.orientation != PERPENDICULAR:
        raise ValueError("winding_locus_check needs a perpendicular child")
    if abs(spec.p1.t - spec.p1.delta) > 1e-12:
        raise ValueError("locus identity requires t1 = Delta1")
    m2, r2 = _mr(spec.p2, ky)
    rho2 = float(np.hypot(m2, r2))
    if rho2 < 1e-12:
        raise SingularConfigError(
            "second-factor modulation vanishes at this ky; rotation angle undefined"
        )
    ct, st = m2 / rho2, r2 / rho2
    ks = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    kk = np.stack([ks, np.full_like(ks, float(ky))], axis=-1)
    dy, dz = component_dvector(spec, kk, 1)
    lhs = (ct * dy + st * dz) ** 2 + (ct * dz - st * dy + spec.p1.mu * rho2) ** 2
    rhs = (2.0 * spec.p1.t * rho2) ** 2
    return float(np.abs(lhs - rhs).max())


def _occupied(h_stack, ks, gap_tol=1e-12):
    """Occupied projectors along a path, plus the anchor eigenvectors.

    Occupied means the lower half of the spectrum at each point; an exact
    tie across the middle gap makes the projector ill-defined.
    """
    evals, evecs = np.linalg.eigh(h_stack)
    f = evals.shape[-1] // 2
    scale = max(float(np.abs(evals).max()), 1e-30)
    gaps = evals[:, f] - evals[:, f - 1]
    bad = np.nonzero(gaps <= gap_tol * scale)[0]
    if bad.size:
        k = float(np.atleast_1d(ks[bad[0]]).ravel()[0])
        raise GaplessPathError(
            f"occupied subspace undefined: half-filling gap closes at k={k:.6f}", k=k
        )
    occ = evecs[:, :, :f]
    projectors = occ @ occ.conj().swapaxes(-1, -2)
    return projectors, occ[0]


def wilson_loop(projectors, anchor, ks=None):
    """Unitary Wilson matrix from ordered projectors and anchor eigenvectors.

    W_mn = <u_m(k0)| P(k_{R-1}) ... P(k_1) |u_n(k0)>, polar-unitarized (the
    raw product is sub-unitary at finite R).
    """
    acc = anchor
    for i in range(1, len(projectors)):
        acc = projectors[i] @ acc
        if i % 64 == 0:
            # renormalize occasionally so long paths do not underflow
            nrm = np.linalg.norm(acc)
            if nrm < 1e-30:
                label = f" near k={ks[i]:.6f}" if ks is not None else ""
                raise GaplessPathError(f"projector product collapsed{label}")
            acc = acc / nrm
    u, s, vh = np.linalg.svd(anchor.conj().T @ acc)
    if s.min() < 1e-12 * max(s.max(), 1e-30):
        raise GaplessPathError("Wilson matrix numerically singular on this path")
    return u @ vh


def _centers_from_wilson(w):
    phases = np.angle(np.linalg.eigvals(w)) / (2.0 * np.pi)
    return np.sort(phases % 1.0)


def _loop_centers(h_stack, ks, path_label):
    projectors, anchor = _occupied(h_stack, ks)
    w = wilson_loop(projectors, anchor, ks)
    return WannierSpectrum(
        centers=_centers_from_wilson(w), filling=anchor.shape[1], path=path_label
    )


def dense_wannier_parent(p, R):
    """topology.wannier_center_parent by the Wilson loop of the 2x2 Bloch matrices."""
    ks = 2.0 * np.pi * np.arange(R) / R
    return _loop_centers(parent_bloch(p, ks), ks, "parent loop k:0..2pi")


def dense_wannier_parallel(spec, R):
    """topology.wannier_centers_parallel by the 4x4 Wilson loop of the child."""
    ks = 2.0 * np.pi * np.arange(R) / R
    return _loop_centers(child_bloch(spec, ks), ks, "child loop k:0..2pi")


def dense_wannier_perp(spec, loop_direction, fixed_momentum, R):
    """topology.wannier_centers_perp by the 4x4 Wilson loop of the child."""
    ks = 2.0 * np.pi * np.arange(R) / R
    kk = np.full((R, 2), float(fixed_momentum))
    kk[:, "xy".index(loop_direction)] = ks
    label = f"child loop k{loop_direction}:0..2pi @ fixed={float(fixed_momentum):.6f}"
    return _loop_centers(child_bloch(spec, kk), ks, label)


def _standing_wave_ratio(R1, R2, theta, N):
    den = R1 * R1 + R2 * R2 - 2.0 * R1 * R2 * np.cos(2.0 * theta)
    if abs(den) < 1e-14:
        raise SingularConfigError(f"standing-wave denominator vanishes at theta={theta!r}")
    num = R1 ** (2 * (N + 2)) + R2 ** (2 * (N + 2)) - 2.0 * (R1 * R2) ** (N + 2) * np.cos(
        2.0 * (N + 2) * theta
    )
    return num / den


def quantization_residual(R1, R2, theta1, theta2, N):
    """Mismatch of the two closed standing-wave ratios; zero at exact points.

    The two ratios are evaluated at the half-sum and half-difference of the
    branch angles; equality is the condition for a zero-energy standing wave
    on N sites with next-nearest-neighbour boundary conditions.
    """
    plus = _standing_wave_ratio(R1, R2, 0.5 * (theta1 + theta2), N)
    minus = _standing_wave_ratio(R1, R2, 0.5 * (theta1 - theta2), N)
    return plus - minus


def whole_corner_potentials(child, L):
    """Exact-zero potentials of the open shared-mu child, each chiral corner as one pencil.

    The reference for lattice.exact_zero_potentials, which cuts each
    corner into its connected components first: here every L x L corner
    A0 + mu A1 - mu^2 I takes one companion [[0, I], [A0, A1]], balanced
    at the hopping reach of the whole chain, and every candidate is
    level-tested against the whole corner, so a sign-mixed root is a
    double root of its corner, once per sublattice.
    """
    lat = ChainLattice(L)
    coeffs = [
        {r: c for r, c in blocks.items() if abs(r) < L}
        for blocks in _mu_coefficients(child, LINK_EQUAL)[:2]
    ]
    reach = max(coeffs[0])
    offset = np.clip(np.subtract.outer(np.arange(L), np.arange(L)), -reach, reach)
    corners = [[c for c, _, _ in _chiral_corners(blocks, lat)] for blocks in coeffs]
    pencils, found = list(zip(*corners)), []
    for a0, a1 in pencils:
        outer = abs(a0[0, reach]), abs(a0[reach, 0])
        tol = SYMMETRY_TOL * max(1.0, np.abs(a0).max())
        rho = (outer[0] / outer[1]) ** (0.5 / reach) if min(outer) > tol else 1.0
        comp = np.block([[np.zeros((L, L)), np.eye(L)], [a0 * rho**offset, a1 * rho**offset]])
        lam = np.linalg.eigvals(comp)
        x = lam.real[np.abs(lam.imag) <= ROOT_SPREAD * (1.0 + np.abs(lam))]
        s = _levels(a0, a1, x)
        band = s[:, 0].copy()
        weak = s[:, -1] > EXACT_ZERO_TOL * band
        band[weak] = np.max([_levels(b0, b1, x[weak])[:, 0] for b0, b1 in pencils], axis=0)
        found.append(_distinct(x[s[:, -1] <= EXACT_ZERO_TOL * band], ROOT_SPREAD))
    return _distinct(np.concatenate(found), ROOT_MATCH)


def serialize_config(cfg):
    """Canonical text for a RunConfig, output routing included; parse_config reads it back."""
    sections = cfg.echo()
    sections["output"] = {"path": cfg.output_path, "format": cfg.output_format}
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
