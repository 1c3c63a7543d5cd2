"""Dense references for mkc's structured solvers, and the comparisons made with them.

mkc never builds a full chain or slab matrix: clean models are solved
from the chiral corners of their hopping blocks, slabs as two factor
chains and disordered models in symmetry blocks.  The builders here
assemble the whole matrix from the same hopping blocks with Kronecker
products, and diagonalize it with one dense eigh, so that every fast path
can be checked against the plain solve.  displacement_vs_amplitude checks
the disorder verdict's fixed threshold by its linear growth in W, and
dense_part cuts each disorder part from its assembled clean matrix, where
mkc cuts it from the part's lattice entries.  The helpers at the end compare
zero subspaces by projectors, densities and classification decisions,
never by single eigenvectors; svd_classify_zero_modes classifies by the
wide SVD of each region's per-site spinor stack, where mkc reads the
region's 4x4 Gram matrix.  The winding references sample each
parent curve, and each child component curve as the product it is, and
count their turns by angle accumulation (winding_number), where mkc reads
every winding from the parents' closed form.  The Wannier references run
the multiband Wilson loop of the full 2x2 or 4x4 Bloch matrices
(parent_bloch for a parent), where mkc reads the centers from the
parents' windings, and center_distance compares centers mod 1.
component_dvector and component_bloch give each two-band child component
as the product of its parents' (M, R); block_diagonalize checks them by
rotating the full 4x4 child into the Bell basis, and winding_locus_check
the circle identity of a perpendicular component curve.
quantization_residual is the paper's standing-wave condition, the oracle
of the exact-zero potentials, and whole_corner_potentials finds them with
one companion per chiral corner, where mkc solves each connected
component of the corner's pencil.  site_symmetry_links finds the
channel links of disorder._site_symmetries by brute force: every
Clifford unitary, site gauge and sign on the whole lattice matrix, and
pairwise_solve_owners tests each pair of channel matrices for the
relations of disorder._solve_owners, which reads them from a table.
serialize_config writes a run config back as text, output routing
included, and plain_csv writes a task's CSV with one _format_value per
cell, where the command line formats a block's shared cells and each
+-E level once.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from unittest import mock

import numpy as np

from mkc import boundary
from mkc.config import _format_value
from mkc.boundary import (
    CLASSIFICATION_FRAME,
    LN2,
    PRODUCT_VECTORS,
    MmzmClass,
    StateLabel,
    classify_zero_modes,
    expected_boundary_states,
)
from mkc.disorder import (
    DEFAULT_REALIZATIONS,
    BlockSolver,
    DEFAULT_SEED,
    channel_matrix,
    channel_name,
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
    LINK_EQUAL,
    PERIODIC,
    ChainLattice,
    SlabLattice,
    _chiral_corners,
    _components,
    _distinct,
    _levels,
    _bonds,
    _mu_coefficients,
    _negligible,
    _zero_tol,
    chain_hopping_blocks,
    slab_factor_blocks,
    slab_hopping_blocks,
    zero_subspace,
)
from mkc.models import (
    BELL_VECTORS,
    BLOCK_BASIS,
    PARALLEL,
    PERPENDICULAR,
    SY,
    SZ,
    _C1,
    _C2,
    _U,
    _factor_bloch,
    _mr,
    _opnorm,
    _split_child_momentum,
    child_bloch,
    reduce_momentum,
)
from mkc.tolerance import EXACT_ZERO_TOL, ROOT_MATCH, ROOT_SPREAD, SYMMETRY_TOL
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


def assemble_frame(fb, rows, cols, lat):
    """The lattice matrix of the rotated blocks of fb restricted to frame rows x cols.

    The block of displacement r sits on every (site j, site j + r) position
    of lattice._bonds, internal index minor; periodic bonds that fold onto
    the same position accumulate, from 0.0 in dict order.  mkc builds only
    single-entry chain corners, diagonal by diagonal (_FrameBlocks.corner),
    and cuts the larger parts of slabs from their lattice entries
    (mkc.parts); this assembles any part of a chain or slab.
    """
    sites = lat.Lx * lat.Ly if isinstance(lat, SlabLattice) else lat.L
    nr, nc = np.count_nonzero(rows), np.count_nonzero(cols)
    h = np.zeros((sites, nr, sites, nc))
    for r, blk in fb.rotated.items():
        i, j = _bonds(lat, r)
        h[i, :, j, :] += blk[np.ix_(rows, cols)]
    return h.reshape(sites * nr, sites * nc)


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


def pairwise_solve_owners(channels, links):
    """disorder._solve_owners by pairwise tests on the channel matrices.

    Channel c joins every earlier channel o that is its twin (P_c
    proportional to U P_o, with {U, P_o} = 0 or P_o flippable) or that a
    link (o, c, 1), or (o, c, -1) with P_c flippable, reaches; flippable
    means commuting with C1 or C2, or imaginary.  Each test runs on the
    4x4 matrices at every call, where mkc reads a table built at import.
    """

    def commutes(a, b):
        return _negligible(a @ b - b @ a)

    def flippable(p):
        return commutes(p, _C1) or commutes(p, _C2) or _negligible(p.real)

    def twins(p, q):
        if p.shape != _U.shape or abs(np.trace(q.conj().T @ _U @ p)) < 2.0:
            return False  # distinct Pauli pairs are trace-orthogonal
        return _negligible(_U @ p + p @ _U) or flippable(p)

    def linked(o, c):
        edge = (channel_name(channels[o]), channel_name(channels[c]))
        return edge + (1,) in links or (edge + (-1,) in links and flippable(mats[c]))

    mats = [channel_matrix(channel) for channel in channels]
    owners = list(range(len(mats)))

    def find(c):
        while owners[c] != c:
            c = owners[c]
        return c

    for c, q in enumerate(mats):
        for o in range(c):
            if twins(mats[o], q) or linked(o, c):
                a, b = sorted((find(o), find(c)))
                owners[b] = a
    return tuple(find(c) for c in range(len(mats)))


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
    eigh is exact to rounding there.  eigh itself raises "Eigenvalues did
    not converge" from the lower triangle of some matrices (the open 6x6
    slab of _UNCONVERGED_SLAB in tests/test_disorder.py), whose upper
    triangle converges to the same spectrum, so it retries from that one.
    """
    try:
        return np.linalg.eigh(h)[0]
    except np.linalg.LinAlgError:
        return np.linalg.eigh(h, UPLO="U")[0]


@dataclass
class DenseZeroSubspace:
    """lattice.ZeroSubspace's fields, plus the full ascending spectrum of the dense solve."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    count: int
    tol: float
    spinors: object


def dense_zero_subspace(h, lat, tol=None):
    """Zero subspace of an explicit lattice matrix, by one dense solve.

    tol is an absolute energy; by default it is BAND_ZERO_TOL times the
    spectral spread, as in lattice.zero_subspace.
    """
    s = diagonalize(h)
    ev = s.eigenvalues
    tol = _zero_tol(float(ev[-1] - ev[0]), tol)
    sel = np.abs(ev) < tol
    psi = s.eigenvectors[:, sel]
    shape = (lat.L,) if isinstance(lat, ChainLattice) else (lat.Lx, lat.Ly)
    internal = h.shape[0] // int(np.prod(shape))
    per_site = (np.abs(psi) ** 2).sum(axis=1).reshape(-1, internal).sum(axis=1)
    blocks = psi.reshape(shape + (internal, psi.shape[1]))
    return DenseZeroSubspace(
        eigenvalues=ev,
        weights=per_site.reshape(shape),
        count=int(sel.sum()),
        tol=tol,
        spinors=lambda site: blocks[site],
    )


def dense_solver(spec, lat, tol=None):
    """lattice.zero_subspace's dense counterpart: the whole matrix, one eigh."""
    build = build_chain if isinstance(lat, ChainLattice) else build_slab
    return dense_zero_subspace(build(spec, lat), lat, tol)


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


def dense_part(solver, rows, cols, joins):
    """The class groups of disorder.BlockSolver._part, cut from the assembled clean part.

    The part rows x cols is assembled as one (L nr) x (L nc) matrix
    (assemble_frame); its graph is |clean| > tol plus the site-term
    positions of joins, cut by lattice._components, and each group's stack
    is gathered from the matrix.  Returns [(clean, idx, site, entry, free)].
    """
    clean = assemble_frame(solver._blocks, rows, cols, solver._lat)
    nr, nc = clean.shape[0] // solver.sites, clean.shape[1] // solver.sites
    a, b = np.nonzero(joins)
    site = np.repeat(np.arange(solver.sites), a.size)
    entry = np.tile(np.arange(a.size), solver.sites)
    row, col = site * nr + a[entry], site * nc + b[entry]
    joined = np.abs(clean) > solver._blocks.tol
    joined[row, col] = True
    symmetric = np.array_equal(rows, cols)
    groups = []
    for ri, ci in _components(*np.nonzero(joined), *joined.shape, symmetric):
        n = ri.shape[1]
        at_r, at_c = np.full(clean.shape[0], -1), np.zeros(clean.shape[1], dtype=np.intp)
        at_r[ri.ravel()] = np.arange(ri.size)
        at_c[ci.ravel()] = np.arange(ci.size)
        hit = at_r[row] >= 0
        idx = at_r[row[hit]] * n + at_c[col[hit]] % n
        stack = clean[ri[:, :, None], ci[:, None, :]]
        edges = stack != 0
        edges.reshape(-1)[idx] = True
        trees = not symmetric and np.all(edges.sum(axis=(1, 2)) == 2 * n - 1)
        free = np.full(a.size, trees)
        free[entry[hit][stack.reshape(-1)[idx] != 0]] = False
        groups.append((stack, idx, site[hit], entry[hit], free))
    return groups


class DenseParts(BlockSolver):
    """A BlockSolver whose parts are cut from assembled matrices (dense_part)."""

    def _part(self, rows, cols, joins):
        key = (rows.tobytes(), cols.tobytes(), joins.tobytes())
        return key, dense_part(self, rows, cols, joins)


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
    return zs.spinors(tuple(np.indices(shape).reshape(len(shape), -1))).reshape(-1, zs.count)


def well_posed(ev, tol):
    """No eigenvalue sits within rounding reach of the zero tolerance."""
    return bool(np.all(np.abs(np.abs(ev) - tol) > 1e-3 * tol))


def classify_with(solver, spec, lat, scale=1.0):
    """classify_zero_modes on the given solver, or the ConfigError it raises.

    scale multiplies every decision threshold of the classification, as
    boundary reads them from the tolerance policy: SITE_TOL, RANK_TOL,
    ENTROPY_TOL and 1 - OVERLAP_MIN.
    """
    scaled = dict(
        SITE_TOL=boundary.SITE_TOL * scale,
        RANK_TOL=boundary.RANK_TOL * scale,
        ENTROPY_TOL=boundary.ENTROPY_TOL * scale,
        OVERLAP_MIN=1.0 - (1.0 - boundary.OVERLAP_MIN) * scale,
    )
    with mock.patch.object(boundary, "zero_subspace", solver), mock.patch.multiple(boundary, **scaled):
        try:
            return classify_zero_modes(spec, lat)
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


def svd_entropy(vec):
    """Factor-cut entropy from the singular values of the 2x2 reshaped 4-vector."""
    sv = np.linalg.svd(np.asarray(vec, dtype=complex).reshape(2, 2), compute_uv=False)
    prob = sv**2 / float((sv**2).sum())
    prob = prob[prob > 1e-300]
    return float(-(prob * np.log(prob)).sum())


# The catalogue in peel order: products before entangled pairs.
REFERENCE_ORDER = [f"prod:{n}" for n in PRODUCT_VECTORS] + [f"bell:{n}" for n in BELL_VECTORS]


def reference_vector(label):
    """The catalogue state named "prod:<name>" or "bell:<name>"."""
    kind, name = label.split(":", 1)
    return (PRODUCT_VECTORS if kind == "prod" else BELL_VECTORS)[name]


def orthonormal_columns(mat, rel_tol=1e-8):
    """Left singular vectors of mat above rel_tol of its leading singular value."""
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return u[:, :0]
    return u[:, sv > rel_tol * sv[0]]


def _deflate_peel(basis, overlap_min):
    """The greedy peel on the basis itself, one SVD per peeled reference.

    mkc peels a 4x4 projector instead.  The basis columns are orthonormal:
    surviving directions keep singular values near 1, so an absolute cut is
    the right one (a relative cut would resurrect noise once the last
    direction is removed).
    """
    accepted = []
    for label in REFERENCE_ORDER:
        if basis.shape[1] == 0:
            break
        coeff = basis.conj().T @ reference_vector(label)
        if float((np.abs(coeff) ** 2).sum()) > overlap_min:
            v = basis @ coeff
            v = v / np.linalg.norm(v)
            accepted.append(v)
            u, sv, _ = np.linalg.svd(basis - np.outer(v, v.conj() @ basis), full_matrices=False)
            basis = u[:, sv > 1e-8]
    return accepted, basis


def label_state(v, entropy_tol=1e-6, overlap_min=0.999, entropy=svd_entropy):
    """One state's label by its factor-cut entropy and best overlap, scored per reference."""
    S = entropy(v)
    if abs(S - LN2) < entropy_tol:
        scores = {n: float(abs(b.conj() @ v) ** 2) for n, b in BELL_VECTORS.items()}
        name = max(scores, key=scores.get)
        if scores[name] > overlap_min:
            return StateLabel(f"bell:{name}", S, scores[name], v)
        return StateLabel("unclassified", S, max(scores.values()), v)
    if S < entropy_tol:
        scores = {n: float(abs(b.conj() @ v) ** 2) for n, b in PRODUCT_VECTORS.items()}
        name = max(scores, key=scores.get)
        if scores[name] > overlap_min:
            return StateLabel(f"prod:{name}", S, scores[name], v)
        return StateLabel("prod:other", S, max(scores.values()), v)
    return StateLabel("unclassified", S, 0.0, v)


def svd_mmzm_classify(content, expected=None, entropy_tol=1e-6, overlap_min=0.999):
    """mmzm_classify of one region's content columns, one region at a time.

    The columns are orthonormalized by an SVD, peeled by _deflate_peel and
    labeled by label_state with 2x2-SVD entropies; the catalogue checks
    score each state and each expected pair separately.
    """
    basis = orthonormal_columns(content)
    if basis.shape[1] == 0:
        raise ConfigError("zero subspace is empty")
    ct = CLASSIFICATION_FRAME.conj().T @ basis
    accepted, residual = _deflate_peel(ct, overlap_min)
    cols = accepted + [residual[:, k] for k in range(residual.shape[1])]
    states = tuple(label_state(v, entropy_tol, overlap_min) for v in cols)
    matches = complete = None
    if expected is not None:
        expected = tuple(expected)
        refs = np.stack([reference_vector(lbl) for lbl in expected] or [np.zeros(4)], axis=1)
        matches = all(s.label != "unclassified" for s in states) and all(
            float((np.abs(refs.conj().T @ s.vector) ** 2).sum()) > overlap_min for s in states
        )
        complete = all(
            float((np.abs(ct.conj().T @ reference_vector(lbl)) ** 2).sum()) > overlap_min
            for lbl in expected
            if lbl.startswith("bell:")
        )
    return MmzmClass(
        states=states,
        subspace_dimension=basis.shape[1],
        expected=expected,
        matches_table=matches,
        row_complete=complete,
    )


def peak_site_stacks(zs, lat, site_tol=1e-6):
    """Per region, the spinors of its peak-density sites side by side, shape (internal, N)."""
    out = {}
    for region, sl in boundary._region_slices(lat).items():
        sub = zs.weights[sl]
        peak = float(sub.max())
        if peak > 0.0:
            offset = np.array([s0.start or 0 for s0 in sl])
            idx = np.argwhere(sub >= (1.0 - site_tol) * peak) + offset
            out[region] = np.concatenate([zs.spinors(tuple(i)) for i in idx], axis=1)
    return out


def svd_classify_zero_modes(spec, lat, zero_tol=None, site_tol=1e-6, rank_tol=1e-6):
    """classify_zero_modes by the wide SVD of each region's per-site spinor stack.

    The content is the left singular vectors of the stack above rank_tol
    of the leading one, classified region by region by svd_mmzm_classify.
    """
    zs = zero_subspace(spec, lat, tol=zero_tol)
    if zs.count == 0:
        return {}
    out = {}
    for region, stack in peak_site_stacks(zs, lat, site_tol).items():
        content = orthonormal_columns(stack, rel_tol=rank_tol)
        if content.shape[1]:
            out[region] = svd_mmzm_classify(content, expected_boundary_states(spec, lat, region))
    return out


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


def parent_bloch(p, k):
    """2x2 Bloch matrix of the parent chain; broadcasts over an array of k."""
    return _factor_bloch(p, reduce_momentum(k), -1.0)


def center_distance(a, b):
    """Distance between Wannier centers on the unit circle (mod 1)."""
    return np.abs((np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5)


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


def plain_csv(cfg, payload):
    """The CSV text of cli.render_csv, one _format_value per cell of every row."""
    lines = [
        f"# {section}.{key} = {value}"
        for section, values in cfg.echo().items()
        for key, value in values.items()
    ]
    lines.append(",".join(payload["columns"]))
    lines += [",".join(map(_format_value, row)) for row in payload["rows"]]
    return "\n".join(lines) + "\n"
