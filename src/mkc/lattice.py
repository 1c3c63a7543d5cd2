"""Clean Hamiltonians on finite chains and slabs, solved through their structure.

A model is given by the hopping blocks of the inverse Fourier transform of
its Bloch matrix, H(k) = sum_r H_r e^{ikr} with H_r sitting on the (j, j+r)
block.  Open boundaries truncate wrapped bonds, periodic ones fold them back
with accumulation (so small periodic rings stay consistent with the
quantized-momentum Bloch spectra).

No solver here builds the full chain or slab matrix.  Every clean model is
real and chiral, and the child commutes with t_x s_x: _FrameBlocks checks
this on the hopping blocks and rotates them into one real frame, and it is
the only way a clean model reaches a solver; its split() picks the solver
blocks of clean and disordered models alike.  One rule (_components)
cuts a block further into the connected components of its node graph:
disorder cuts each disordered block so, and exact_zero_potentials
each corner's quantization pencil, so the sign-mixed child solves the
sector of its zeros as its two sublattices.  In that frame a chain splits
into one (parent) or two (child) chiral blocks [[0, A], [A^T, 0]], so its
spectrum comes from the singular values of the real L x L corners A and
its eigenvectors from their SVD.  A corner is built diagonal by diagonal
(_FrameBlocks.corner).  No level takes an SVD: an open corner is Toeplitz, so persymmetric, and its levels
are the |eigenvalues| of the symmetric J A (J the reversal), of its two
reflection halves when A is symmetric too, or the entry moduli of a
weighted matching, exactly; a periodic corner is circulant, and its levels
are the moduli of its symbol at the momenta 2 pi n / L (both in
mkc.toeplitz).  Chemical potential enters the corners as one quadratic
pencil A0 + mu (A1 + mu A2), which sweeps evaluate instead of rebuilding
the chain; an open pencil with scalar A0 and A2 and tridiagonal Toeplitz
A1, as one sector of a child of two dead-point parents with t1 = t2 at the
equal link, takes closed-form levels (toeplitz.pencil_levels).  A slab is the tensor product of two
parent chains and is solved as those two chains.
"""

import functools

import numpy as np
from dataclasses import dataclass, replace

from .errors import ConfigError, NonHermitianError, SymmetryError
from .models import (
    _C1,
    _C2,
    _U,
    BLOCK_BASIS,
    PARALLEL,
    SX,
    SY,
    SZ,
    ChildSpec,
    ParentParams,
)
from .solve import eigenvalues, singular_pairs, singular_values
from .toeplitz import circulant_levels, pencil_levels, persymmetric_levels

OPEN = "open"
PERIODIC = "periodic"

LINK_EQUAL = "equal"        # mu1 = mu2 = mu
LINK_OPPOSITE = "opposite"  # mu1 = mu, mu2 = -mu
LINK_FIXED2 = "fixed"       # mu1 = mu, mu2 held at the template value


def _check_bc(bc):
    if bc not in (OPEN, PERIODIC):
        raise ValueError(f"boundary condition must be {OPEN!r} or {PERIODIC!r}, got {bc!r}")


@dataclass(frozen=True)
class ChainLattice:
    L: int
    bc: str = OPEN

    def __post_init__(self):
        if int(self.L) != self.L or self.L < 1:
            raise ConfigError(f"chain length must be a positive integer, got {self.L!r}")
        _check_bc(self.bc)


@dataclass(frozen=True)
class SlabLattice:
    Lx: int
    Ly: int
    bcx: str = OPEN
    bcy: str = OPEN

    def __post_init__(self):
        for name in ("Lx", "Ly"):
            v = getattr(self, name)
            if int(v) != v or v < 3:
                raise ConfigError(f"{name} must be an integer >= 3, got {v!r}")
        _check_bc(self.bcx)
        _check_bc(self.bcy)


def _bonds(lat, r):
    """Site pairs (j, j + r) joined by displacement r, folded for PBC.

    Chain displacements are integers; slab ones are pairs (rx, ry), with
    site = ix * Ly + iy.  ConfigError for a chain of at most |r| sites.
    """
    if isinstance(lat, SlabLattice):
        ix, jx = _bonds(ChainLattice(lat.Lx, lat.bcx), r[0])
        iy, jy = _bonds(ChainLattice(lat.Ly, lat.bcy), r[1])
        return (ix[:, None] * lat.Ly + iy).ravel(), (jx[:, None] * lat.Ly + jy).ravel()
    if lat.L < abs(r) + 1:
        raise ConfigError(f"chain of length {lat.L} too short for range-{abs(r)} hopping")
    j = np.arange(lat.L) if lat.bc == PERIODIC else np.arange(max(-r, 0), lat.L - max(r, 0))
    return j, (j + r) % lat.L


def _factor_blocks(p, sign):
    """Hopping blocks of sign (2t cos k + mu) s_z + 2 Delta sin k s_y (models._factor_bloch)."""
    a1 = sign * p.t * SZ - 1j * p.delta * SY
    return {-1: a1.conj().T, 0: sign * p.mu * SZ, 1: a1}


def chain_hopping_blocks(spec):
    """{r: block} of the inverse Fourier transform, r the site displacement."""
    if isinstance(spec, ParentParams):
        return _factor_blocks(spec, -1.0)
    if not isinstance(spec, ChildSpec) or spec.orientation != PARALLEL:
        raise ValueError("chain models are the parent and the parallel child")
    return _product_blocks(_factor_blocks(spec.p1, -1.0), _factor_blocks(spec.p2, 1.0))


def _kron2(x, y):
    """np.kron of two 2x2 blocks, as the one broadcast product np.kron makes.

    Bitwise equal to np.kron and about seven times faster on blocks this small.
    """
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)


def _product_blocks(a, b):
    """Chain blocks of the parallel product of two factor chains' blocks."""
    h0 = _kron2(a[0], b[0]) + _kron2(a[1], b[-1]) + _kron2(a[-1], b[1])
    h1 = _kron2(a[0], b[1]) + _kron2(a[1], b[0])
    h2 = _kron2(a[1], b[1])
    return {-2: h2.conj().T, -1: h1.conj().T, 0: h0, 1: h1, 2: h2}


def slab_factor_blocks(spec):
    """Hopping blocks of the two parent chains whose tensor product is the slab.

    Returns (a, b): the first-factor chain of p1, along x, and the
    second-factor chain of p2, along y.  The slab's block of displacement
    (rx, ry) is kron(a[rx], b[ry]).
    """
    if not isinstance(spec, ChildSpec) or spec.orientation == PARALLEL:
        raise ValueError("slab models need a perpendicular child")
    return _factor_blocks(spec.p1, -1.0), _factor_blocks(spec.p2, 1.0)


def slab_hopping_blocks(spec):
    """{(rx, ry): 4x4 block} over displacements rx, ry in {-1, 0, 1}."""
    a, b = slab_factor_blocks(spec)
    return {(ra, rb): _kron2(a[ra], b[rb]) for ra in (-1, 0, 1) for rb in (-1, 0, 1)}


# The relative size, against the scale of a clean model's hopping blocks, up
# to which an entry that a symmetry discards counts as zero.
SYMMETRY_TOL = 1e-12


def _support(a):
    """The entries of a that do not round to zero: where _negligible fails."""
    return np.abs(a) >= SYMMETRY_TOL


def _negligible(a):
    """True when every entry of a (site-term entries, of order 1) rounds to zero."""
    return not a.size or np.abs(a).max() < SYMMETRY_TOL


_HX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)  # s_x eigenvectors, +1 then -1


@functools.cache
def _site_frame(internal):
    """Real site frame of joint symmetry eigenvectors, with their labels.

    Returns (frame, q, chirals): frame columns are the new site basis, q
    their t_x s_x eigenvalues (all +1 for the parent, which has no such
    symmetry) and chirals a tuple of (name, eigenvalues) per chiral
    operator.  The child frame pairs the BLOCK_BASIS columns inside each
    t_x s_x eigenspace (columns 0, 1 and 2, 3) into eigenvectors of both
    chiral operators.  Each frame is built once, on first use, and every
    _FrameBlocks of its site size shares it, so its arrays are read-only.
    """
    if internal == 2:
        frame, q_op, chirals = _HX, np.eye(2), [("s_x", SX)]
    elif internal == 4:
        frame = BLOCK_BASIS.real @ np.kron(np.eye(2), _HX)
        q_op, chirals = _U, [("t_0 s_x", _C1), ("t_x s_0", _C2)]
    else:
        raise ConfigError(f"sites must carry 2 or 4 internal components, got {internal}")

    def fixed(a):
        a.setflags(write=False)
        return a

    def labels(op):
        return fixed(np.rint(np.diag(frame.T @ op.real @ frame)))

    return fixed(frame), labels(q_op), tuple((name, labels(op)) for name, op in chirals)


class _FrameBlocks:
    """A clean model's hopping blocks, checked and rotated into its real frame.

    Every clean Hamiltonian reaches a solver through this class.  The
    constructor checks H_{-r} = H_r^H (NonHermitianError) and that every
    block is real (SymmetryError), then rotates each block into the frame
    of _site_frame: rotated[r] = frame^T H_r frame.  require() checks one
    symmetry on the rotated blocks.  Both checks allow SYMMETRY_TOL x
    scale, the scale being max(norm of all blocks, 1).  Keys are chain
    displacements r or slab displacements (rx, ry).  split() picks the
    blocks every solver works on, and corner() gives a chain's chiral
    corner as an L x L matrix; disorder._site_symmetries searches them,
    within tol, for the site-local symmetries that pair disorder channels.
    """

    def __init__(self, blocks):
        scale = max(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks.values())), 1.0)
        self.tol = SYMMETRY_TOL * scale
        for r, blk in blocks.items():
            back = tuple(-x for x in r) if isinstance(r, tuple) else -r
            if back not in blocks or np.linalg.norm(blocks[back] - blk.conj().T) > self.tol:
                raise NonHermitianError(f"hopping block {back} is not the adjoint of block {r}")
            if np.linalg.norm(np.imag(blk)) > self.tol:
                raise SymmetryError(f"hopping block {r} is not real")
        internal = next(iter(blocks.values())).shape[0]
        self.frame, self.q, self.chirals = _site_frame(internal)
        self.rotated = {r: self.frame.T @ np.real(blk) @ self.frame for r, blk in blocks.items()}
        self._checked = set()

    def require(self, name, kept):
        """SymmetryError unless every entry outside the mask kept[i, j] vanishes."""
        if name in self._checked:
            return
        for r, blk in self.rotated.items():
            off = np.abs(blk[~kept]).max(initial=0.0)
            if off > self.tol:
                raise SymmetryError(
                    f"hopping block {r} breaks {name}: discarded entry {off:.3e} "
                    f"exceeds {SYMMETRY_TOL:.0e} x scale"
                )
        self._checked.add(name)

    def split(self, p):
        """[(rows, cols, corner)]: the smallest blocks of the model plus a site term p.

        p is in frame coordinates, 0 for the clean model.  There is one part
        per t_x s_x eigenvalue, ascending, when p keeps t_x s_x, else one
        part.  Inside a part, rows and cols are the + and - columns of the
        first chiral operator that p anticommutes with (corner True: the
        block's |E| are the singular values of the rows x cols corner, each
        twice), else both the whole part.  Each symmetry is required first.
        """
        q = self.q
        p = np.broadcast_to(p, (q.size, q.size))
        same = q[:, None] == q[None, :]
        parts = [np.ones(q.size, dtype=bool)]
        if _negligible(p[~same]):
            self.require("t_x s_x", same)
            parts = [q == v for v in sorted(set(q.tolist()))]
        out = []
        for g in parts:
            rows, cols, corner = g, g, False
            for name, s in self.chirals:
                if _negligible(p[np.outer(g, g) & (s[:, None] == s[None, :])]):
                    self.require(name, s[:, None] != s[None, :])
                    rows, cols, corner = g & (s > 0), g & (s < 0), True
                    break
            out.append((rows, cols, corner))
        return out

    def entry(self, rows, cols):
        """{r: rotated[r][i, j]} for the one frame column i of rows and j of cols."""
        i, j = rows.argmax(), cols.argmax()
        return {r: b[i, j] for r, b in self.rotated.items()}

    def corner(self, rows, cols, lat):
        """The L x L matrix of the single frame entry rows x cols on the chain lat.

        Bond r puts its entry on the diagonal (j, j + r), which a ring folds
        onto the diagonals r mod L and r mod L - L; entries on one position
        add up from 0.0 in dict order, as on _bonds.  ConfigError for a
        chain of at most |r| sites.
        """
        L = lat.L
        a = np.zeros(L * L)
        for r, v in self.entry(rows, cols).items():
            if L <= abs(r):
                raise ConfigError(f"chain of length {L} too short for range-{abs(r)} hopping")
            if not v:
                continue  # a sum from 0.0 never holds -0.0, so +-0.0 adds nothing
            for d in (r % L, r % L - L) if lat.bc == PERIODIC else (r,):
                a[max(d, -d * L) :: L + 1][: L - abs(d)] += v
        return a.reshape(L, L)

    def ring_column(self, rows, cols, L):
        """The first column of corner(rows, cols, lat) on a periodic chain of L sites.

        The corner is circulant and the matrix is never built: bond r puts
        its entry on row -r mod L, and bonds that fold onto one row
        accumulate in the order corner() adds them, so the column is
        bitwise the matrix's.
        """
        col = np.zeros(L)
        for r, v in self.entry(rows, cols).items():
            col[-r % L] += v
        return col


def _components(u, v, nr, nc, symmetric):
    """[(ri, ci)]: the connected components of a block's node graph, grouped by size.

    The graph has nr row and nc column nodes, and row node u[e] meets
    column node v[e] for each edge e: where the block has a lattice entry
    above the tolerance of _FrameBlocks.require, or where a disorder site
    term sits.  Edges may repeat and come in any order.  A symmetric block
    has one node set (nr == nc), row i being column i.  Every node
    starts labelled by itself; each round points the larger label of
    every edge's two ends at the smaller one and replaces each label by
    its label's label, until every edge joins equal labels.  Labels only
    fall and only point inside a component, so each component ends
    labelled by its smallest node.  Returns one (ri, ci) per component
    size n, larger first: ri and ci, shape (k, n), hold the row and
    column nodes of k components, each ascending.  Every
    component must be square (ValueError): a corner's site term is an
    invertible block of a unitary, so its support holds a perfect
    matching, and a pencil joins each site to itself.  Disorder blocks
    (disorder.BlockSolver) and quantization pencils
    (exact_zero_potentials) are cut by this one rule.
    """
    if not symmetric:
        v = v + nr
    label = np.arange(nr if symmetric else nr + nc)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        label = label[label]
    kr, kc = (label, label) if symmetric else (label[:nr], label[nr:])
    size = np.bincount(kr, minlength=label.size)
    if np.any(size != np.bincount(kc, minlength=label.size)):
        raise ValueError("the site term leaves a class with unequal row and column counts")
    start = np.cumsum(size) - size
    by_r, by_c = np.argsort(kr, kind="stable"), np.argsort(kc, kind="stable")
    out = []
    for n in sorted(set(size.tolist()) - {0}, reverse=True):
        first = start[size == n][:, None] + np.arange(n)
        out.append((by_r[first], by_c[first]))
    return out


def _chiral_corners(blocks, lat):
    """[(A, plus, minus)] over the parts of _FrameBlocks.split(0) of a clean chain.

    A is the real L x L chiral corner of one t_x s_x eigenvalue, plus and
    minus its two frame columns (internal, 1).
    """
    fb = _FrameBlocks(blocks)
    return [
        (fb.corner(plus, minus, lat), fb.frame[:, plus], fb.frame[:, minus])
        for plus, minus, _ in fb.split(0)
    ]


def _chiral_eigenpairs(blocks, lat):
    """Every eigenpair of a clean chain, from a full SVD of each corner.

    For a corner A = U diag(sigma) V^T the chain has eigenvalues +-sigma_k
    with eigenvectors (u_k, +-v_k) / sqrt(2), u_k on the + frame column
    and v_k on the - one.  Returns (sigma, basis): sigma over all corners,
    and basis, shape (L, internal, 2 n), whose column k holds (u_k, 0) and
    column n + k holds (0, v_k).  These two have definite chirality and
    span the +-sigma_k pair, so any set of levels closed under E -> -E
    takes its orthonormal basis straight from these columns.
    """
    sigmas, plus_vecs, minus_vecs = [], [], []
    for corner, plus, minus in _chiral_corners(blocks, lat):
        u, sigma, vt = singular_pairs(corner)
        sigmas.append(sigma)
        plus_vecs.append(u[:, None, :] * plus)
        minus_vecs.append(vt.T[:, None, :] * minus)
    return np.concatenate(sigmas), np.concatenate(plus_vecs + minus_vecs, axis=2)


def _corner_levels(corner, bc):
    """Singular values of one chiral corner, in no order: the chain's levels in its sector.

    A periodic corner is circulant, since _FrameBlocks.corner wraps bond
    j -> (j + r) mod L with one entry per displacement, and takes
    toeplitz.circulant_levels of its first column; it may be given as that
    column alone (_FrameBlocks.ring_column), with the same result to the
    bit.  An open corner is Toeplitz, so persymmetric, and takes
    toeplitz.persymmetric_levels.
    """
    if bc == PERIODIC:
        return circulant_levels(corner if corner.ndim == 1 else corner[:, 0])
    return persymmetric_levels(corner)


def _chain_levels(corners, bc):
    """Ascending levels of a chain over its chiral corners: one |E| per +-E pair."""
    return np.sort(np.concatenate([_corner_levels(c, bc) for c in corners]))


def chain_levels(spec, lat):
    """Ascending |E| of the clean chain, one per +-E pair: its spectrum is
    -levels[::-1] then levels.

    They are the levels of the real L x L corners of _chiral_corners, one
    for the parent and two for the child: singular values of open
    (persymmetric) corners, symbol moduli of periodic (circulant) ones
    (_corner_levels).
    """
    corners = _chiral_corners(chain_hopping_blocks(spec), lat)
    return _chain_levels([c for c, _, _ in corners], lat.bc)


def chain_spectrum(spec, lat):
    """Ascending eigenvalues of the clean chain: +-chain_levels."""
    levels = chain_levels(spec, lat)
    return np.concatenate([-levels[::-1], levels])


def low_energy_vs_length(spec, L_range, bc=OPEN, threads=1):
    """Rows {L, levels: chain_levels, splitting: the middle pair's gap, twice the lowest level}.

    The points run one after another.  threads is ignored: it stays only
    because bench/tracer.py binds it, and goes with the next benchmark change.
    """
    rows = []
    for L in L_range:
        levels = chain_levels(spec, ChainLattice(L, bc))
        rows.append({"L": int(L), "levels": levels, "splitting": 2.0 * abs(float(levels[0]))})
    return rows


def _with_mu(template, mu, link):
    if isinstance(template, ParentParams):
        return replace(template, mu=float(mu))
    p1 = replace(template.p1, mu=float(mu))
    if link == LINK_EQUAL:
        p2 = replace(template.p2, mu=float(mu))
    elif link == LINK_OPPOSITE:
        p2 = replace(template.p2, mu=-float(mu))
    elif link == LINK_FIXED2:
        p2 = template.p2
    else:
        raise ValueError(f"unknown link {link!r}")
    return ChildSpec(p1, p2, template.orientation)


def _mu_coefficients(template, link):
    """(C0, C1, C2): the chain's blocks at grid value mu are C0 + mu C1 + mu^2 C2.

    They are read off the blocks B(m) of _with_mu(template, m, link):
    C0 = B(0), C1 = (B(1) - B(-1)) / 2 and C2 = (B(1) + B(-1)) / 2 - B(0).
    mu enters each factor chain only as its on-site -mu s_z (first factor)
    or +mu s_z (second), and a child's blocks are bilinear in the factors'
    blocks (_product_blocks), so the blocks are quadratic in mu and these
    three points fix them, for the parent and for every link.  At the equal
    link C2 is the on-site -s_z x s_z, whose chiral corners are -I.
    """
    b0, plus, minus = (
        chain_hopping_blocks(_with_mu(template, m, link)) for m in (0.0, 1.0, -1.0)
    )
    c1 = {r: (plus[r] - minus[r]) / 2.0 for r in plus}
    c2 = {r: (plus[r] + minus[r]) / 2.0 - b0[r] for r in plus}
    return b0, c1, c2


def _mu_frames(template, link, terms=3, L=None):
    """_FrameBlocks of the first terms of _mu_coefficients(template, link).

    With L given, bonds of range L or more are dropped first: an open chain
    of L sites has none.
    """
    return [
        _FrameBlocks(blocks if L is None else {r: c for r, c in blocks.items() if abs(r) < L})
        for blocks in _mu_coefficients(template, link)[:terms]
    ]


# The eigensolver returns a double root as a real or complex pair up to
# about sqrt(eps) apart, so eigenvalues within ROOT_SPREAD (relative) of
# the real axis are candidates, and a pencil piece's roots that close
# together are one root.  A candidate is a root of a piece when the
# piece's smallest singular value there, a chain level in its sector, is
# at most EXACT_ZERO_TOL of the chain's largest level.  Inside the
# oscillatory window the roots are accurate to about 1e-14, and roots of
# two pieces are one root only when they agree to ROOT_MATCH.
ROOT_SPREAD = 1e-7
ROOT_MATCH = 1e-12
EXACT_ZERO_TOL = 1e-10


def _distinct(x, spread):
    """x ascending, keeping the smallest value of each run closer than spread (relative)."""
    x = np.sort(x)
    return x[np.diff(x, prepend=-np.inf) > spread * (1.0 + np.abs(x))]


def _levels(a0, a1, x):
    """Singular values of the pencil A0 + x A1 - x^2 I at each x, descending.

    a0 and a1 are one piece of a chiral corner, or a stack of pieces that
    broadcasts against x[:, None, None].  The values are chain levels in
    the corner's t_x s_x sector.
    """
    xx = x[:, None, None]
    return singular_values(a0 + xx * (a1 - xx * np.eye(a0.shape[-1])))


def _pencil_pieces(child, L):
    """[[(sites, B0, B1)]]: each chiral corner's quantization pencil, cut into components.

    A corner of the open child at mu1 = mu2 = mu is A0 + mu A1 - mu^2 I,
    A0 and A1 the corners of _mu_coefficients' C0 and C1.  It is cut by
    the rule of disorder blocks: into the connected components
    (_components, one node per site) of |A0| > tol | |A1| > tol | I, tol
    the _FrameBlocks tolerance of each coefficient.  A corner gives one
    entry per component size n, larger first: sites, shape (k, n), the
    sites of k components, and B0, B1, shape (k, n, n), their pieces.  A
    generic child keeps each corner whole; the sign-mixed child hops by
    0 and +-2 only in the sector that holds its zeros, which comes apart
    into its even and its odd sites.
    """
    lat = ChainLattice(L)
    frames = _mu_frames(child, LINK_EQUAL, terms=2, L=L)
    out = []
    for parts in zip(*(fb.split(0) for fb in frames)):
        a0, a1 = (fb.corner(rows, cols, lat) for fb, (rows, cols, _) in zip(frames, parts))
        joined = (np.abs(a0) > frames[0].tol) | (np.abs(a1) > frames[1].tol) | np.eye(L, dtype=bool)
        out.append([
            (ri, a0[ri[:, :, None], ri[:, None, :]], a1[ri[:, :, None], ri[:, None, :]])
            for ri, _ in _components(*np.nonzero(joined), L, L, True)
        ])
    return out


def _balance(b0):
    """Weights rho^(i - j) on each piece of the stack b0: the similarity diag(rho^i).

    rho equalizes the piece's outermost diagonals, at its own reach: the
    largest |i - j| of an entry of B0 above SYMMETRY_TOL x its scale.
    Where the piece has no such entries, or one of the two outermost
    corners rounds to zero, rho is 1.  Offsets are clipped at the reach,
    where the piece vanishes, which keeps the weights finite.
    """
    d = np.subtract.outer(np.arange(b0.shape[-1]), np.arange(b0.shape[-1]))
    weights = []
    for a0 in b0:
        tol = SYMMETRY_TOL * max(1.0, np.abs(a0).max())
        reach = np.abs(d)[np.abs(a0) > tol].max(initial=0)
        outer = abs(a0[0, reach]), abs(a0[reach, 0])
        rho = (outer[0] / outer[1]) ** (0.5 / reach) if reach and min(outer) > tol else 1.0
        weights.append(rho ** np.clip(d, -reach, reach))
    return np.stack(weights)


def exact_zero_potentials(child, L):
    """Ascending mu where the open parallel child at mu1 = mu2 = mu has an exact zero mode.

    Each chiral corner is A(mu) = A0 + mu A1 - mu^2 I, cut into the
    pieces of _pencil_pieces by the component rule of disorder blocks: one
    piece per corner for a generic child, and the two sublattices of the
    sector that holds the zeros for the sign-mixed child.  The chain has a
    zero mode exactly where a piece is singular: at the real eigenvalues
    of its companion [[0, I], [B0, B1]] (Tisseur & Meerbergen, SIAM
    Review 43 (2001) 235), one stacked solve per piece size.  Each
    companion is built from its piece balanced by the similarity
    diag(rho^j) that equalizes its outermost diagonals (_balance): zero
    modes at opposite edges otherwise make the roots ill-conditioned by a
    factor exponential in L.  Inside the oscillatory window, where each
    parent's decay roots share one modulus, the roots are then accurate to
    rounding, and each sign-mixed root is simple in its piece.  Outside
    it, finding every root is a non-goal: there the split between end
    modes decays as e^{-L/xi} (Kitaev, Phys.-Usp. 44 (2001) 131) and falls
    below double precision, so the lowest level sits near the rounding
    floor over whole intervals of mu and "exact zero" has no meaning;
    roots there can be missed or be artefacts of rounding.  At every root
    returned the chain has a level below EXACT_ZERO_TOL of its largest.
    """
    if L < 2:
        raise ConfigError(f"lattice size must be an integer >= 2, got {L!r}")
    pieces = [(b0, b1) for corner in _pencil_pieces(child, L) for _, b0, b1 in corner]
    found = []
    for b0, b1 in pieces:
        # bitwise equal pieces, as the sign-mixed sublattices at even L, share their roots
        keep = list({p.tobytes() + q.tobytes(): i for i, (p, q) in enumerate(zip(b0, b1))}.values())
        b0, b1 = b0[keep], b1[keep]
        k, n = b0.shape[:2]
        weight = _balance(b0)
        comp = np.zeros((k, 2 * n, 2 * n))
        comp[:, :n, n:] = np.eye(n)
        comp[:, n:, :n] = b0 * weight
        comp[:, n:, n:] = b1 * weight
        lam = eigenvalues(comp)
        piece, col = np.nonzero(np.abs(lam.imag) <= ROOT_SPREAD * (1.0 + np.abs(lam)))
        x = lam.real[piece, col]
        s = _levels(b0[piece], b1[piece], x)
        # a copy: on a 1x1 piece s[:, 0] is also the smallest level s[:, -1]
        band = s[:, 0].copy()
        # passing against its own piece's largest level passes against the
        # chain's; candidates that fail, as where a whole corner vanishes
        # (the sign-mixed child on 2 sites), read every piece of every corner
        weak = s[:, -1] > EXACT_ZERO_TOL * band
        if weak.any():
            tops = [_levels(c0[:, None], c1[:, None], x[weak])[..., 0] for c0, c1 in pieces]
            band[weak] = np.concatenate(tops).max(axis=0)
        root = s[:, -1] <= EXACT_ZERO_TOL * band
        found += [_distinct(x[root & (piece == i)], ROOT_SPREAD) for i in range(k)]
    return _distinct(np.concatenate(found), ROOT_MATCH)


def spectrum_vs_mu(template, mu_grid, link, lat, threads=1):
    """Open- and periodic-boundary levels along a chemical-potential grid.

    link picks how the two child chemical potentials follow the grid value
    (equal, opposite, or second one frozen); ignored for a parent template.
    Each row holds mu and, under "obc" and "pbc", the chain's ascending
    levels there (chain_levels: one |E| per +-E pair, the spectrum being
    -levels[::-1] then levels).  Each chiral corner is the pencil
    A0 + mu (A1 + mu A2) of one _FrameBlocks per mu coefficient
    (_mu_frames), shared by both boundary conditions: open corners are
    built once, periodic ones kept as their first columns
    (_FrameBlocks.ring_column, all that _corner_levels reads of a circulant
    corner).  Each open sector picks its solver once, from its coefficients
    (toeplitz.pencil_levels): closed-form levels where A0 and A2 are scalar
    and A1 tridiagonal Toeplitz, else the pencil at each point, as for every
    periodic sector.  The points run one
    after another.  threads is ignored: it stays only because
    bench/tracer.py binds it, and goes with the next benchmark change.
    """
    frames = _mu_frames(template, link)
    chain = replace(lat, bc=OPEN)
    opened, rings = [], []
    for parts in zip(*(fb.split(0) for fb in frames)):
        pieces = [(fb, rows, cols) for fb, (rows, cols, _) in zip(frames, parts)]
        opened.append(pencil_levels(*[fb.corner(rows, cols, chain) for fb, rows, cols in pieces]))
        rings.append([fb.ring_column(rows, cols, lat.L) for fb, rows, cols in pieces])
    return [
        {
            "mu": float(mu),
            "obc": np.sort(np.concatenate([levels(mu) for levels in opened])),
            "pbc": _chain_levels([a0 + mu * (a1 + mu * a2) for a0, a1, a2 in rings], PERIODIC),
        }
        for mu in np.asarray(mu_grid, dtype=float)
    ]


@dataclass
class ZeroSubspace:
    """Zero-energy eigenspace of a chain or slab Hamiltonian.

    eigenvalues is the full ascending spectrum and count of its values lie
    below tol in magnitude.  weights is the per-site weight of the zero
    subspace, internal indices summed, with shape (L,) for chains and
    (Lx, Ly) for slabs (array index i is site i+1 in 1-based reporting); it
    sums to count.  spinors(sites) takes a tuple of index arrays, one per
    axis, and returns an orthonormal basis of the subspace at those k sites,
    shape (k, internal, count); integer indices drop the k axis.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    count: int
    tol: float
    spinors: object


def _zero_tol(spread, tol, rel_tol):
    """The zero tolerance: tol as an absolute energy, else rel_tol x spread.

    A given tol must be positive (ConfigError): no |E| lies below zero, so
    a tolerance at or below it would count no zero modes at all.
    """
    if tol is None:
        return rel_tol * max(spread, 1e-30)
    if not tol > 0:
        raise ConfigError(f"zero tolerance must be positive, got {tol}")
    return float(tol)


def _chain_zero_subspace(spec, lat, tol, rel_tol):
    """Chain zero subspace: the chirality vectors of every sigma below tol."""
    sigma, basis = _chiral_eigenpairs(chain_hopping_blocks(spec), lat)
    tol = _zero_tol(2.0 * float(sigma.max()), tol, rel_tol)
    psi = basis[:, :, np.tile(sigma < tol, 2)]
    return ZeroSubspace(
        eigenvalues=np.sort(np.concatenate([-sigma, sigma])),
        weights=(psi**2).sum(axis=(1, 2)),
        count=psi.shape[2],
        tol=tol,
        spinors=lambda site: psi[site],
    )


def _factor_zero_subspace(spec, lat, tol, rel_tol):
    """Slab zero subspace from the eigenpairs of its two factor chains.

    The slab eigenvalues are the products e_i f_j of the factor eigenvalues
    and the eigenvectors the tensor products u_i (x) v_j, so the zero
    subspace is spanned by the pairs whose product lies below tol; a pair
    counts even when neither factor is zero on its own.  Each factor
    column of _chiral_eigenpairs stands for both levels +-sigma, whose
    products with a level of the other factor share one magnitude.
    """
    a, b = slab_factor_blocks(spec)
    sx, ux = _chiral_eigenpairs(a, ChainLattice(lat.Lx, lat.bcx))
    sy, uy = _chiral_eigenpairs(b, ChainLattice(lat.Ly, lat.bcy))
    size = np.multiply.outer(np.tile(sx, 2), np.tile(sy, 2))
    tol = _zero_tol(2.0 * float(size.max()), tol, rel_tol)
    mask = size < tol
    ii, jj = np.nonzero(mask)

    def spinors(sites):
        ix, iy = sites
        pairs = ux[ix][..., None, ii] * uy[iy][..., None, :, jj]
        return pairs.reshape(np.shape(ix) + (4, ii.size))

    ex, ey = np.concatenate([-sx, sx]), np.concatenate([-sy, sy])
    return ZeroSubspace(
        eigenvalues=np.sort(np.multiply.outer(ex, ey), axis=None),
        weights=(ux**2).sum(axis=1) @ mask @ (uy**2).sum(axis=1).T,
        count=int(ii.size),
        tol=tol,
        spinors=spinors,
    )


def zero_subspace(spec, lat, tol=None, rel_tol=1e-8):
    """Zero subspace of the clean model on a chain or slab lattice.

    Chains are solved by the SVD of their chiral corners, slabs as their
    two factor chains (see slab_factor_blocks) in the same way.  tol is an
    absolute energy; by default it is rel_tol times the spectral spread.
    """
    if isinstance(lat, SlabLattice):
        return _factor_zero_subspace(spec, lat, tol, rel_tol)
    return _chain_zero_subspace(spec, lat, tol, rel_tol)


def spectrum(spec, lat):
    """Ascending eigenvalues of the clean chain (chain_spectrum) or slab (zero_subspace)."""
    if isinstance(lat, SlabLattice):
        return zero_subspace(spec, lat).eigenvalues
    return chain_spectrum(spec, lat)
