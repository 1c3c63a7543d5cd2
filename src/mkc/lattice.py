"""Real-space Hamiltonians on finite chains and slabs.

Chains and slabs are assembled from the hopping blocks of the inverse Fourier
transform of the Bloch matrices, H(k) = sum_r H_r e^{ikr} with H_r sitting on
the (j, j+r) block.  Open boundaries truncate wrapped bonds, periodic ones
fold them back with accumulation (so small periodic rings stay consistent
with the quantized-momentum Bloch spectra).
"""

import numpy as np
from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor

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


def _shift(L, r, bc):
    """L x L matrix with ones on the (j, j+r) positions, folded for PBC."""
    return np.roll(np.eye(L), r, axis=1) if bc == PERIODIC else np.eye(L, k=r)


def _first_factor_blocks(p):
    """Hopping blocks of -(2t cos k + mu) s_z + 2 Delta sin k s_y."""
    a1 = -p.t * SZ - 1j * p.delta * SY
    return {-1: a1.conj().T, 0: -p.mu * SZ, 1: a1}


def _second_factor_blocks(p):
    """Hopping blocks of +(2t cos k + mu) s_z + 2 Delta sin k s_y."""
    b1 = p.t * SZ - 1j * p.delta * SY
    return {-1: b1.conj().T, 0: p.mu * SZ, 1: b1}


def chain_hopping_blocks(spec):
    """{r: block} of the inverse Fourier transform, r the site displacement."""
    if isinstance(spec, ParentParams):
        return _first_factor_blocks(spec)
    if not isinstance(spec, ChildSpec) or spec.orientation != PARALLEL:
        raise ValueError("chain models are the parent and the parallel child")
    a = _first_factor_blocks(spec.p1)
    b = _second_factor_blocks(spec.p2)
    h0 = np.kron(a[0], b[0]) + np.kron(a[1], b[-1]) + np.kron(a[-1], b[1])
    h1 = np.kron(a[0], b[1]) + np.kron(a[1], b[0])
    h2 = np.kron(a[1], b[1])
    return {-2: h2.conj().T, -1: h1.conj().T, 0: h0, 1: h1, 2: h2}


def _assemble_chain(blocks, L, bc):
    """Chain matrix of {r: block} hopping blocks on L sites, in their dtype."""
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


# The relative size, against the scale of a clean matrix or of its hopping
# blocks, up to which an entry that a symmetry discards counts as zero.
SYMMETRY_TOL = 1e-12

_HX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)  # s_x eigenvectors, +1 then -1


def _site_frame(internal):
    """Real site frame of joint symmetry eigenvectors, with their labels.

    Returns (frame, q, chirals): frame columns are the new site basis, q
    their t_x s_x eigenvalues (all +1 for the parent, which has no such
    symmetry) and chirals a list of (name, eigenvalues) per chiral
    operator.  The child frame pairs the BLOCK_BASIS columns inside each
    t_x s_x eigenspace (columns 0, 1 and 2, 3) into eigenvectors of both
    chiral operators.
    """
    if internal == 2:
        frame, q_op, chirals = _HX, np.eye(2), [("s_x", SX)]
    elif internal == 4:
        frame = BLOCK_BASIS.real @ np.kron(np.eye(2), _HX)
        q_op, chirals = _U, [("t_0 s_x", _C1), ("t_x s_0", _C2)]
    else:
        raise ConfigError(f"sites must carry 2 or 4 internal components, got {internal}")

    def labels(op):
        return np.rint(np.diag(frame.T @ op.real @ frame))

    return frame, labels(q_op), [(name, labels(op)) for name, op in chirals]


def _chiral_corners(blocks):
    """The hopping blocks of the chiral corners, one per t_x s_x eigenvalue.

    Each block is rotated into the real frame of _site_frame, where only
    the entry joining the + and - columns of the first chiral operator
    inside one t_x s_x eigenspace survives: a 1x1 real block per
    displacement.  Checks H_{-r} = H_r^H (NonHermitianError) and that every
    block is real and every discarded entry below SYMMETRY_TOL x scale
    (SymmetryError); the scale is max(norm of all blocks, 1).
    """
    scale = max(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks.values())), 1.0)
    tol = SYMMETRY_TOL * scale
    for r, blk in blocks.items():
        if -r not in blocks or np.linalg.norm(blocks[-r] - blk.conj().T) > tol:
            raise NonHermitianError(f"hopping block {-r} is not the adjoint of block {r}")
        if np.linalg.norm(np.imag(blk)) > tol:
            raise SymmetryError(f"hopping block {r} is not real")
    frame, q, chirals = _site_frame(blocks[0].shape[0])
    name, s = chirals[0]
    rotated = {r: frame.T @ np.real(blk) @ frame for r, blk in blocks.items()}
    same_q = q[:, None] == q[None, :]
    for sym, discarded in (("t_x s_x", ~same_q), (name, same_q & (s[:, None] == s[None, :]))):
        for r, blk in rotated.items():
            off = np.abs(blk[discarded]).max(initial=0.0)
            if off > tol:
                raise SymmetryError(
                    f"hopping block {r} breaks {sym}: discarded entry {off:.3e} "
                    f"exceeds {SYMMETRY_TOL:.0e} x scale"
                )
    return [
        {r: blk[np.ix_((q == v) & (s > 0), (q == v) & (s < 0))] for r, blk in rotated.items()}
        for v in np.unique(q)
    ]


def chain_spectrum(spec, lat):
    """Ascending eigenvalues of build_chain(spec, lat), without building it.

    Every clean chain is real and chiral, and the child commutes with
    t_x s_x, so in the frame of _site_frame the chain splits into one (two
    for the child) chiral blocks [[0, A], [A^T, 0]], whose eigenvalues are
    +-sigma for the singular values sigma of the real L x L corner A.
    """
    corners = _chiral_corners(chain_hopping_blocks(spec))
    sv = np.concatenate(
        [np.linalg.svd(_assemble_chain(c, lat.L, lat.bc), compute_uv=False) for c in corners]
    )
    return np.sort(np.concatenate([-sv, sv]))


def build_slab_factors(spec, lat):
    """The two parent chains whose tensor product is the slab.

    Returns (H_x, H_y): the first-factor chain of p1 on Lx sites and the
    second-factor chain of p2 on Ly sites.  build_slab(spec, lat) equals
    H_x (x) H_y with the indices reordered from (ix, s1, iy, s2) to
    (ix, iy, s1, s2).
    """
    if not isinstance(spec, ChildSpec) or spec.orientation == PARALLEL:
        raise ValueError("slab models need a perpendicular child")
    return (
        _assemble_chain(_first_factor_blocks(spec.p1), lat.Lx, lat.bcx),
        _assemble_chain(_second_factor_blocks(spec.p2), lat.Ly, lat.bcy),
    )


def slab_hopping_blocks(spec):
    """{(a, b): 4x4 block} over displacements a (x) and b (y) in {-1, 0, 1}."""
    if not isinstance(spec, ChildSpec) or spec.orientation == PARALLEL:
        raise ValueError("slab models need a perpendicular child")
    a = _first_factor_blocks(spec.p1)
    b = _second_factor_blocks(spec.p2)
    return {(ra, rb): np.kron(a[ra], b[rb]) for ra in (-1, 0, 1) for rb in (-1, 0, 1)}


def build_slab(spec, lat):
    """Real-space slab Hamiltonian, site = ix*Ly + iy, internal index minor.

    The dense reference for the factorized solver in zero_subspace, and the
    matrix that disorder perturbs.
    """
    blocks = slab_hopping_blocks(spec)
    n = lat.Lx * lat.Ly * 4
    h = np.zeros((n, n), dtype=complex)
    for (ra, rb), blk in blocks.items():
        sx = _shift(lat.Lx, ra, lat.bcx)
        sy = _shift(lat.Ly, rb, lat.bcy)
        h += np.kron(np.kron(sx, sy), blk)
    return h


@dataclass
class SpectrumResult:
    """Ascending eigenvalues with matched eigenvector columns.

    Individual vectors inside a degenerate cluster are solver-dependent;
    downstream code works with subspace projectors only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_hermitian(h, tol=1e-12):
    """The scale max(norm(h), 1); NonHermitianError if h - h^H exceeds tol x scale."""
    scale = max(np.linalg.norm(h), 1.0)
    dev = np.linalg.norm(h - h.conj().T)
    if dev > tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: deviation {dev:.3e} exceeds {tol:.1e} x norm"
        )
    return scale


def diagonalize(h, hermiticity_tol=1e-12):
    h = np.asarray(h)
    _check_hermitian(h, hermiticity_tol)
    if np.iscomplexobj(h) and not h.imag.any():
        h = h.real  # real path is considerably faster for big slabs
    evals, evecs = np.linalg.eigh(h)
    return SpectrumResult(evals, evecs)


def low_energy_vs_length(spec, L_range, bc=OPEN, n_modes=6, threads=1):
    """Rows (L, the n_modes eigenvalues nearest zero, middle-pair splitting).

    The spectrum comes from chain_spectrum, which returns every +-E pair
    exactly symmetric.  When the cut splits a group of equal |E| (a +-E
    pair when n_modes is odd), the stable argsort picks the members that
    come first in ascending order, so the negative one of a pair; dense
    eigenvalues used to decide such ties by rounding noise.
    """

    def one(L):
        ev = chain_spectrum(spec, ChainLattice(L, bc))
        half = ev.size // 2
        nearest = np.sort(ev[np.argsort(np.abs(ev), kind="stable")[:n_modes]])
        return {"L": int(L), "modes": nearest, "splitting": float(ev[half] - ev[half - 1])}

    return _ordered_map(one, list(L_range), threads)


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


def spectrum_vs_mu(template, mu_grid, link, lat, n_modes=None, threads=1):
    """Open- and periodic-boundary spectra along a chemical-potential grid.

    link picks how the two child chemical potentials follow the grid value
    (equal, opposite, or second one frozen); ignored for a parent template.
    n_modes keeps the levels nearest zero, ties broken as in
    low_energy_vs_length.
    """

    def one(mu):
        spec = _with_mu(template, mu, link)
        row = {"mu": float(mu)}
        for key, bc in (("obc", OPEN), ("pbc", PERIODIC)):
            ev = chain_spectrum(spec, replace(lat, bc=bc))
            if n_modes is not None:
                ev = np.sort(ev[np.argsort(np.abs(ev), kind="stable")[:n_modes]])
            row[key] = ev
        return row

    return _ordered_map(one, list(np.asarray(mu_grid, dtype=float)), threads)


def _ordered_map(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


@dataclass
class ZeroSubspace:
    """Zero-energy eigenspace of a chain or slab Hamiltonian.

    eigenvalues is the full ascending spectrum and count of its values lie
    below tol in magnitude.  weights is the per-site weight of the zero
    subspace, internal indices summed, with shape (L,) for chains and
    (Lx, Ly) for slabs (array index i is site i+1 in 1-based reporting); it
    sums to count.  spinors(site) returns the internal components at one
    site (an index tuple) of an orthonormal basis of the subspace, shape
    (internal, count).
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    count: int
    tol: float
    spinors: object


def _zero_tol(spread, tol, rel_tol):
    """The zero tolerance: tol as an absolute energy, else rel_tol x spread."""
    return rel_tol * max(spread, 1e-30) if tol is None else float(tol)


def dense_zero_subspace(h, lat, tol=None, rel_tol=1e-8):
    """Zero subspace of an explicit lattice matrix, by one dense solve.

    tol is an absolute energy; by default it is rel_tol times the spectral
    spread.
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


def _factor_zero_subspace(spec, lat, tol, rel_tol):
    """Slab zero subspace from the eigenpairs of its two factor chains.

    The slab eigenvalues are the products e_i f_j of the factor eigenvalues
    and the eigenvectors the tensor products u_i (x) v_j, so the zero
    subspace is spanned by the pairs whose product lies below tol; a pair
    counts even when neither factor is zero on its own.
    """
    sx, sy = (diagonalize(h) for h in build_slab_factors(spec, lat))
    prod = np.multiply.outer(sx.eigenvalues, sy.eigenvalues)
    tol = _zero_tol(float(prod.max() - prod.min()), tol, rel_tol)
    mask = np.abs(prod) < tol
    ux = sx.eigenvectors.reshape(lat.Lx, 2, -1)
    uy = sy.eigenvectors.reshape(lat.Ly, 2, -1)
    a = (np.abs(ux) ** 2).sum(axis=1)
    b = (np.abs(uy) ** 2).sum(axis=1)
    ii, jj = np.nonzero(mask)

    def spinors(site):
        ix, iy = site
        return (ux[ix][:, None, ii] * uy[iy][None, :, jj]).reshape(4, ii.size)

    return ZeroSubspace(
        eigenvalues=np.sort(prod, axis=None),
        weights=a @ mask @ b.T,
        count=int(ii.size),
        tol=tol,
        spinors=spinors,
    )


def zero_subspace(spec, lat, tol=None, rel_tol=1e-8):
    """Zero subspace of the clean model on a chain or slab lattice.

    Slabs are solved as their two factor chains (see build_slab_factors),
    chains by one dense solve.  tol is an absolute energy; by default it is
    rel_tol times the spectral spread.
    """
    if isinstance(lat, SlabLattice):
        return _factor_zero_subspace(spec, lat, tol, rel_tol)
    return dense_zero_subspace(build_chain(spec, lat), lat, tol, rel_tol)


def degeneracy_count(s, e0, tol):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return int(np.count_nonzero(np.abs(s.eigenvalues - e0) <= tol))
