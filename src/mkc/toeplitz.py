"""Singular values of Toeplitz chiral corners and their mu pencils, without an SVD.

An open chain's chiral corner (lattice._corner_levels) is Toeplitz, entry
c_r on every (j, j + r), and so is each point of a sweep's pencil
A0 + mu (A1 + mu A2), entry by entry, to the bit.  A Toeplitz A is
persymmetric, J A J = A^T for the reversal J, so J A is symmetric, and its
|eigenvalues| are the singular values of A (persymmetric_levels).  A sweep
picks once per open sector how its points are solved (pencil_levels): where
the pencil is symmetric with scalar A0 and A2, one eigvalsh of A1 serves
every point.  A periodic corner is circulant, a Toeplitz matrix that wraps,
and its singular values are the moduli of its symbol (circulant_levels).
It is a module of its own because a process compiles each module it
imports, and the largest module's compile memory sets the peak RSS of a
short run.
"""

import numpy as np

from .errors import SymmetryError


def persymmetric_levels(a):
    """Singular values of the persymmetric square matrix a, in no order.

    J a must be symmetric to the bit (SymmetryError): eigvalsh reads one
    triangle only.  A matrix with at most one nonzero per row and column,
    as an open corner at Kitaev's dead point t = Delta = 1, is a weighted
    matching: its levels are the moduli of its entries and exact zeros.  A
    symmetric a, as the second t_x s_x sector of a child of equal parents
    at the equal link, is also centrosymmetric, J a J = a: with B, C the
    blocks of its first floor(L/2) rows, its levels are those of the
    reflection halves B + C J and B - C J, the middle row of odd L joining
    the first half with weights sqrt(2) (Cantoni & Butler, Linear Algebra
    Appl. 13 (1976) 275).  Otherwise they are |eigvalsh(J a)|.
    """
    L = len(a)
    flipped = a[::-1]
    # M - M^T is antisymmetric: its largest entry is 0 exactly when it vanishes
    # (a NaN fails), and positive otherwise
    if not (flipped - flipped.T).max() == 0.0:
        raise SymmetryError("open chiral corner is not persymmetric: J A is not symmetric")
    # more than L nonzeros put two in some row
    if np.count_nonzero(a) <= L:
        r, c = np.nonzero(a)
        if len(set(r.tolist())) == len(set(c.tolist())) == r.size:
            return np.concatenate([np.abs(a[r, c]), np.zeros(L - r.size)])
    if (a - a.T).max() > 0.0:
        return np.abs(np.linalg.eigvalsh(flipped))
    m = L // 2
    b, cj = a[:m, :m], a[:m, L - m :][:, ::-1]
    even = np.empty((L - m, L - m))
    even[:m, :m] = b + cj
    if L % 2:
        even[m, :m] = even[:m, m] = np.sqrt(2.0) * a[m, :m]
        even[m, m] = a[m, m]
    return np.abs(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(b - cj)]))


def pencil_levels(a0, a1, a2):
    """The function mu -> levels of the open corner a0 + mu (a1 + mu a2), in no order.

    The choice is made once, here.  Where a0 = c0 I and a2 = c2 I and a1 is
    symmetric, each to the bit, the pencil at every mu is symmetric with
    eigenvalues c0 + mu (lambda_j + mu c2), lambda_j those of a1, and its
    levels are their moduli: one eigvalsh per sweep.  A child of two
    dead-point parents with t1 = t2 at the equal link has one such sector
    (the second when Delta1 = Delta2) where the frame rotation keeps its
    zeros exact, as at |t| = 1 or 1.5 (not at 0.7, whose A0 carries
    residues of 1e-35).  Any other pencil, including one an ulp away from
    it, takes persymmetric_levels of its value at each mu.
    """
    c0, c2 = a0[0, 0], a2[0, 0]
    eye = np.eye(len(a0))
    if np.array_equal(a0, c0 * eye) and np.array_equal(a2, c2 * eye) and np.array_equal(a1, a1.T):
        lam = np.linalg.eigvalsh(a1)
        return lambda mu: np.abs(c0 + mu * (lam + mu * c2))
    return lambda mu: persymmetric_levels(a0 + mu * (a1 + mu * a2))


def circulant_levels(col):
    """Singular values of the circulant matrix with first column col, in no order.

    They are the moduli of its symbol sum_d c_d exp(-2 pi i n d / L) over
    the nonzero entries c_d of col (signed displacements d), the levels at
    momenta 2 pi n / L.  n and L - n share one modulus: the symbol is
    evaluated for n = 0 ... floor(L/2) only and n = 1 ... ceil(L/2) - 1 are
    mirrored, so the k/-k degeneracy is exact.
    """
    L = len(col)
    j = np.flatnonzero(col)
    c, d = col[j], np.where(j > L // 2, j - L, j)
    theta = np.outer(np.arange(L // 2 + 1), d) * (2 * np.pi / L)
    f = np.hypot(np.cos(theta) @ c, np.sin(theta) @ c)
    return np.concatenate([f, f[1 : (L + 1) // 2]])
