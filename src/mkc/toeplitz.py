"""Singular values of a real persymmetric matrix, without an SVD.

An open chain's chiral corner (lattice._corner_levels) is Toeplitz, entry
c_r on every (j, j + r), and so is each point of a sweep's pencil
A0 + mu (A1 + mu A2), entry by entry, to the bit.  A Toeplitz A is
persymmetric, J A J = A^T for the reversal J, so J A is symmetric, and its
|eigenvalues| are the singular values of A.  It is a module of its own
because a process compiles each module it imports, and the largest
module's compile memory sets the peak RSS of a short run.
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
