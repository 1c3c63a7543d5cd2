"""Every LAPACK call of mkc, through four entry points on stacks of matrices.

Each entry point reaches numpy through _lapack, which looks the numpy.linalg
function up at each call, so a wrapper put on numpy.linalg sees every call,
and a test that replaces _lapack counts them all.  Stacks of 1x1 matrices
take their closed form and make no LAPACK call.
"""

import numpy as np


def _lapack(name, a, **kw):
    return getattr(np.linalg, name)(a, **kw)


def singular_values(a):
    """Singular values of each matrix in the stack a, descending; |a| where they are 1x1."""
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0])
    return _lapack("svd", a, compute_uv=False)


def singular_pairs(a):
    """(u, s, vh), the thin SVD of each matrix in the stack a."""
    return _lapack("svd", a, full_matrices=False)


def symmetric_levels(a):
    """|eigenvalues| of each symmetric (Hermitian) matrix in the stack a, from its lower triangle.

    1x1 matrices give |Re a|, as eigvalsh reads only the real diagonal.
    """
    if a.shape[-1] == 1:
        return np.abs(a.real[..., 0])
    return np.abs(_lapack("eigvalsh", a))


def eigenvalues(a):
    """Eigenvalues of each square matrix in the stack a (companion matrices), in no order."""
    return _lapack("eigvals", a)
