"""Disorder parts cut from the lattice entries of a clean model, never from a matrix.

A part is one block of disorder.BlockSolver: frame rows x cols of the
rotated hopping blocks on every bond, L nr x L nc in all, with a site
term.  Its lattice entries are (row node, column node, value), one per
exact nonzero of a block on a bond (lattice._bonds), and they are all
the part needs: entries above the tolerance and the site term's support
give the node graph that lattice._components cuts, and each class group's
stack is scattered from the entries whose two ends lie in one class.
The part is never assembled.  It is a module of its own because a
process compiles each module it imports: inside disorder.py this code
took that module past 4096 parser tokens, where CPython's parser doubles
its token array, and raised the resident memory after `import mkc.cli`
by about 0.3 MB.
"""

import numpy as np

from .lattice import _bonds, _components


def bond_folds(rotated, lat):
    """(blocks, fold, bonds) of the {r: block} rotated blocks on lat.

    blocks stacks the blocks in dict order and fold[k] numbers the bond set
    of the k-th: displacements that a ring maps onto one bond set (r mod L)
    share a fold, told apart by their first bond.  bonds holds (f, i, j),
    one entry per bond (i, j) of fold f.  ConfigError for a chain shorter
    than the hopping range (lattice._bonds).
    """
    folds, fold, bonds = {}, [], []
    for r in rotated:
        i, j = _bonds(lat, r)
        fold.append(folds.setdefault((i[0], j[0]), len(folds)))
        if fold[-1] == len(bonds):
            bonds.append((np.full(i.size, fold[-1]), i, j))
    return np.stack(list(rotated.values())), np.array(fold), [np.concatenate(x) for x in zip(*bonds)]


def part_groups(folds, sites, tol, rows, cols, joins):
    """[(clean, idx, site, entry, free)]: the class groups of part rows x cols.

    folds is bond_folds of the rotated blocks on a lattice of sites sites,
    and tol the tolerance of their symmetry checks (_FrameBlocks.tol).
    There is one tuple per class group.  clean, shape (k, n, n), stacks the
    part's node classes of size n (lattice._components) for the site term
    support joins; the site term adds v[site] times its entry-th nonzero
    (in the order of np.nonzero(joins)) at the flat indices idx of that
    stack.  free[e] is True where the group is a corner whose classes are
    trees and its e-th nonzero sits only on clean zeros.  The blocks of a
    fold add up from 0.0 in dict order, as dense_reference.assemble_frame
    adds them, so every entry and stack is bitwise the assembled part's.
    """
    blocks, fold, (f, i, j) = folds
    nr, nc = np.count_nonzero(rows), np.count_nonzero(cols)
    part = blocks[:, rows][:, :, cols]
    folded = np.zeros_like(part)
    np.add.at(folded, fold, part)
    s, a, b = np.nonzero((folded != 0)[f])
    er, ec, ev = i[s] * nr + a, j[s] * nc + b, folded[f[s], a, b]
    a, b = np.nonzero(joins)
    site, entry = np.divmod(np.arange(sites * a.size), a.size)
    row, col = site * nr + a[entry], site * nc + b[entry]
    hop = np.abs(ev) > tol
    symmetric = np.array_equal(rows, cols)
    groups = []
    for ri, ci in _components(
        np.concatenate([er[hop], row]), np.concatenate([ec[hop], col]), sites * nr, sites * nc, symmetric
    ):
        n = ri.shape[1]
        at_r, at_c = np.full(sites * nr, -1), np.full(sites * nc, -1)
        at_r[ri.ravel()] = np.arange(ri.size)
        at_c[ci.ravel()] = np.arange(ci.size)
        # an entry, sub-tolerance ones too, lies in a class when both its ends do
        fr, fc = at_r[er], at_c[ec]
        inside = (fr >= 0) & (fr // n == fc // n)
        stack = np.zeros(ri.size * n, ev.dtype)
        stack[fr[inside] * n + fc[inside] % n] = ev[inside]
        stack = stack.reshape(-1, n, n)
        # a site term entry joins a row and a column node of one class
        hit = at_r[row] >= 0
        idx = at_r[row[hit]] * n + at_c[col[hit]] % n
        edges = stack != 0
        edges.reshape(-1)[idx] = True
        trees = not symmetric and np.all(edges.sum(axis=(1, 2)) == 2 * n - 1)
        free = np.full(a.size, trees)
        free[entry[hit][stack.reshape(-1)[idx] != 0]] = False
        groups.append((stack, idx, site[hit], entry[hit], free))
    return groups
