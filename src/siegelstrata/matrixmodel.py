"""Explicit 2d x 2d matrix realizations: root vectors, and generators of
the parabolic coset-counting subgroups built from them.

Everything here backs the brute-force oracles.  One rule gives every root
vector (Fulton-Harris, Representation Theory, 16.1): the matrix unit
E_{p,q} (0-indexed) has torus weight chi_p - chi_q, where chi_p = e_p for
p < d and chi_p = e_0 - e_{2d-1-p} otherwise.  A root's matrix is its first
matrix unit in (p, q) order plus the partner unit (2d-1-q, 2d-1-p) with
coefficient -eps_p * eps_q, eps = +1 on the first d coordinates and -1 on
the rest, as in the antidiagonal form J of ``arith.symplectic_form``; for a
long root the two units coincide.  Worked cases, for 1-indexed i < j <= d:

    e_i - e_j        |->  E_{i,j} - E_{2d+1-j, 2d+1-i}
    e_i + e_j - e_0  |->  E_{i,2d+1-j} + E_{j,2d+1-i}
    2e_i - e_0       |->  E_{i,2d+1-i}

and negative roots are the transposes.  These satisfy X^2 = 0 (so I + t*X
realizes the root subgroup) and t(X) J + J X = 0; both facts, and the torus
conjugation weight of every root vector, are verified by the test suite
before anything else trusts them.
"""

import itertools
from functools import lru_cache

from .arith import units
from .errors import InputError
from .grouptheory import GroupContext, parabolic_data, positive_roots
from .reps import Weight


@lru_cache(maxsize=None)
def _root_units(d: int) -> dict:
    """{root: (p, q, c)}: the first matrix unit E_{p,q} in (p, q) order of
    each weight chi_p - chi_q with p != q, and the coefficient c of its
    partner unit.  Every such weight is a root of GSp_2d."""
    eye = [Weight(tuple(int(i == p) for i in range(d))) for p in range(d)]
    chi = eye + [Weight(e.neg().a, 1) for e in reversed(eye)]
    table = {}
    for p, q in itertools.permutations(range(2 * d), 2):
        table.setdefault(chi[p].add(chi[q].neg()),
                         (p, q, -1 if (p < d) == (q < d) else 1))
    return table


def root_matrix(d: int, root: Weight):
    """Integer nilpotent matrix spanning the root space of ``root``."""
    unit = _root_units(d).get(root)
    if unit is None:
        raise InputError(f"not a root: {root}")
    p, q, c = unit
    size = 2 * d
    m = [[0] * size for _ in range(size)]
    m[p][q] = 1
    m[size - 1 - q][size - 1 - p] = c
    return tuple(map(tuple, m))


def root_element(d: int, root: Weight, n: int):
    """I + X_root reduced mod n."""
    x = root_matrix(d, root)
    size = 2 * d
    return tuple(
        tuple((int(i == j) + x[i][j]) % n for j in range(size))
        for i in range(size))


def _diagonal(entries):
    size = len(entries)
    return tuple(tuple(x if i == j else 0 for j in range(size))
                 for i, x in enumerate(entries))


def parabolic_generators(ctx: GroupContext, S):
    """Generators (mod n) of the finite shadow H_S of P_S(Z)Q_r(Z-hat).

    The shadow is the subgroup of GSp_2d(Z/n) that the stratum and
    double-coset counts quotient by.  Every generator is a root element or
    a diagonal matrix of GSp_2d:
      - both signs of each Levi root (the positive roots outside N_S, in a
        GL block or in the GSp_2r block): block-SL images and Sp_2r,
      - each root of Lie N_S,
      - per GL block, the determinant -1 flip (integral GL has determinant
        +-1): -1 at the block's first coordinate and at its partner,
      - for each unit u != 1, the similitude torus point diag(u I_d, I_d)
        (at r = 0 it is all of the GSp_0 factor).
    The list has no duplicate and no identity.  Completeness of this
    generating set is itself under test: the closure order is compared
    with the independent order formula product.
    """
    d, n = ctx.d, ctx.n
    pd = parabolic_data(ctx, S)
    radical = set(pd.nRoots)
    gens = [root_element(d, y, n) for root in positive_roots(d)
            if root not in radical for y in (root, root.neg())]
    gens += [root_element(d, root, n) for root in pd.nRoots]
    for lo, _ in pd.blockRanges:
        flip = [1] * (2 * d)
        flip[lo] = flip[2 * d - 1 - lo] = n - 1
        gens.append(_diagonal(flip))
    gens += [_diagonal([u] * d + [1] * d) for u in units(n) if u != 1]
    return gens


def linear_parabolic_generators(k: int, blocks, n: int):
    """Image of the block upper-triangular integral subgroup of GL_k.

    ``blocks`` is a composition of k; generators are per-block elementaries
    and flips plus the cross-block elementary roots (the unipotent radical).
    The GL-model oracle of ``strata.double_coset_count_bruteforce``.
    """
    if sum(blocks) != k:
        raise InputError(f"blocks {blocks} do not sum to {k}")

    def elementary(i: int, j: int, x: int):
        m = [[int(a == b) for b in range(k)] for a in range(k)]
        m[i][j] = x
        return tuple(map(tuple, m))

    starts = [0]
    for b in blocks:
        starts.append(starts[-1] + b)
    ranges = [range(starts[i], starts[i + 1]) for i in range(len(blocks))]
    gens = []
    for block in ranges:
        gens += [elementary(i, j, 1) for i in block for j in block if i != j]
        gens.append(elementary(block.start, block.start, n - 1))
    for bi in range(len(ranges)):
        for bj in range(bi + 1, len(ranges)):
            gens += [elementary(i, j, 1) for i in ranges[bi] for j in ranges[bj]]
    return gens
