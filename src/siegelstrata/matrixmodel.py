"""Explicit 2d x 2d matrix realizations: root vectors, Levi embeddings, and
generators of the parabolic coset-counting subgroups.

Everything here backs the brute-force oracles.  The conventions match the
antidiagonal form J of ``arith.symplectic_form``: for 1-indexed i < j <= d,

    e_i - e_j        |->  E_{i,j} - E_{2d+1-j, 2d+1-i}
    e_i + e_j - e_0  |->  E_{i,2d+1-j} + E_{j,2d+1-i}
    2e_i - e_0       |->  E_{i,2d+1-i}

and negative roots are the transposes.  These satisfy X^2 = 0 (so I + t*X
realizes the root subgroup) and t(X) J + J X = 0; both facts, and the torus
conjugation weight of every root vector, are verified by the test suite
before anything else trusts them.
"""

from __future__ import annotations

from .arith import identity_matrix, mat_inv_mod, mat_mod, units
from .errors import InputError
from .grouptheory import GroupContext, parabolic_data, positive_roots
from .reps import Weight


def root_matrix(d: int, root: Weight):
    """Integer nilpotent matrix spanning the root space of ``root``."""
    size = 2 * d
    m = [[0] * size for _ in range(size)]
    support = [(i, x) for i, x in enumerate(root.a) if x]  # 0-indexed coords
    if root.m0 == 0 and len(support) == 2:
        (i, xi), (j, xj) = support
        if xi == -1 and xj == 1:
            (i, xi), (j, xj) = (j, xj), (i, xi)
        if (xi, xj) != (1, -1):
            raise InputError(f"not a root: {root}")
        m[i][j] = 1
        m[size - 1 - j][size - 1 - i] = -1
    elif root.m0 == -1:
        if len(support) == 1 and support[0][1] == 2:
            i = support[0][0]
            m[i][size - 1 - i] = 1
        elif len(support) == 2 and all(x == 1 for _, x in support):
            (i, _), (j, _) = support
            m[i][size - 1 - j] = 1
            m[j][size - 1 - i] = 1
        else:
            raise InputError(f"not a root: {root}")
    elif root.m0 == 1:
        # negative long/short roots: transpose of the positive partner
        return tuple(zip(*root_matrix(d, root.neg())))
    else:
        raise InputError(f"not a root: {root}")
    return tuple(tuple(row) for row in m)


def root_element(d: int, root: Weight, n: int):
    """I + X_root reduced mod n."""
    x = root_matrix(d, root)
    size = 2 * d
    return tuple(
        tuple((int(i == j) + x[i][j]) % n for j in range(size))
        for i in range(size))


def embed_linear(d: int, r: int, a, n: int):
    """GL_{d-r} into the Levi of P_r: block diag(A, I_{2r}, R tA^-1 R)."""
    k = d - r
    size = 2 * d
    a = mat_mod(a, n)
    ainv = mat_inv_mod(a, n)
    # R tA^-1 R with R the antidiagonal permutation: reverse both indices.
    back = tuple(
        tuple(ainv[k - 1 - j][k - 1 - i] for j in range(k)) for i in range(k))
    g = [[0] * size for _ in range(size)]
    for i in range(k):
        for j in range(k):
            g[i][j] = a[i][j]
            g[size - k + i][size - k + j] = back[i][j]
    for i in range(k, size - k):
        g[i][i] = 1
    return tuple(tuple(row) for row in g)


def embed_gsp(d: int, r: int, b, c: int, n: int):
    """GSp_2r into the Levi of P_r: diag(c(B) I_{d-r}, B, I_{d-r})."""
    k = d - r
    size = 2 * d
    g = [[0] * size for _ in range(size)]
    for i in range(k):
        g[i][i] = c % n
        g[size - 1 - i][size - 1 - i] = 1
    for i in range(2 * r):
        for j in range(2 * r):
            g[k + i][k + j] = b[i][j] % n
    return tuple(tuple(row) for row in g)


def parabolic_generators(ctx: GroupContext, S):
    """Generators (mod n) of the finite shadow H_S of P_S(Z)Q_r(Z-hat).

    The shadow is the subgroup of GSp_2d(Z/n) that the stratum and
    double-coset counts quotient by:
      - the GL side, ``linear_parabolic_generators`` through
        ``embed_linear``: per block, elementary root elements (full
        block-SL image) and a determinant -1 flip (integral GL has
        determinant +-1); its cross-block elementaries are in N_S,
      - all root elements of Lie N_S,
      - the embedded GSp_2r(Z/n): symplectic root elements (positive and
        negative) plus, for each unit u, the similitude torus point
        diag(u I_d, I_d), which feeds u into the GL side per the Levi
        embedding (at r = 0 it is all of the GSp_0 factor).
    Completeness of this generating set is itself under test: the closure
    order is compared with the independent order formula product.
    """
    d, n = ctx.d, ctx.n
    pd = parabolic_data(ctx, S)
    r = pd.r
    gens = [embed_linear(d, r, a, n)
            for a in linear_parabolic_generators(d - r, pd.leviBlocks, n)]
    gens += [root_element(d, root, n) for root in pd.nRoots]
    for root in positive_roots(r):
        for y in (root, root.neg()):
            gens.append(embed_gsp(d, r, root_element(r, y, n), 1, n))
    for u in units(n):
        b = tuple(
            tuple((u if i < r else 1) if i == j else 0 for j in range(2 * r))
            for i in range(2 * r))
        gens.append(embed_gsp(d, r, b, u, n))
    ident = identity_matrix(2 * d)
    uniq = []
    for g in gens:
        if g != ident and g not in uniq:
            uniq.append(g)
    return uniq


def linear_parabolic_generators(k: int, blocks, n: int):
    """Image of the block upper-triangular integral subgroup of GL_k.

    ``blocks`` is a composition of k; generators are per-block elementaries
    and flips plus the cross-block elementary roots (the unipotent radical).
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
