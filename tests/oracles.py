"""Reference implementations the tests compare the package against.

Each is written from its definition and shares no code path with the
function it checks: the symplectic form and the cocharacter points as
explicit matrices, conjugation scalars by literal division, root
inventories by block membership, the subgroup orders by their product
formula, the congruence kernel by counting a literal closure, a subgroup
closure by dense matrix products, the weighted restriction as a sum of
chain terms, and Levi dimensions as products of Fraction factors.
"""

from fractions import Fraction
from typing import Sequence

from siegelstrata import (ClassTerm, GSp, SymbolicClass, build_context,
                          chain_term, group_order, integral_image_order,
                          parabolic_data)
from siegelstrata.arith import (DEFAULT_CAP, identity_matrix, mat_mod,
                                mat_mul, subgroup_closure)
from siegelstrata.engine import expansion_chains
from siegelstrata.grouptheory import positive_roots
from siegelstrata.matrixmodel import parabolic_generators
from siegelstrata.reps import Weight


def j_form(d: int):
    """The antidiagonal symplectic form: +1 upper half, -1 lower half."""
    size = 2 * d
    m = [[0] * size for _ in range(size)]
    for i in range(d):
        m[i][size - 1 - i] = 1
        m[size - 1 - i][i] = -1
    return tuple(tuple(row) for row in m)


def transpose(a):
    return tuple(zip(*a))


def s_cochar_matrix(d: int, s: int, lam: int):
    """The point S_s(lam) as an exact integer matrix: diag(lam^2 I_{d-s},
    lam I_{2s}, I_{d-s}), similitude lam^2."""
    diag = [lam ** 2] * (d - s) + [lam] * (2 * s) + [1] * (d - s)
    size = 2 * d
    return tuple(
        tuple(diag[i] if i == j else 0 for j in range(size)) for i in range(size))


def conjugation_weight(g_diag, x):
    """Scalar q with g x g^-1 = q * x for a diagonal integer matrix g, or
    None if x is not an eigenvector of the conjugation."""
    size = len(x)
    ratios = {Fraction(g_diag[i][i], g_diag[j][j])
              for i in range(size) for j in range(size) if x[i][j]}
    return ratios.pop() if len(ratios) == 1 else None


def _levi_blocks(d: int, S) -> list[set[int]]:
    """Coordinate sets of the Levi factors of P_S: a GL block between any
    two neighbouring cuts d - s (s in S), then the GSp block of the last
    min(S) coordinates."""
    edges = sorted({0} | {d - s for s in S} | {d})
    return [set(range(lo, hi)) for lo, hi in zip(edges, edges[1:])]


def _support(root: Weight) -> set[int]:
    return {i for i, x in enumerate(root.a) if x}


def levi_roots(d: int, S) -> tuple[Weight, ...]:
    """Positive roots of the Levi of P_S: e_i - e_j with i, j in one block,
    and e_i + e_j - e_0 with i, j both in the GSp block."""
    gsp = set(range(d - min(S), d))
    return tuple(x for x in positive_roots(d) if any(
        _support(x) <= b for b in (_levi_blocks(d, S) if x.m0 == 0 else [gsp])))


def u_roots(d: int, r: int) -> tuple[Weight, ...]:
    """Roots of the center U_r of N_r: e_i + e_j - e_0 with i, j < d - r."""
    return tuple(x for x in positive_roots(d)
                 if x.m0 and _support(x) <= set(range(d - r)))


def levi_simple_roots(d: int, S) -> tuple[Weight, ...]:
    """e_i - e_{i+1} inside each block, and 2e_d - e_0 when the GSp block is
    not empty."""
    out = [Weight(tuple(int(k == i) - int(k == i + 1) for k in range(d)), 0)
           for b in _levi_blocks(d, S) for i in b if i + 1 in b]
    if min(S) >= 1:
        out.append(Weight((0,) * (d - 1) + (2,), -1))
    return tuple(out)


def inverse_apply(w, v):
    """w^-1 applied to v: w sends e_i to +-e_{perm[i]}, so entry i of
    w^-1(v) is +-v[perm[i]]."""
    return tuple(-v[p] if flip else v[p] for p, flip in zip(w.perm, w.signs))


def subgroup_order_formula(ctx, S) -> int:
    """Order of the finite shadow H_S(n):
    |GSp_2r| * n^{dim N_S} * prod over the GL blocks of |GL_k(Z)-image|."""
    pd = parabolic_data(ctx, S)
    out = group_order(GSp(2 * pd.r), ctx.n) * ctx.n ** pd.dimN
    for b in pd.leviBlocks:
        out *= integral_image_order(b, ctx.n)
    return out


def kernel_shadow_count(datum, S, cap: int = DEFAULT_CAP) -> int:
    """|H_S(m) intersect ker(mod-n reduction)|, from the literal closure."""
    gens = parabolic_generators(build_context(datum.d, datum.m), S)
    n = datum.n
    return sum(1 for g in subgroup_closure(gens, datum.m, cap)
               if all(x % n == (i == j) for i, row in enumerate(g)
                      for j, x in enumerate(row)))


def mat_mul_closure(gens, n: int) -> frozenset:
    """The subgroup generated by ``gens`` mod n, closed breadth-first with
    the dense product ``mat_mul`` on every element and generator."""
    gens = [mat_mod(g, n) for g in gens]
    seen = {identity_matrix(len(gens[0]))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(g, x, n)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def restrict_weighted_via_expansion(ctx, profile, lam, r) -> SymbolicClass:
    """The class of ``restrict_weighted``, assembled from chain terms only."""
    return SymbolicClass.build(
        ClassTerm(sign * t.coefficient, t.S, t.module)
        for _, sign, chain in expansion_chains(ctx, profile, lam, r)
        for t in chain_term(ctx, chain, r, lam).terms)


def _gl_dim(b: Sequence[int]) -> Fraction:
    # prod_{i<j} (b_i - b_j + j - i) / (j - i); translation invariant.
    out = Fraction(1)
    k = len(b)
    for i in range(k):
        for j in range(i + 1, k):
            out *= Fraction(b[i] - b[j] + j - i, j - i)
    return out

def _gsp_dim(g: Sequence[int]) -> Fraction:
    # Type C_r: with l = g + (r, r-1, ..., 1) and m = (r, ..., 1),
    # dim = prod_{i<j} (l_i^2 - l_j^2)/(m_i^2 - m_j^2) * prod_i l_i/m_i.
    r = len(g)
    l = [g[i] + (r - i) for i in range(r)]
    m = [r - i for i in range(r)]
    out = Fraction(1)
    for i in range(r):
        out *= Fraction(l[i], m[i])
        for j in range(i + 1, r):
            out *= Fraction(l[i] ** 2 - l[j] ** 2, m[i] ** 2 - m[j] ** 2)
    return out
