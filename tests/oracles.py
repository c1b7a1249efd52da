"""Reference implementations the tests compare the package against.

Each is written from its definition and shares no code path with the
function it checks: the symplectic form and the cocharacter points as
explicit matrices, conjugation scalars by literal division, root
inventories by block membership, the Weyl group as signed permutations
(perm, signs) with lengths and descents counted on the roots, the dot
action on those permutations, the subgroup orders by their product
formula, the congruence kernel by counting a literal closure, a subgroup
closure by dense matrix products, the symplectic groups by column-pair
backtracking over tuples, the weighted restriction as a sum of chain
terms, and Levi dimensions as products of Fraction factors.  The Hecke
transfer matrix is tabulated literally: both levels enumerated and
partitioned, and both coordinates of every level-m class found by an
orbit walk at level n.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from siegelstrata import (ClassTerm, GSp, SymbolicClass, build_context,
                          chain_term, group_order, integral_image_order,
                          parabolic_data)
from siegelstrata.arith import (_SCAN_GUARD, DEFAULT_CAP, _unit,
                                brute_force_group, identity_matrix,
                                left_orbits, mat_mod, mat_mul,
                                orbit_canonical, subgroup_closure,
                                symplectic_form)
from siegelstrata.engine import expansion_chains
from siegelstrata.errors import InputError, ScopeError
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


def torus_element(d: int, ts, c, n: int):
    """diag(t_1..t_d, c/t_d, ..., c/t_1) mod n; each t_i and c must be units."""
    size = 2 * d
    for t in list(ts) + [c]:
        if not _unit(t, n):
            raise InputError("torus entries must be units")
    diag = list(ts) + [c * pow(ts[d - 1 - k], -1, n) for k in range(d)]
    return tuple(
        tuple((diag[i] % n) if i == j else 0 for j in range(size))
        for i in range(size))


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


class WeylElt(NamedTuple):
    """Signed permutation: e_i -> e_{perm[i]}, negated where signs[i] is True."""

    perm: tuple[int, ...]
    signs: tuple[bool, ...]

    def apply_vector(self, v):
        """Image of a vector in symplectic coordinates (no e_0 bookkeeping)."""
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[self.perm[i]] = -x if self.signs[i] else x
        return tuple(out)


def signed_permutations(d: int) -> tuple[WeylElt, ...]:
    """All 2^d * d! elements of the Weyl group of GSp_2d."""
    return tuple(WeylElt(perm, signs)
                 for perm in itertools.permutations(range(d))
                 for signs in itertools.product((False, True), repeat=d))


def _first_sign(v) -> int:
    return next((1 if x > 0 else -1 for x in v if x), 0)


def coxeter_length(w: WeylElt) -> int:
    """The number of positive roots e_i - e_j, e_i + e_j (i < j) and 2e_i
    (in a-vector coordinates) that w sends to negative ones.

    w(e_i) = +-e_{perm[i]}, so the first nonzero entry of w(e_i +- e_j)
    sits at min(perm[i], perm[j]) and carries the sign of that term.
    """
    sign = [-1 if flip else 1 for flip in w.signs]
    out = sum(x < 0 for x in sign)
    for i, j in itertools.combinations(range(len(sign)), 2):
        for c in (-1, 1):
            out += (sign[i] if w.perm[i] < w.perm[j] else c * sign[j]) < 0
    return out


def inverse_apply(w, v):
    """w^-1 applied to v: w sends e_i to +-e_{perm[i]}, so entry i of
    w^-1(v) is +-v[perm[i]]."""
    return tuple(-v[p] if flip else v[p] for p, flip in zip(w.perm, w.signs))


@lru_cache(maxsize=None)
def _simple_roots(d: int):
    """2e_d for s = 0, e_{d-s} - e_{d-s+1} for s >= 1 (1-indexed coordinates)."""
    return ((0,) * (d - 1) + (2,),) + tuple(
        tuple(int(k == d - s - 1) - int(k == d - s) for k in range(d))
        for s in range(1, d))


def descent_mask(w: WeylElt) -> int:
    """Bit s for each simple root (see ``_simple_roots``) that w^-1 sends negative."""
    return sum(1 << s for s, root in enumerate(_simple_roots(len(w.perm)))
               if _first_sign(inverse_apply(w, root)) < 0)


def signed_dot_action(w: WeylElt, lam: Weight, rho: Weight) -> Weight:
    """w(lam + rho) - rho, with w sending e_i to e_{perm[i]} unflipped and to
    e_0 - e_{perm[i]} flipped."""
    shifted = lam.add(rho)
    a = [0] * len(shifted.a)
    m0 = shifted.m0
    for i, x in enumerate(shifted.a):
        a[w.perm[i]] = -x if w.signs[i] else x
        m0 += x if w.signs[i] else 0
    return Weight(tuple(x - y for x, y in zip(a, rho.a)), m0 - rho.m0)


@lru_cache(maxsize=None)
def weyl_table(d: int) -> tuple:
    """(w, length, descent mask, w(rho)) for every signed permutation w, each
    entry from the references above; cached, so the tests build it once per d."""
    rho = tuple(range(d, 0, -1))
    return tuple((w, coxeter_length(w), descent_mask(w), w.apply_vector(rho))
                 for w in signed_permutations(d))


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


def hecke_tabulation(datum, S, g=None, cap: int = DEFAULT_CAP):
    """(classes, entries) of ``hecke_matrix_structure``, tabulated literally:
    GSp_2d(Z/m) and GSp_2d(Z/n) are both enumerated and partitioned, and
    each level-m class C' is placed at (class of C'g, class of C') by two
    orbit walks at level n."""
    d, n, m = datum
    size = 2 * d
    g = mat_mod(identity_matrix(size) if g is None else g, m)
    gens_n = parabolic_generators(build_context(d, n), S)
    gens_m = parabolic_generators(build_context(d, m), S)
    orbits_m = left_orbits(brute_force_group(GSp(size), m, cap), gens_m, m)
    classes = tuple(sorted(
        left_orbits(brute_force_group(GSp(size), n, cap), gens_n, n)))
    index_of = {rep: i for i, rep in enumerate(classes)}

    def class_index(x) -> int:
        return index_of[orbit_canonical(mat_mod(x, n), gens_n, n)]

    counts: dict[tuple[int, int], int] = {}
    for rep in orbits_m:
        key = (class_index(mat_mul(rep, g, m)), class_index(rep))
        counts[key] = counts.get(key, 0) + 1
    return classes, tuple(sorted((i, j, c) for (i, j), c in counts.items()))


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


def enumerate_symplectic(d: int, n: int, sim: int | None) -> list:
    """All g with t(g) J g = c J; c = sim if given, else any unit.

    Columns are filled in partner pairs (i, 2d-1-i): inside a pair the
    form must be c, across pairs it must vanish; everything else is free.
    Each pair is drawn from the vectors orthogonal to every column placed
    before it.
    """
    size = 2 * d
    if n ** size > _SCAN_GUARD // 10:
        raise ScopeError(f"column space {n}^{size} too large for backtracking")
    if sim is not None and not _unit(sim, n):
        return []
    out = []
    cols: list = [None] * size
    form = lru_cache(maxsize=None)(symplectic_form)  # pairs recur across branches

    def place_pair(k: int, c, candidates):
        if k == d:
            out.append(tuple(zip(*cols)))  # columns -> matrix
            return
        for u in candidates:
            for v in candidates:
                cc = form(u, v, n)
                if not (cc == c or (c is None and _unit(cc, n))):
                    continue
                cols[k], cols[size - 1 - k] = u, v
                rest = None
                if k + 1 < d:
                    rest = [w for w in candidates
                            if not form(u, w, n) and not form(v, w, n)]
                place_pair(k + 1, cc, rest)

    place_pair(0, None if sim is None else sim % n,
               list(itertools.product(range(n), repeat=size)))
    return out


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
