"""Root datum of GSp_2d and its Weyl group of signed permutations.

The group is taken with respect to the antidiagonal form: J has +1 on the
upper antidiagonal half and -1 on the lower, so the diagonal torus is
diag(t_1..t_d, c/t_d, ..., c/t_1) and the d^2 positive roots are

    e_i - e_j          (1 <= i < j <= d)
    e_i + e_j - e_0    (1 <= i <= j <= d)

in similitude coordinates (e_0 dual to c).  The Weyl group is the
hyperoctahedral group: permutations of the coordinates together with the
reflections t -> c/t, i.e. signed permutations with e_i -> e_0 - e_{s(i)}
on flipped coordinates.

Standard parabolic subsets S of {0..d-1} cut the Levi into GL blocks plus a
GSp_2r tail, r = min(S); this module computes those block shapes and the
roots of the nilpotent radicals.
"""

import itertools
import math
from functools import lru_cache

from .errors import (InputError, Value, check_genus, check_index, check_level,
                     is_int)
from .reps import Weight

MAX_DEFAULT_GENUS = 6  # 2^d * d! grows fast: |W| = 46,080 at d = 6

# (length, descent mask, w(rho)) per Weyl-group element w; see ``weyl_group``.
WeylTable = tuple[tuple[int, int, tuple[int, ...]], ...]


def _length(v) -> int:
    """Type-C length of the w with w(rho) = v (Bjorner-Brenti, section 8.1):
    #{i<j: v_i < v_j} + #{i<j: v_i + v_j < 0} + #{i: v_i < 0}."""
    out = sum(x < 0 for x in v)
    for x, y in itertools.combinations(v, 2):
        out += (x < y) + (x + y < 0)
    return out


def _kept_orbit(r: int, shifted, profile) -> list:
    """(length, descent mask, allowed mask, w(rho)) for each w with no descent
    below r whose w.lam passes the cuts of ``profile``; shifted is lam + rho.

    Descent bit s >= 1 marks a rise of w(rho) across coordinate d-s, bit 0 a
    negative last entry; w lies in W^S exactly when every set bit is in S.
    The cut "S_s-pairing of w.lam < profile[s]" compares the total of the
    first d - s entries of w(lam + rho) with profile[s] plus that of rho; the
    allowed mask holds r and every s > r whose cut passes.  w(rho) is placed
    left to right, its last r entries the unused values, positive and
    decreasing.  Cut s is fixed before descent bit s, so a branch stops at a
    descent on a failed cut, or at a head failing the >= cut at r.  The
    length is computed only for the w kept.
    """
    d = len(shifted)
    head = d - r
    entry = {x: shifted[d - x] for x in range(1, d + 1)}  # w(lam + rho) at w(rho) = x
    entry.update({-x: -y for x, y in entry.items()})
    # rho sums to (d - s)(d + s + 1)/2 over its first d - s coordinates
    bound = [b + (d - s) * (d + s + 1) // 2 for s, b in enumerate(profile)]
    v, out = [0] * d, []

    def place(p, rest, total, allowed, descents):
        bit = 1 << (d - p)
        for i, x in enumerate(rest):
            unused = rest[:i] + rest[i + 1:]
            for y in (x, -x):
                desc = descents | bit if p and v[p - 1] < y else descents
                if desc & ~allowed:
                    continue
                v[p], t = y, total + entry[y]
                if p + 1 < head:
                    cut = d - p - 1
                    place(p + 1, unused, t, allowed | (t < bound[cut]) << cut, desc)
                elif t >= bound[r]:
                    v[head:] = unused
                    desc |= (v[head - 1] < v[head]) << r if r else v[-1] < 0
                    out.append((_length(v), desc, allowed, tuple(v)))

    place(0, tuple(range(d, 0, -1)), 0, 1 << r, 0)
    return out


def weyl_group(d: int, r: int = 0) -> WeylTable:
    """(length, descent mask, w(rho)) for each w with no descent below r.

    w(rho) determines w, with rho = (d, ..., 1): w sends e_i to +-e_p where
    w(rho)[p] = +-rho_i.  r = 0 gives all 2^d * d! signed permutations; in
    general these are the w that can lie in a W^S with min S = r,
    2^(d-r) * d!/r! of them: w(rho) ends in r positive decreasing entries,
    after a signed arrangement of the other d - r values.  They are the
    ``_kept_orbit`` walk at rho with cuts that never bind.  However r is
    passed, one (d, r) is built and cached once.
    """
    return _weyl_group(d, r)


@lru_cache(maxsize=None)
def _weyl_group(d: int, r: int) -> WeylTable:
    check_genus(d, MAX_DEFAULT_GENUS)
    check_index(r, d)
    cuts = (-math.inf,) * (r + 1) + (math.inf,) * (d - 1 - r)
    return tuple((length, desc, v) for length, desc, _, v
                 in _kept_orbit(r, range(d, 0, -1), cuts))


weyl_group.cache_info = _weyl_group.cache_info
weyl_group.cache_clear = _weyl_group.cache_clear


@lru_cache(maxsize=None)
def positive_roots(d: int) -> tuple[Weight, ...]:
    """The d^2 positive roots: e_i - e_j (i < j), then e_i + e_j - e_0 (i <= j)."""
    roots = []
    for i in range(d):
        for j in range(i + 1, d):
            a = [0] * d
            a[i], a[j] = 1, -1
            roots.append(Weight(tuple(a), 0))
    for i in range(d):
        for j in range(i, d):
            a = [0] * d
            a[i] += 1
            a[j] += 1
            roots.append(Weight(tuple(a), -1))
    return tuple(roots)


class GroupContext(Value):
    """Immutable combinatorial data for (GSp_2d, principal level n)."""

    d: int
    n: int
    positiveRoots: tuple[Weight, ...]
    rho: Weight
    weylOrder: int
    dimG: int
    c: int
    stratumDims: tuple[int, ...]


def stratum_dims(d: int) -> tuple[int, ...]:
    """(c_0, ..., c_d) with c_r = (d-r)(d+1-r)/2: open stratum first, points last."""
    check_genus(d)
    return tuple((d - r) * (d + 1 - r) // 2 for r in range(d + 1))


def build_context(d: int, n: int) -> GroupContext:
    """Validate (d, n) and assemble the root datum.

    n >= 3 is the standing neatness hypothesis (principal level structures
    are rigid only from level 3 on); d is capped at MAX_DEFAULT_GENUS, the
    Weyl-group guard of ``weyl_group``.
    """
    check_level(n)
    check_genus(d, MAX_DEFAULT_GENUS)
    rho = Weight(tuple(range(d, 0, -1)), 0)  # m0 normalized to 0; see dot_action
    ctx = GroupContext(
        d=d, n=n,
        positiveRoots=positive_roots(d),
        rho=rho,
        weylOrder=(2 ** d) * math.factorial(d),
        dimG=2 * d * d + d + 1,
        c=d * (d + 1) // 2,
        stratumDims=stratum_dims(d),
    )
    if not (len(ctx.positiveRoots) == d * d
            and ctx.dimG == 2 * len(ctx.positiveRoots) + d + 1
            and ctx.c == ctx.stratumDims[0]):
        raise ArithmeticError(
            f"inconsistent root datum at d={d}: {len(ctx.positiveRoots)} "
            f"positive roots, dimG={ctx.dimG}, c={ctx.c}")
    return ctx


def normalize_parabolic_set(d: int, S) -> tuple[int, ...]:
    """Sorted tuple form of a non-empty subset of {0..d-1}."""
    try:
        items = sorted(set(S))
    except TypeError:
        items = None
    if items is None or not all(map(is_int, items)):
        raise InputError(f"parabolic set must be an iterable of integers, got {S!r}")
    if not items:
        raise InputError("parabolic set must be non-empty")
    if items[0] < 0 or items[-1] > d - 1:
        raise InputError(f"parabolic indices {items} out of range for d={d}")
    return tuple(items)


class ParabolicData(Value):
    """Levi shape and nilpotent-radical roots of the parabolic P_S.

    ``leviBlocks`` are the GL block sizes (a composition of d-r), with the
    GSp_2r factor on the last r coordinates, r = min(S).  ``blockRanges``
    gives the half-open coordinate range of each GL block.  nRoots are the
    positive roots outside the Levi.
    """

    S: tuple[int, ...]
    r: int
    leviBlocks: tuple[int, ...]
    blockRanges: tuple[tuple[int, int], ...]
    nRoots: tuple[Weight, ...]
    dimN: int


@lru_cache(maxsize=None)
def _parabolic_data(d: int, S: tuple[int, ...]) -> ParabolicData:
    r = S[0]
    # Cut points of the GL part: coordinate d-s for each s in S above r.
    cuts = [0] + [d - s for s in sorted(S, reverse=True)]
    ranges = list(zip(cuts, cuts[1:]))
    # The Levi block of each coordinate, the GSp coordinates as one more block.
    block = [b for b, (lo, hi) in enumerate(ranges + [(d - r, d)])
             for _ in range(lo, hi)]
    nil = []
    for root in positive_roots(d):
        pos = [k for k, x in enumerate(root.a) if x]
        i, j = pos[0], pos[-1]
        # e_i - e_j is in the Levi iff i, j share a block; e_i + e_j - e_0
        # (i <= j) iff both lie in the GSp block.
        if not (block[i] == block[j] if root.m0 == 0 else i >= d - r):
            nil.append(root)
    pd = ParabolicData(
        S=S, r=r, leviBlocks=tuple(hi - lo for lo, hi in ranges),
        blockRanges=tuple(ranges),
        nRoots=tuple(nil), dimN=len(nil),
    )
    if len(S) == 1 and pd.dimN != (d - r) * (d - r + 1) // 2 + 2 * r * (d - r):
        raise ArithmeticError(f"P_{S} at d={d} has dimN={pd.dimN}")
    return pd


def parabolic_data(ctx: GroupContext, S) -> ParabolicData:
    return _parabolic_data(ctx.d, normalize_parabolic_set(ctx.d, S))


def levi_weyl_order(pd: ParabolicData) -> int:
    out = (2 ** pd.r) * math.factorial(pd.r)
    for b in pd.leviBlocks:
        out *= math.factorial(b)
    return out


@lru_cache(maxsize=None)
def _kostant_reps(d: int, S: tuple[int, ...]) -> WeylTable:
    outside = ~sum(1 << s for s in S)
    return tuple(w for w in weyl_group(d, S[0]) if not w[1] & outside)


def kostant_reps(ctx: GroupContext, S) -> WeylTable:
    """Minimal-length representatives w with w^-1(Levi simple roots) positive,
    as the (length, descent mask, w(rho)) entries of ``weyl_group``.

    For dominant regular mu, these are exactly the w for which w(mu) is
    dominant regular for the Levi of P_S; there is one per coset, so their
    number is weylOrder / |W_Levi|.  They are read from the table of
    r = min S, whose w have no descent below r.
    """
    return _kostant_reps(ctx.d, normalize_parabolic_set(ctx.d, S))
