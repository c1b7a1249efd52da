"""Weyl group, root data, parabolic bookkeeping, coset representatives."""

import itertools
import math
from collections import Counter

import pytest

from oracles import (coxeter_length, inverse_apply, levi_roots,
                     levi_simple_roots, signed_permutations, u_roots, weyl_table)
from siegelstrata import (InputError, LevelError, ScopeError,
                          Weight, build_context, kostant_reps,
                          parabolic_data, weyl_group)
from siegelstrata import grouptheory
from siegelstrata.grouptheory import (_kept_orbit, levi_weyl_order,
                                     normalize_parabolic_set, positive_roots)


def _rho(d):
    return tuple(range(d, 0, -1))


def test_weyl_group_orders():
    for d, order in [(1, 2), (2, 8), (3, 48), (4, 384)]:
        group = weyl_group(d)
        assert len(group) == order == 2 ** d * math.factorial(d)
        assert len(set(group)) == order


def test_identity_and_longest():
    # the identity is w(rho) = rho, of length 0 and no descent; w0 = -1 is
    # w(rho) = -rho, of length d^2 with every descent; both are unique
    for d in (1, 2, 3):
        by_vector = {v: (length, mask) for length, mask, v in weyl_group(d)}
        assert by_vector[_rho(d)] == (0, 0)
        assert by_vector[tuple(-x for x in _rho(d))] == (d * d, (1 << d) - 1)
        lengths = [length for length, _, _ in weyl_group(d)]
        assert lengths.count(0) == lengths.count(d * d) == 1


def _action(v):
    """The w with w(rho) = v, as a map on a-vectors: v[p] = +-rho_i sends
    e_i to +-e_p."""
    d = len(v)

    def apply(a):
        return tuple(a[d - abs(x)] * (1 if x > 0 else -1) for x in v)
    return apply


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_length_counts_sent_negatives(d):
    # length = number of positive roots sent negative; the image a-vector of
    # any root is again of root shape, so first-nonzero decides the sign
    ctx = build_context(d, 3)
    for length, _, v in weyl_group(d):
        w = _action(v)
        assert w(_rho(d)) == v
        sent = 0
        for root in ctx.positiveRoots:
            img = w(root.a)
            first = next((x for x in img if x != 0), 0)
            if first < 0:
                sent += 1
        assert sent == length


def test_build_context_fields(ctx2):
    assert ctx2.d == 2 and ctx2.n == 3
    assert ctx2.dimG == 11           # 2d^2 + d + 1
    assert ctx2.weylOrder == 8
    assert len(ctx2.positiveRoots) == 4
    assert ctx2.rho == Weight((2, 1), 0)
    assert ctx2.c == 3               # d(d+1)/2
    assert ctx2.stratumDims == (3, 1, 0)


def test_build_context_guards():
    with pytest.raises(LevelError):
        build_context(0, 3)
    with pytest.raises(LevelError):
        build_context(1, 2)
    with pytest.raises(ScopeError):
        build_context(7, 3)
    for d in (True, 2.0, 1.5):      # the genus is an int, not a bool or float
        with pytest.raises(LevelError):
            build_context(d, 3)
    for n in (True, False, 3.0):    # so is the level
        with pytest.raises(LevelError):
            build_context(1, n)


def test_normalize_parabolic_set():
    assert normalize_parabolic_set(3, [2, 0]) == (0, 2)
    assert normalize_parabolic_set(2, {1}) == (1,)
    with pytest.raises(InputError):
        normalize_parabolic_set(2, [])
    with pytest.raises(InputError):
        normalize_parabolic_set(2, [2])
    with pytest.raises(InputError):
        normalize_parabolic_set(2, [-1])
    assert normalize_parabolic_set(2, [0, 0]) == (0,)  # set semantics
    # non-integer indices are refused, not truncated (1.9 -> 1) or read as 1
    for bad in ([1.9, 0.2], [True], [0, 1.0], ["1"], 3):
        with pytest.raises(InputError):
            normalize_parabolic_set(3, bad)


def test_parabolic_data_d2(ctx2):
    p0 = parabolic_data(ctx2, (0,))
    assert p0.leviBlocks == (2,) and p0.r == 0
    assert p0.dimN == 3
    p1 = parabolic_data(ctx2, (1,))
    assert p1.leviBlocks == (1,) and p1.r == 1
    assert p1.dimN == 3
    pb = parabolic_data(ctx2, (0, 1))
    assert pb.leviBlocks == (1, 1) and pb.r == 0
    assert pb.dimN == 4
    assert pb.nRoots == positive_roots(2)  # the Borel: every root in N


def test_parabolic_dim_formula(ctx3):
    # dim N_{r} = (d-r)(d-r+1)/2 + 2r(d-r) for the maximal sets S = {r}
    d = 3
    for r in range(d):
        pd = parabolic_data(ctx3, (r,))
        assert pd.dimN == (d - r) * (d - r + 1) // 2 + 2 * r * (d - r)


def test_root_split_is_partition():
    # N_S is every positive root outside the Levi, in root order; the Levi
    # is read from block membership, and U_r lies in N_S
    for d in range(1, 6):
        ctx = build_context(d, 3)
        for size in range(1, d + 1):
            for S in itertools.combinations(range(d), size):
                pd = parabolic_data(ctx, S)
                levi = set(levi_roots(d, S))
                assert levi <= set(ctx.positiveRoots)
                assert pd.nRoots == tuple(x for x in ctx.positiveRoots
                                          if x not in levi), S
                assert pd.dimN == len(pd.nRoots)
                assert set(u_roots(d, S[0])) <= set(pd.nRoots)


def test_kostant_reps_counts(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for S in [(r,) for r in range(ctx.d)] + [tuple(range(ctx.d))]:
            reps = kostant_reps(ctx, S)
            pd = parabolic_data(ctx, S)
            assert len(reps) == ctx.weylOrder // levi_weyl_order(pd)
            assert len(set(reps)) == len(reps)
    assert len(kostant_reps(ctx2, (0,))) == 4
    assert len(kostant_reps(ctx2, (1,))) == 4
    assert len(kostant_reps(ctx2, (0, 1))) == 8


def test_kostant_reps_lengths_palindromic(ctx3):
    # w -> w0 * w * w0_L matches degrees k and dimN - k
    for S in [(0,), (1,), (2,), (0, 2), (0, 1, 2)]:
        pd = parabolic_data(ctx3, S)
        lengths = sorted(length for length, _, _ in kostant_reps(ctx3, S))
        reflected = sorted(pd.dimN - x for x in lengths)
        assert lengths == reflected
        assert lengths[0] == 0 and lengths[-1] == pd.dimN


@pytest.mark.parametrize("ctx_name", ["ctx2", "ctx3", "ctx4"])
def test_kostant_reps_minimal_length_property(request, ctx_name):
    # the reps are exactly the signed permutations w whose inverse sends
    # every Levi simple root to a positive root, each once
    ctx = request.getfixturevalue(ctx_name)
    for size in range(1, ctx.d + 1):
        for S in itertools.combinations(range(ctx.d), size):
            expected = []
            for w in signed_permutations(ctx.d):
                firsts = [next(x for x in inverse_apply(w, root.a) if x != 0)
                          for root in levi_simple_roots(ctx.d, S)]
                if all(first > 0 for first in firsts):
                    expected.append((coxeter_length(w), w.apply_vector(_rho(ctx.d))))
            reps = [(length, v) for length, _, v in kostant_reps(ctx, S)]
            assert Counter(reps) == Counter(expected), S


def test_kostant_reps_read_only_the_table_of_min_S(monkeypatch):
    # W^{5} at d = 6 has 12 elements, all in weyl_group(6, 5) (12 entries);
    # the 46,080-entry weyl_group(6) is never asked for
    calls = []
    original = grouptheory.weyl_group

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grouptheory, "weyl_group", recording)
    reps = grouptheory._kostant_reps.__wrapped__(6, (5,))
    assert calls == [(6, 5)]
    assert len(reps) == 12 == len(original(6, 5))


@pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 7) for r in range(d)])
def test_weyl_table_is_the_weyl_group_filter(d, r):
    # weyl_group(d, r) holds exactly the signed permutations with no descent
    # below r, each once, with the reference's length and descent mask
    expected = Counter(row[1:] for row in weyl_table(d) if not row[2] & ((1 << r) - 1))
    table = weyl_group(d, r)
    assert len(table) == 2 ** (d - r) * math.factorial(d) // math.factorial(r)
    assert Counter(table) == expected


def _mul(p, q):
    """Product of two polynomials given by their coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _q_product(sizes):
    """prod of [k]_t = 1 + t + ... + t^(k-1) over k in sizes."""
    out = [1]
    for k in sizes:
        out = _mul(out, [1] * k)
    return out


def _poincare_law(d, S, lengths):
    # Humphreys 1.11: the lengths of W^S have generating function W(t)/W_L(t),
    # with W(t) = prod_{i<=d} [2i]_t and W_L(t) the same product over the
    # Levi: [2i]_t for i <= r = min S, [i]_t for i <= b per GL block b
    points = [0] + [d - s for s in reversed(S[1:])] + [d - S[0]]
    levi = [2 * i for i in range(1, S[0] + 1)] + [
        i for lo, hi in zip(points, points[1:]) for i in range(1, hi - lo + 1)]
    counts = Counter(lengths)
    poincare = [counts[k] for k in range(max(counts) + 1)]
    assert _mul(poincare, _q_product(levi)) == _q_product(
        2 * i for i in range(1, d + 1)), S


@pytest.mark.parametrize("d", range(1, 6))
def test_kostant_reps_poincare_polynomial(d):
    ctx = build_context(d, 3)
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            _poincare_law(d, S, [length for length, _, _ in kostant_reps(ctx, S)])


@pytest.mark.parametrize("d", [7, 8])
@pytest.mark.parametrize("S", [(0,), (-1,), (0, -1), (0, 1), (-2, -1), (-3, -2, -1)])
def test_walk_poincare_polynomial_past_the_genus_guard(d, S):
    # negative indices count from d; cuts of -inf at r, +inf at the rest of S
    # and -inf elsewhere allow exactly S, so the walk at rho keeps W^S
    S = tuple(s % d for s in S)
    mask = sum(1 << s for s in S)
    cuts = [math.inf if s in S[1:] else -math.inf for s in range(d)]
    rows = _kept_orbit(S[0], range(d, 0, -1), cuts)
    assert {allowed for _, _, allowed, _ in rows} == {mask}
    assert not any(desc & ~mask for _, desc, _, _ in rows)
    _poincare_law(d, S, [length for length, _, _, _ in rows])


def test_weyl_group_is_built_once_per_d_r():
    # r by default, by position or by keyword is one cache entry
    assert weyl_group(6) is weyl_group(6, 0) is weyl_group(6, r=0)


def test_weyl_table_guards():
    with pytest.raises(ScopeError):
        weyl_group(7)
    with pytest.raises(ScopeError):
        weyl_group(7, 6)
    with pytest.raises(InputError):
        weyl_group(3, 3)
