"""Weyl group, root data, parabolic bookkeeping, coset representatives."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from siegelstrata import (InputError, LevelError, ScopeError,
                          Weight, WeylElt, build_context, kostant_reps,
                          longest_element, parabolic_data, weyl_group)
from siegelstrata.grouptheory import (descent_mask, levi_weyl_order,
                                     normalize_parabolic_set, weyl_table)


def test_weyl_group_orders():
    for d, order in [(1, 2), (2, 8), (3, 48), (4, 384)]:
        group = weyl_group(d)
        assert len(group) == order == 2 ** d * math.factorial(d)
        assert len(set(group)) == order


def test_weyl_group_sorted_by_length_perm_signs():
    for d in range(1, 6):
        group = weyl_group(d)
        assert list(group) == sorted(group, key=lambda w: (w.length, w.perm, w.signs))


def test_identity_and_longest():
    for d in (1, 2, 3):
        e = WeylElt.identity(d)
        assert e.length == 0
        w0 = longest_element(d)
        assert w0.length == d * d
        assert max(w.length for w in weyl_group(d)) == d * d
        assert w0.compose(w0).length == 0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_length_counts_sent_negatives(d):
    # length = number of positive roots sent negative; the image a-vector of
    # any root is again of root shape, so first-nonzero decides the sign
    ctx = build_context(d, 3)
    for w in weyl_group(d):
        sent = 0
        for root in ctx.positiveRoots:
            img = w.apply_vector(root.a)
            first = next((x for x in img if x != 0), 0)
            if first < 0:
                sent += 1
        assert sent == w.length


@given(st.integers(0, 7), st.integers(0, 7))
def test_compose_length_parity_and_bound(i, j):
    group = weyl_group(2)
    u, v = group[i], group[j]
    w = u.compose(v)
    assert w.length <= u.length + v.length
    assert (w.length - u.length - v.length) % 2 == 0


@given(st.integers(0, 47))
def test_inverse_roundtrip(i):
    w = weyl_group(3)[i]
    assert w.compose(w.inverse()).length == 0
    assert w.inverse().length == w.length


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


def test_parabolic_data_d2(ctx2):
    p0 = parabolic_data(ctx2, (0,))
    assert p0.leviBlocks == (2,) and p0.r == 0
    assert p0.dimN == 3 and p0.dimU == 3
    p1 = parabolic_data(ctx2, (1,))
    assert p1.leviBlocks == (1,) and p1.r == 1
    assert p1.dimN == 3 and p1.dimU == 1
    pb = parabolic_data(ctx2, (0, 1))
    assert pb.leviBlocks == (1, 1) and pb.r == 0
    assert pb.dimN == 4
    assert len(pb.nRoots) == 4 and len(pb.leviRoots) == 0


def test_parabolic_dim_formula(ctx3):
    # dim N_{r} = (d-r)(d-r+1)/2 + 2r(d-r) for the maximal sets S = {r}
    d = 3
    for r in range(d):
        pd = parabolic_data(ctx3, (r,))
        assert pd.dimN == (d - r) * (d - r + 1) // 2 + 2 * r * (d - r)


def test_root_split_is_partition(ctx3):
    for S in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        pd = parabolic_data(ctx3, S)
        n_set = set(pd.nRoots)
        l_set = set(pd.leviRoots)
        assert not (n_set & l_set)
        assert n_set | l_set == set(ctx3.positiveRoots)
        assert set(pd.uRoots) <= n_set


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
        lengths = sorted(w.length for w in kostant_reps(ctx3, S))
        reflected = sorted(pd.dimN - x for x in lengths)
        assert lengths == reflected
        assert lengths[0] == 0 and lengths[-1] == pd.dimN


@pytest.mark.parametrize("ctx_name", ["ctx2", "ctx3", "ctx4"])
def test_kostant_reps_minimal_length_property(request, ctx_name):
    # the reps are exactly the w, in Weyl-group order, whose inverse sends
    # every Levi simple root to a positive root
    ctx = request.getfixturevalue(ctx_name)
    for size in range(1, ctx.d + 1):
        for S in itertools.combinations(range(ctx.d), size):
            pd = parabolic_data(ctx, S)
            expected = []
            for w in weyl_group(ctx.d):
                inv = w.inverse()
                firsts = [next(x for x in inv.apply_vector(root.a) if x != 0)
                          for root in pd.leviSimpleRoots]
                if all(first > 0 for first in firsts):
                    expected.append(w)
            assert kostant_reps(ctx, S) == tuple(expected), S


@pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 6) for r in range(d)]
                         + [(6, 0), (6, 4), (6, 5)])
def test_weyl_table_is_the_weyl_group_filter(d, r):
    # built without weyl_group: it must hold exactly the w with no descent
    # below r, each once
    rho = tuple(range(d, 0, -1))
    expected = {(w.length, descent_mask(w), w.apply_vector(rho))
                for w in weyl_group(d) if not descent_mask(w) & ((1 << r) - 1)}
    table = weyl_table(d, r)
    assert len(table) == 2 ** (d - r) * math.factorial(d) // math.factorial(r)
    assert set(table) == expected and len(set(table)) == len(table)


def test_weyl_table_guards():
    with pytest.raises(ScopeError):
        weyl_table(7, 6)
    with pytest.raises(InputError):
        weyl_table(3, 3)
