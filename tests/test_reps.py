"""Weight containers, pairings, dominance, dimension formulas, truncation."""

import math

import pytest
from hypothesis import given, strategies as st

from siegelstrata import (GradedVirtualRep, InputError, Weight,
                          central_weight, dot_action, is_dominant,
                          is_levi_dominant, torus_pairing, truncate, weyl_dim,
                          weyl_group)
from oracles import _gl_dim, _gsp_dim, signed_dot_action, signed_permutations
from siegelstrata.kostant import check_weight
from siegelstrata.reps import Summand, pairings

weights = st.builds(
    Weight,
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(tuple),
    st.integers(-4, 4))


def test_weight_arithmetic():
    u = Weight((2, 1), 1)
    v = Weight((1, 0), -2)
    assert u.add(v) == Weight((3, 1), -1)
    assert u.neg() == Weight((-2, -1), -1)
    assert u.d == 2


@pytest.mark.parametrize("a, b", [((1, 2), (1,)), ((1,), (1, 2)), ((), (0,))])
def test_weight_add_refuses_another_length(a, b):
    # zip would cut the longer weight short
    with pytest.raises(InputError, match=f"lengths {len(a)} and {len(b)}"):
        Weight(a).add(Weight(b))


def test_central_weight_values():
    assert central_weight(Weight((1, 1), 0)) == 2
    assert central_weight(Weight((3,), -1)) == 1
    assert central_weight(Weight((0, 0, 0), 2)) == 4


def test_torus_pairing_hand_values():
    mu = Weight((1, 1), 0)
    assert torus_pairing(mu, 0) == 4   # both entries doubled
    assert torus_pairing(mu, 1) == 3   # first doubled, second plain
    nu = Weight((-4, 2), 2)
    assert torus_pairing(nu, 0) == 2 * (-4 + 2) + 4 == 0
    assert torus_pairing(nu, 1) == -8 + 2 + 4 == -2


def test_torus_pairing_rejects_bad_index():
    with pytest.raises(InputError):
        torus_pairing(Weight((1,), 0), 1)
    with pytest.raises(InputError):
        torus_pairing(Weight((1,), 0), -1)


@given(weights)
def test_torus_pairing_s0_formula(mu):
    assert torus_pairing(mu, 0) == 2 * sum(mu.a) + 2 * mu.m0


@given(weights)
def test_pairings_match_the_definition(mu):
    d, a = mu.d, mu.a
    assert pairings(mu) == tuple(2 * sum(a[:d - s]) + sum(a[d - s:]) + 2 * mu.m0
                                 for s in range(d))
    assert all(torus_pairing(mu, s) == pairings(mu)[s] for s in range(d))


@given(weights, st.integers(0, 2))
def test_torus_pairing_step(mu, s):
    # raising s by one moves coordinate d-s from the doubled to the plain part
    if s + 1 > mu.d - 1:
        return
    assert torus_pairing(mu, s + 1) == torus_pairing(mu, s) - mu.a[mu.d - s - 1]


def test_dominance(ctx2):
    assert is_dominant(Weight((3, 1, 0), -5))
    assert not is_dominant(Weight((1, 2), 0))
    assert not is_dominant(Weight((1, -1), 0))
    with pytest.raises(InputError, match=r"^weight \(0, 1\);0 is not dominant for GSp$"):
        check_weight(ctx2, Weight((0, 1), 0))


def test_dot_action_identity_and_lengths(ctx2):
    lam = Weight((1, 1), 0)
    for length, _, v in weyl_group(2, range(2)):
        mu = Weight(*dot_action(v, lam.add(ctx2.rho)))
        assert central_weight(mu) == central_weight(lam)
        if length == 0:
            assert mu == lam


def test_dot_action_d1_flip(ctx1):
    # lam = (3;0), flip: (3+1) -> (-4) then -rho gives (-5), m0 picks up 4
    assert dot_action((-1,), Weight((3,), 0).add(ctx1.rho)) == ([-5], 4)


@given(weights, st.integers(0, 383))
def test_dot_action_central_invariance(mu, idx):
    # any weight, dominant or not: w.mu keeps the central weight of mu
    d = mu.d
    group = weyl_group(d, range(d))
    _, _, v = group[idx % len(group)]
    rho = Weight(tuple(range(d, 0, -1)), 0)
    assert central_weight(Weight(*dot_action(v, mu.add(rho)))) == central_weight(mu)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_dot_action_matches_signed_permutations(d):
    # the w(rho)-vector kernel against the (perm, signs) reference in oracles.py
    rho = Weight(tuple(range(d, 0, -1)), 0)
    lams = [Weight((0,) * d, 0), Weight(tuple(range(2 * d, 0, -2)), -1),
            Weight(tuple((-1) ** i * (i + 1) for i in range(d)), 3)]
    for w in signed_permutations(d):
        v = w.apply_vector(rho.a)
        for lam in lams:
            assert Weight(*dot_action(v, lam.add(rho))) == signed_dot_action(w, lam, rho)


@pytest.mark.parametrize("v, shifted", [
    ((3,), (1, 0)), ((1, 2), (1,)), ((3, 1), (3, 1)), ((2, 2), (3, 1)),
    ((0, 1), (3, 1)), ((2, -2), (3, 1)), ((), (1,))])
def test_dot_action_refuses_what_is_not_a_signed_permutation(v, shifted):
    # w(rho) must list +-1..d once each, d the length of lam + rho
    with pytest.raises(InputError, match="signed permutation of 1"):
        dot_action(v, Weight(shifted, 0))


GL2_DIMS = {(1, 0): 2, (1, 1): 1, (2, 0): 3, (1, -3): 5, (0, -4): 5,
            (-4, -4): 1}
GSP4_DIMS = {(0, 0): 1, (1, 0): 4, (1, 1): 5, (2, 0): 10, (2, 1): 16,
             (2, 2): 14, (3, 0): 20, (3, 3): 30}


def test_weyl_dim_gl_blocks():
    for b, dim in GL2_DIMS.items():
        assert weyl_dim(Weight(b, 0), (2,)) == dim


def test_weyl_dim_gsp_blocks():
    for g, dim in GSP4_DIMS.items():
        assert weyl_dim(Weight(g, 0), ()) == dim
    # rank 1: symplectic = special linear, dim k+1
    for k in range(6):
        assert weyl_dim(Weight((k,), 0), ()) == k + 1


def test_weyl_dim_products():
    assert weyl_dim(Weight((1, -3, 2), 5), (2,)) == 5 * 3


gl_blocks = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(
    lambda b: tuple(sorted(b, reverse=True)))
gsp_blocks = st.lists(st.integers(0, 20), max_size=6).map(
    lambda g: tuple(sorted(g, reverse=True)))


@given(st.lists(gl_blocks, max_size=3).map(tuple), gsp_blocks, st.integers(-20, 20))
def test_weyl_dim_matches_fraction_reference(blocks, gsp, m0):
    expected = _gsp_dim(gsp)
    for b in blocks:
        expected *= _gl_dim(b)
    a = tuple(x for b in blocks for x in b) + gsp
    assert weyl_dim(Weight(a, m0), tuple(len(b) for b in blocks)) == expected


def test_levi_dominance():
    assert is_levi_dominant(Weight((0, -4), 3), (2,))
    assert not is_levi_dominant(Weight((-4, 0), 3), (2,))
    assert not is_levi_dominant(Weight((-1,), 0), ())
    assert is_levi_dominant(Weight((2, 2, 1, 0), 0), (2,))


@pytest.mark.parametrize("blocks", [(0,), (True,), (1.0,), (-1,), (3,), (1, 2), [1]])
def test_levi_blocks_are_validated(blocks):
    # blocks must be a tuple of positive integers with sum at most d = 2, also
    # right after a valid (1,): (True,) and (1.0,) hash and compare equal to
    # (1,), so a cache keyed on blocks would let them through
    mu = Weight((1, 0), 0)
    module = GradedVirtualRep.build([Summand(0, mu)])
    for check in (lambda b: weyl_dim(mu, b), lambda b: is_levi_dominant(mu, b),
                  module.euler_dim):
        with pytest.raises(InputError):
            check(blocks)
        check((1,))
        with pytest.raises(InputError):
            check(blocks)
    # GSp_4, GL_1 x GSp_2, GL_2 and GL_1 x GL_1 dimensions of (1, 0)
    for ok, dim in [((), 4), ((1,), 1), ((2,), 2), ((1, 1), 1)]:
        assert module.euler_dim(ok) == weyl_dim(mu, ok) == dim


def _module():
    return GradedVirtualRep.build([
        Summand(0, Weight((1, 1), 0)),
        Summand(1, Weight((1, -3), 2)),
        Summand(2, Weight((0, -4), 3)),
    ])


def _degrees(module):
    return tuple(s.degree for s in module.summands)


def test_graded_rep_merging_and_euler():
    m = _module()
    assert _degrees(m) == (0, 1, 2)
    assert m.euler_dim((2,)) == 1 - 5 + 5
    doubled = GradedVirtualRep.build(m.summands + m.summands)
    assert all(s.mult == 2 for s in doubled.summands)
    negated = [s._replace(mult=-s.mult) for s in m.summands]
    assert GradedVirtualRep.build(negated + list(m.summands)).summands == ()
    assert GradedVirtualRep.build(s._replace(mult=0) for s in m.summands).summands == ()


def test_summand_sheaf_weight():
    # pairings and central weight are read from the Levi weight
    s = Summand(1, Weight((1, -3), 2))
    assert Summand._fields == ("degree", "levi", "mult") and s.mult == 1
    assert central_weight(s.levi) == 2
    assert pairings(s.levi) == (0, 3)


def test_truncate_modes():
    m = _module()
    pairs0 = [pairings(s.levi)[0] for s in m.summands]
    assert pairs0 == [4, 0, -2]
    pairs1 = [pairings(s.levi)[1] for s in m.summands]
    assert pairs1 == [3, 3, 2]
    assert _degrees(truncate(m, [(1, 3)])) == (2,)
    assert _degrees(truncate(m, [(0, 1)])) == (1, 2)
    assert _degrees(truncate(m, [(0, 1), (1, 3)])) == (2,)
    assert _degrees(truncate(m, [(0, -2)])) == ()
    assert _degrees(truncate(m, [])) == (0, 1, 2)


def test_truncate_validates():
    m = _module()
    with pytest.raises(InputError):
        truncate(m, [(7, 0)])
    # every cut index is checked, not only those a summand's test reaches
    with pytest.raises(InputError):
        truncate(m, [(0, -math.inf), (5, 0)])
    with pytest.raises(InputError):
        truncate(m, [(0, "x")])
    with pytest.raises(InputError):
        truncate(m, [(0, 0.5)])
    # each cut must be an (index, bound) pair
    for cut in [(0,), (0, 1, 2), ()]:
        with pytest.raises(InputError, match=r"an \(index, bound\) pair"):
            truncate(m, [(1, 3), cut])


def test_truncate_infinite_bounds():
    m = _module()
    assert _degrees(truncate(m, [(0, math.inf)])) == (0, 1, 2)
    assert _degrees(truncate(m, [(0, -math.inf)])) == ()


@given(st.lists(st.tuples(st.integers(0, 3),
                          st.integers(-3, 3),
                          st.integers(-2, 2),
                          st.integers(-2, 2),
                          st.integers(-2, 2)), max_size=8), st.data())
def test_build_merges_duplicates(entries, data):
    summands = [Summand(deg, Weight((a, b), m0), mult)
                for deg, a, b, m0, mult in entries if a >= b]
    m = GradedVirtualRep.build(summands)
    seen = set()
    for s in m.summands:
        key = (s.degree, s.levi)
        assert key not in seen
        seen.add(key)
        assert s.mult != 0
    # the canonical form does not depend on the input order
    assert GradedVirtualRep.build(data.draw(st.permutations(summands))) == m
    # each mult is the input total for its (degree, levi); zero totals drop out
    totals: dict = {}
    for s in summands:
        totals[s.degree, s.levi] = totals.get((s.degree, s.levi), 0) + s.mult
    assert {(s.degree, s.levi): s.mult for s in m.summands} == {
        key: mult for key, mult in totals.items() if mult}
    # rebuilding two parts gives the whole, and euler_dim is additive over it
    cut = data.draw(st.integers(0, len(summands)))
    a = GradedVirtualRep.build(summands[:cut])
    b = GradedVirtualRep.build(summands[cut:])
    assert GradedVirtualRep.build(a.summands + b.summands) == m
    assert m.euler_dim((2,)) == a.euler_dim((2,)) + b.euler_dim((2,))


# two coordinates, as a Levi weight of GL_2, GL_1 x GL_1, GL_1 x GSp_2 or GSp_4
mixed_shape_summands = st.lists(st.builds(
    lambda deg, a, m0, mult: Summand(deg, Weight(a, m0), mult),
    st.integers(0, 2), st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(-1, 1), st.integers(-2, 2)), max_size=8)


@given(mixed_shape_summands.flatmap(
    lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
def test_build_is_canonical_across_levi_shapes(pair):
    summands, permuted = pair
    m = GradedVirtualRep.build(summands)
    assert GradedVirtualRep.build(permuted) == m
    totals: dict = {}
    for s in summands:
        totals[s.degree, s.levi] = totals.get((s.degree, s.levi), 0) + s.mult
    assert {(s.degree, s.levi): s.mult for s in m.summands} == {
        key: mult for key, mult in totals.items() if mult}
