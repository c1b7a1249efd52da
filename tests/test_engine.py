"""Truncated boundary restriction: chain terms, weighted profiles, the
intersection-complex pair, the inclusion-exclusion expansion, exact Euler
evaluation."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import restrict_weighted_via_expansion, signed_dot_action, weyl_table
from siegelstrata import (Chain, ClassTerm, InputError, Sp,
                          SymbolicClass, Weight, build_context, central_weight,
                          chain_bounds_for_profile, chain_term,
                          double_coset_count, euler_char_congruence,
                          euler_evaluate, expansion_terms, graded_report,
                          group_order, ic_profiles, lie_n_cohomology,
                          parabolic_data, restrict_ic, restrict_weighted,
                          strata_count, torus_pairing, truncate, weyl_dim,
                          zeta_negative)
from siegelstrata.grouptheory import _kept_orbit, weyl_group
from siegelstrata.reps import GradedVirtualRep, Summand, pairings


# ---------------------------------------------------------------------------
# Chain and input validation

def test_chain_validation():
    Chain(())
    Chain(((1, 0), (0, -3)))
    Chain(((2, math.inf),))
    with pytest.raises(InputError):
        Chain(((0, 0), (1, 0)))      # indices must strictly decrease
    with pytest.raises(InputError):
        Chain(((1, 0), (1, 1)))
    with pytest.raises(InputError):
        Chain(((-1, 0),))
    with pytest.raises(InputError):
        Chain(((0, "x"),))
    for s in (1.5, True, "1"):             # indices are ints, not truncated
        with pytest.raises(InputError):
            Chain(((s, 0),))


def test_chain_term_validates(ctx2):
    lam = Weight((0, 0), 0)
    with pytest.raises(InputError):
        chain_term(ctx2, Chain(((0, 0),)), 1, lam)     # r above a chain index
    with pytest.raises(InputError):
        chain_term(ctx2, Chain(((5, 0),)), 0, lam)
    with pytest.raises(InputError):
        chain_term(ctx2, Chain(()), 2, lam)            # r out of range
    with pytest.raises(InputError):
        restrict_weighted(ctx2, (0,), lam, 0)          # profile too short


# ---------------------------------------------------------------------------
# chain_term: frozen examples

def test_chain_term_empty_chain_d1(ctx1):
    cls = chain_term(ctx1, Chain(()), 0, Weight((0,), 0))
    assert len(cls.terms) == 1
    term = cls.terms[0]
    assert term.coefficient == 1 and term.S == (0,)
    assert [s.degree for s in term.module.summands] == [0, 1]


def test_chain_term_single_cut_d1(ctx1):
    # threshold a = 0 at index 0 keeps pairings < 0: only the degree-1 class
    cls = chain_term(ctx1, Chain(((0, 0),)), 0, Weight((0,), 0))
    assert [s.degree for s in cls.terms[0].module.summands] == [1]


def test_chain_term_infinite_threshold_d2(ctx2):
    # a = -inf imposes nothing: the full Borel module with coefficient 4
    cls = chain_term(ctx2, Chain(((1, -math.inf),)), 0, Weight((0, 0), 0))
    term = cls.terms[0]
    assert term.S == (0, 1) and term.coefficient == 4
    assert len(term.module.summands) == 8
    # a = +inf empties it
    cls = chain_term(ctx2, Chain(((1, math.inf),)), 0, Weight((0, 0), 0))
    assert cls.terms == ()


# ---------------------------------------------------------------------------
# restrict_weighted: frozen d=1 behavior

@pytest.mark.parametrize("k", range(6))
def test_d1_both_ic_profiles_identical_module(ctx1, k):
    lam = Weight((k,), 0)
    upper, lower = ic_profiles(1)
    a = restrict_weighted(ctx1, upper, lam, 0)
    b = restrict_weighted(ctx1, lower, lam, 0)
    assert a.flatten() == b.flatten()
    rows = graded_report(a)
    assert len(rows) == 1
    S, degree, levi, mult, central, sheaf, pairings = rows[0]
    assert (S, degree, mult) == ((0,), 0, 1)
    assert levi.a == (k,) and central == k and sheaf == -k


def test_d1_plus_infinity_kills(ctx1):
    cls = restrict_weighted(ctx1, (math.inf,), Weight((2,), 0), 0)
    assert cls.terms == ()
    assert euler_evaluate(cls, ctx1) == 0


def test_d1_minus_infinity_keeps_all(ctx1):
    cls = restrict_weighted(ctx1, (-math.inf,), Weight((2,), 0), 0)
    assert [s.degree for s in cls.terms[0].module.summands] == [0, 1]


# ---------------------------------------------------------------------------
# the degeneration identity has two natural readings (which infinite
# threshold makes the cuts vacuous); both are pinned

@pytest.mark.parametrize("r", [0, 1])
def test_degeneration_formula_reading(ctx2, r):
    # profile +inf away from r (vacuous < cuts), -inf at r (vacuous >= cut):
    # the alternating sum of untruncated modules over S containing r
    lam = Weight((1, 1), 0)
    profile = [math.inf] * 2
    profile[r] = -math.inf
    got = restrict_weighted(ctx2, tuple(profile), lam, r)
    expected_terms = []
    for size in range(2 - r):
        for extra in itertools.combinations(range(r + 1, 2), size):
            S = (r,) + extra
            sign = -1 if size % 2 else 1
            expected_terms.append(ClassTerm(
                sign * double_coset_count(ctx2, r, S), S,
                lie_n_cohomology(ctx2, S, lam)))
    assert got.flatten() == SymbolicClass.build(expected_terms).flatten()


@pytest.mark.parametrize("r", [0, 1])
def test_degeneration_prose_reading(ctx2, r):
    # all thresholds -inf: every strict cut empties its module, leaving the
    # single untruncated S = {r} term
    lam = Weight((1, 1), 0)
    got = restrict_weighted(ctx2, (-math.inf, -math.inf), lam, r)
    assert len(got.terms) == 1
    term = got.terms[0]
    assert term.S == (r,) and term.coefficient == 1
    assert term.module.summands == lie_n_cohomology(ctx2, (r,), lam).summands


# ---------------------------------------------------------------------------
# monotonicity in the stratum threshold (d = 1: kept sets grow as t drops)

def test_profile_monotone_d1(ctx1):
    lam = Weight((2,), 0)
    kept = []
    for t in range(6, -7, -1):
        cls = restrict_weighted(ctx1, (t,), lam, 0)
        kept.append(set(cls.flatten()))
    for smaller, larger in zip(kept, kept[1:]):
        assert smaller <= larger
    assert kept[0] == set() and len(kept[-1]) == 2


# ---------------------------------------------------------------------------
# duality at d = 1: dual profile + dual weight give the same Euler value

@pytest.mark.parametrize("k", range(5))
def test_duality_d1_euler(ctx1, k):
    lam = Weight((k,), 0)
    dual = Weight((k,), -k)          # -w0(lam): a unchanged, m0 = -k
    for t in range(-6, 7):
        left = euler_evaluate(restrict_weighted(ctx1, (t,), lam, 0), ctx1)
        right = euler_evaluate(restrict_weighted(ctx1, (-1 - t,), dual, 0), ctx1)
        assert left == right, (k, t)


# ---------------------------------------------------------------------------
# linearity

def test_euler_linearity(ctx2):
    lam = Weight((1, 1), 0)
    a = restrict_weighted(ctx2, ic_profiles(2)[0], lam, 0)
    b = restrict_weighted(ctx2, (0, 0), lam, 0)
    ea, eb = euler_evaluate(a, ctx2), euler_evaluate(b, ctx2)
    assert euler_evaluate(SymbolicClass.build(a.terms + b.terms), ctx2) == ea + eb
    scaled = SymbolicClass.build(t._replace(coefficient=-3 * t.coefficient)
                                 for t in a.terms)
    assert euler_evaluate(scaled, ctx2) == -3 * ea
    negated = [t._replace(coefficient=-t.coefficient) for t in a.terms]
    assert SymbolicClass.build(a.terms + tuple(negated)).terms == ()


def test_class_sum_over_direct_sum_of_weights(ctx1):
    # restriction of V_2 + V_4 is the sum of the restrictions, term by term
    p = (0,)
    c2 = restrict_weighted(ctx1, p, Weight((2,), 0), 0)
    c4 = restrict_weighted(ctx1, p, Weight((4,), 0), 0)
    f2, f4 = c2.flatten(), c4.flatten()
    assert not set(f2) & set(f4)
    assert SymbolicClass.build(c2.terms + c4.terms).flatten() == {**f2, **f4}


# ---------------------------------------------------------------------------
# expansion

def test_expansion_terms_combinatorics():
    assert expansion_terms(0) == (((), 1),)
    assert expansion_terms(2) == (((), 1), ((1,), -1), ((2,), -1), ((1, 2), 1))
    for n in range(6):
        terms = expansion_terms(n)
        assert len(terms) == 2 ** n
        assert terms[0] == ((), 1)
        assert sum(sign for _, sign in terms) == (0 if n else 1)
        for subset, sign in terms:
            assert list(subset) == sorted(set(subset))
            assert all(1 <= i <= n for i in subset)
            assert sign == (-1) ** len(subset)
    for bad in (-1, True, False, 1.0):  # a bool is not read as 1 or 0
        with pytest.raises(InputError):
            expansion_terms(bad)


@pytest.mark.parametrize("r", [0, 1])
def test_expansion_assembles_restriction_d2(ctx2, r):
    profiles = [ic_profiles(2)[0], ic_profiles(2)[1], (0, 0), (-5, 2),
                (math.inf, -1), (1, -math.inf)]
    for a in [(0, 0), (1, 1), (3, 1)]:
        for m0 in (0, 2):
            lam = Weight(a, m0)
            for profile in profiles:
                direct = restrict_weighted(ctx2, profile, lam, r)
                assembled = restrict_weighted_via_expansion(ctx2, profile, lam, r)
                assert direct.flatten() == assembled.flatten()


def test_expansion_assembles_restriction_d1(ctx1):
    for k in range(4):
        for t in (-3, 0, 2, math.inf, -math.inf):
            lam = Weight((k,), 0)
            direct = restrict_weighted(ctx1, (t,), lam, 0)
            assembled = restrict_weighted_via_expansion(ctx1, (t,), lam, 0)
            assert direct.flatten() == assembled.flatten()


def _per_set_reference(ctx, profile, lam, r):
    # the restriction formula read literally: one truncated Kostant module
    # per parabolic set S containing r, its S_r-pairing >= profile[r] + m
    m = central_weight(lam)
    terms = []
    for size in range(ctx.d - r):
        for extra in itertools.combinations(range(r + 1, ctx.d), size):
            S = (r,) + extra
            module = truncate(lie_n_cohomology(ctx, S, lam),
                              [(s, profile[s] + m) for s in extra])
            module = GradedVirtualRep(tuple(
                x for x in module.summands
                if torus_pairing(x.levi, r) >= profile[r] + m))
            terms.append(ClassTerm((-1) ** size * double_coset_count(ctx, r, S),
                                   S, module))
    return SymbolicClass.build(terms)


_BOUNDS = st.one_of(st.integers(-16, 6), st.sampled_from([math.inf, -math.inf]))


def _check_one_pass_kernel(ctx, profile, lam, r):
    direct = restrict_weighted(ctx, profile, lam, r)
    assembled = restrict_weighted_via_expansion(ctx, profile, lam, r)
    assert direct.flatten() == assembled.flatten()
    assert direct == _per_set_reference(ctx, profile, lam, r)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_one_pass_kernel_matches_references_d3_d4(d, data):
    ctx = build_context(d, 3)
    a = sorted(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)),
               reverse=True)
    lam = Weight(tuple(a), data.draw(st.integers(-3, 3)))
    profile = tuple(data.draw(_BOUNDS) for _ in range(d))
    for r in range(d):
        _check_one_pass_kernel(ctx, profile, lam, r)
        upper, lower = restrict_ic(ctx, lam, r)
        assert euler_evaluate(upper, ctx) == euler_evaluate(lower, ctx)


@settings(max_examples=4, deadline=None)
@given(st.data())
def test_one_pass_kernel_matches_references_d5(data):
    ctx = build_context(5, data.draw(st.sampled_from([3, 4, 5])))
    a = sorted(data.draw(st.lists(st.integers(0, 3), min_size=5, max_size=5)),
               reverse=True)
    lam = Weight(tuple(a), data.draw(st.integers(-3, 3).filter(bool)))
    profile = tuple(data.draw(_BOUNDS) for _ in range(5))
    r = data.draw(st.integers(1, 4))
    _check_one_pass_kernel(ctx, profile, lam, r)
    upper, lower = restrict_ic(ctx, lam, r)
    assert euler_evaluate(upper, ctx) == euler_evaluate(lower, ctx)


@pytest.mark.parametrize("profile", ["upper", "lower",
                                     (math.inf, -12, -12, -8, -10, -math.inf)])
@pytest.mark.parametrize("r", [4, 5])
def test_one_pass_kernel_matches_references_d6(r, profile):
    ctx = build_context(6, 3)
    upper, lower = ic_profiles(6)
    profile = {"upper": upper, "lower": lower}.get(profile, profile)
    _check_one_pass_kernel(ctx, profile, Weight((3, 2, 2, 1, 0, 0), -2), r)


def _table_filter(d, r, lam, profile):
    # the reference signed permutations with no descent below r, cut
    # literally: the >= cut at r reads prefix[d - r] >= profile[r], the cut
    # at s > r prefix[d - s] < profile[s], and a w whose descents fall
    # outside r and the passing cuts is dropped
    rho = Weight(tuple(range(d, 0, -1)), 0)
    out = []
    for w, length, descents, v in weyl_table(d):
        if descents & ((1 << r) - 1):
            continue
        prefix = list(itertools.accumulate(signed_dot_action(w, lam, rho).a,
                                           initial=0))
        if prefix[d - r] < profile[r]:
            continue
        allowed = 1 << r | sum(1 << s for s in range(r + 1, d)
                               if prefix[d - s] < profile[s])
        if not descents & ~allowed:
            out.append((length, descents, allowed, v))
    return Counter(out)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d, r", [(d, r) for d in range(1, 6) for r in range(d)]
                         + [(6, 0), (6, 4), (6, 5)])
def test_pruned_walk_is_the_weyl_group_filter(d, r, data):
    ctx = build_context(d, 3)
    a = sorted(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)),
               reverse=True)
    lam = Weight(tuple(a), data.draw(st.integers(-3, 3)))
    profile = tuple(data.draw(_BOUNDS) for _ in range(d))
    assert Counter(_kept_orbit(r, lam.add(ctx.rho).a, profile)) == _table_filter(
        d, r, lam, profile)


def test_restriction_builds_no_weyl_table():
    # the pruned walk replaces the table: neither a restriction nor an IC
    # pair may fall back to building weyl_group
    weyl_group.cache_clear()
    restrict_ic(build_context(5, 3), Weight((2, 1, 1, 0, 0), -1), 0)
    restrict_weighted(build_context(6, 3), ic_profiles(6)[0],
                      Weight((3, 2, 2, 1, 0, 0), -2), 4)
    assert weyl_group.cache_info().misses == 0


def _two_walks(ctx, lam, r):
    upper, lower = ic_profiles(ctx.d)
    return restrict_weighted(ctx, upper, lam, r), restrict_weighted(ctx, lower, lam, r)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ic_pair_is_the_two_profile_restrictions(data):
    # restrict_ic cuts both classes from one walk at the hull of the profiles
    d = data.draw(st.integers(1, 5))
    ctx = build_context(d, data.draw(st.sampled_from([3, 4, 5, 7])))
    a = sorted(data.draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)),
               reverse=True)
    lam = Weight(tuple(a), data.draw(st.integers(-3, 3)))
    r = data.draw(st.integers(0, d - 1))
    assert restrict_ic(ctx, lam, r) == _two_walks(ctx, lam, r)


@pytest.mark.parametrize("lam", [Weight((0,) * 6), Weight((3, 2, 2, 1, 0, 0), -2)])
@pytest.mark.parametrize("r", range(6))
def test_ic_pair_is_the_two_profile_restrictions_d6(r, lam):
    ctx = build_context(6, 3)
    assert restrict_ic(ctx, lam, r) == _two_walks(ctx, lam, r)


def test_chain_bounds_for_profile():
    lam = Weight((1, 1), 0)  # m = 2
    chain = chain_bounds_for_profile(lam, (-2, -1), (0, 1))
    assert chain.entries == ((1, 0), (0, 0))
    chain = chain_bounds_for_profile(lam, (math.inf, -math.inf), (0, 1))
    assert chain.entries == ((1, math.inf), (0, -math.inf))


# ---------------------------------------------------------------------------
# the intersection-complex pair and its frozen Euler values

def test_restrict_ic_returns_pair(ctx2):
    up, lo = restrict_ic(ctx2, Weight((1, 1), 0), 0)
    assert isinstance(up, SymbolicClass) and isinstance(lo, SymbolicClass)
    assert euler_evaluate(up, ctx2) == euler_evaluate(lo, ctx2) == Fraction(4)


def test_ic_shift_is_what_makes_the_profiles_agree(ctx2):
    # the same cut positions *without* the central-weight shift correspond to
    # profiles displaced by m = 2; those two classes disagree in Euler value,
    # which is exactly why the shifted normalization is the right one
    lam = Weight((1, 1), 0)
    raw_upper = restrict_weighted(ctx2, (-4, -3), lam, 0)   # thresholds -2,-1
    raw_lower = restrict_weighted(ctx2, (-5, -4), lam, 0)   # thresholds -3,-2
    assert euler_evaluate(raw_upper, ctx2) == Fraction(-2)
    assert euler_evaluate(raw_lower, ctx2) == Fraction(2)


def test_restrict_ic_d1_trivial_weight(ctx1):
    up, lo = restrict_ic(ctx1, Weight((0,), 0), 0)
    for cls in (up, lo):
        f = cls.flatten()
        assert len(f) == 1
        (S, degree, levi), mult = next(iter(f.items()))
        assert S == (0,) and degree == 0 and mult == 1
        assert levi.a == (0,)
    assert euler_evaluate(up, ctx1) == 1


# ---------------------------------------------------------------------------
# euler_evaluate building blocks

def _euler_per_summand(cls, ctx):
    # the evaluation read literally: every summand of every term, including
    # those whose GL-block factor is 0
    total = Fraction(0)
    for t in cls.terms:
        blocks = parabolic_data(ctx, t.S).leviBlocks
        factor = math.prod(euler_char_congruence(k, ctx.n) for k in blocks)
        for s in t.module.summands:
            total += (t.coefficient * s.mult * (-1) ** s.degree
                      * weyl_dim(s.levi, blocks) * factor)
    return total


@pytest.mark.parametrize("a,m0", [((0, 0, 0, 0, 0), 0), ((3, 2, 1, 1, 0), 1)])
def test_euler_evaluate_matches_per_summand_sum_d5(a, m0):
    ctx = build_context(5, 4)
    for cls in restrict_ic(ctx, Weight(a, m0), 0):
        blocks = [parabolic_data(ctx, t.S).leviBlocks for t in cls.terms]
        assert any(k >= 3 for b in blocks for k in b)  # zero factors occur
        assert euler_evaluate(cls, ctx) == _euler_per_summand(cls, ctx)


def test_euler_single_gl2_term(ctx2):
    # one degree-0 summand of GL_2-dimension 5 at level 3: 5 * e_2(3) = -10
    module = GradedVirtualRep.build([Summand(0, Weight((1, -3), 2))])
    cls = SymbolicClass.build([ClassTerm(1, (0,), module)])
    assert euler_evaluate(cls, ctx2) == Fraction(-10)


def test_euler_gsp_factor_counts_dimension_only(ctx2):
    # S = (1,): Levi GL_1 x GSp_2; a GSp-block weight of dimension 3 scales
    # the term by 3 and the GL_1 factor contributes e_1 = 1
    module = GradedVirtualRep.build([Summand(0, Weight((0, 2), 0))])
    cls = SymbolicClass.build([ClassTerm(2, (1,), module)])
    assert euler_evaluate(cls, ctx2) == Fraction(6)


def test_euler_degree_sign(ctx1):
    module = GradedVirtualRep.build([Summand(1, Weight((3,), 0))])
    cls = SymbolicClass.build([ClassTerm(1, (0,), module)])
    assert euler_evaluate(cls, ctx1) == Fraction(-1)


# ---------------------------------------------------------------------------
# SymbolicClass canonical form and the report

def test_build_merges_and_drops(ctx1):
    module = lie_n_cohomology(ctx1, (0,), Weight((2,), 0))
    t = ClassTerm(1, (0,), module)
    merged = SymbolicClass.build([t, t])
    assert len(merged.terms) == 1 and merged.terms[0].coefficient == 2
    cancelled = SymbolicClass.build([t, ClassTerm(-1, (0,), module)])
    assert cancelled.terms == ()


def test_flatten_is_order_independent(ctx2):
    lam = Weight((1, 1), 0)
    cls = restrict_weighted(ctx2, (0, 0), lam, 0)
    for perm in itertools.permutations(cls.terms):
        assert SymbolicClass.build(perm).flatten() == cls.flatten()


# summands over two coordinates, in modules that sit under S = (0,) (Levi
# GL_2) and S = (0, 1) (Levi GL_1 x GL_1) alike
MIXED_SHAPES = [Summand(0, Weight((1, 0), 0)),
                Summand(0, Weight((2, 0), 0)),
                Summand(1, Weight((1, 0), 0)),
                Summand(0, Weight((1, 0), -1))]
mixed_terms = st.lists(st.builds(
    ClassTerm, st.integers(-2, 2), st.sampled_from([(0,), (0, 1)]),
    st.lists(st.sampled_from(MIXED_SHAPES), min_size=1, max_size=3)
    .map(GradedVirtualRep.build)), max_size=6)


@given(mixed_terms.flatmap(lambda ts: st.tuples(st.just(ts), st.permutations(ts))))
def test_build_is_order_independent_across_levi_shapes(pair):
    terms, permuted = pair
    assert SymbolicClass.build(permuted) == SymbolicClass.build(terms)
    # the report sorts rows itself, whatever the order of the terms
    assert (graded_report(SymbolicClass(tuple(permuted)))
            == graded_report(SymbolicClass(tuple(terms))))


def _report_key(row):
    """The order the report has always had: (S, degree, a-vector, m0)."""
    S, degree, levi = row[:3]
    return S, degree, levi.a, levi.m0


def test_graded_report_rows(ctx2):
    cls = restrict_weighted(ctx2, ic_profiles(2)[0], Weight((1, 1), 0), 0)
    rows = graded_report(cls)
    assert len(rows) == sum(len(t.module.summands) for t in cls.terms)
    assert list(rows) == sorted(rows, key=_report_key)
    for S, degree, levi, mult, central, sheaf, pairs in rows:
        assert sheaf == -central
        assert len(pairs) == 2
        assert central == sum(levi.a) + 2 * levi.m0
        assert pairs == pairings(levi)


@pytest.mark.parametrize("d", range(1, 6))
def test_report_rows_keep_their_order(d):
    ctx = build_context(d, 3)
    for lam in (Weight((0,) * d, 0), Weight(tuple(range(d, 0, -1)), 1)):
        for r in range(d):
            for cls in restrict_ic(ctx, lam, r):
                rows = graded_report(cls)
                assert rows and list(rows) == sorted(rows, key=_report_key)
                keys = [_report_key(row) for row in rows]
                assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("d", range(1, 5))
def test_lie_n_summands_keep_their_order(d):
    ctx = build_context(d, 3)
    lam = Weight(tuple(range(d - 1, -1, -1)), -1)
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            key = [(s.degree, s.levi.a, s.levi.m0)
                   for s in lie_n_cohomology(ctx, S, lam).summands]
            assert key == sorted(key) and len(set(key)) == len(key)


# ---------------------------------------------------------------------------
# global law: the Euler assembly of intersection cohomology
#
#   chi(IH(A_d(n)^*, V_lam)) = chi(Gamma_Sp2d(n)) * dim V_lam
#       + sum over r < d of strata_count(r) * chi(Gamma_Sp2r(n)) * eulerIC(r)
#
# with chi(Gamma_Sp2r(n)) = |Sp_2r(Z/n)| * prod_{i <= r} zeta(1 - 2i)
# (Harder), 1 at r = 0, and eulerIC(r) the Euler value of the IC
# restriction to the index-r stratum.

def _chi_sp(r, n):
    value = Fraction(group_order(Sp(2 * r), n))
    for i in range(1, r + 1):
        value *= zeta_negative(2 * i)
    return value


def _assembled_euler(d, n, lam):
    ctx = build_context(d, n)
    total = _chi_sp(d, n) * weyl_dim(lam, ())
    for r in range(d):
        upper, lower = restrict_ic(ctx, lam, r)
        value = euler_evaluate(upper, ctx)
        assert euler_evaluate(lower, ctx) == value
        total += strata_count(ctx, r) * _chi_sp(r, n) * value
    return total


def _modular_curve(n):
    """(genus, cusps) of X(n), n >= 3, from the index mu of +-Gamma(n) in
    PSL_2(Z): mu = n^3/2 * prod over p | n of (1 - 1/p^2), mu/n cusps,
    genus 1 + mu/12 - cusps/2 (Shimura 1971, ch. 1 and 2)."""
    mu = Fraction(n ** 3, 2)
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            mu *= 1 - Fraction(1, p * p)
    cusps = mu / n
    return 1 + mu / 12 - cusps / 2, cusps


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("k", range(5))
def test_euler_assembly_is_the_modular_curve_value(n, k):
    # IH of X(n) with Sym^k: H^0 + H^2 at k = 0, and H^1 = S_{k+2} twice
    # (Eichler-Shimura) at k >= 1; dim S_j = (j-1)(g-1) + (j/2-1)*cusps, j >= 3
    genus, cusps = _modular_curve(n)
    if k == 0:
        expected = 2 - 2 * genus
    else:
        expected = -2 * ((k + 1) * (genus - 1) + Fraction(k, 2) * cusps)
    assert _assembled_euler(1, n, Weight((k,), 0)) == expected


@pytest.mark.parametrize("d", range(2, 5))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_euler_assembly_is_an_integer(d, n):
    for lam in (Weight((0,) * d, 0), Weight((1,) + (0,) * (d - 1), -1),
                Weight(tuple(range(d, 0, -1)), 0)):
        assert _assembled_euler(d, n, lam).denominator == 1, lam


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_euler_assembly_sign_at_regular_weight(d, n):
    # for regular lam, IH sits in the middle degree d(d+1)/2 only (Zucker
    # conjecture and Vogan-Zuckerman); it may vanish (d = 1, n = 3)
    total = _assembled_euler(d, n, Weight(tuple(range(d, 0, -1)), 0))
    assert (-1) ** (d * (d + 1) // 2) * total >= 0
