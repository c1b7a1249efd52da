"""Restriction of weight-truncated complexes to boundary strata.

The class of the restriction to the index-r stratum of the weight-w
truncation of Rj_* V_lambda is an alternating sum over parabolic subsets
S containing r: each S contributes card(I_S) copies of the Lie-algebra
cohomology of N_S cut by torus-pairing thresholds (>= at r, < at the other
indices of S), with sign (-1)^(|S|-1).  Intersection-complex restrictions
are the same sums at the two adjacent dimension profiles.

``SymbolicClass`` is the value type: a formal integer combination of
(parabolic set, graded Levi module) terms.  ``flatten`` is its canonical
form, so two differently-assembled classes compare exactly.  The chain
expansion (``expansion_chains``: one unsigned ``chain_term`` per threshold
subset) re-derives the same class along a different code path; the test
suite pins both the agreement and frozen Euler evaluations.
"""

import itertools
import math

from .arith import euler_char_congruence
from .errors import InputError, Value, _new, check_index, is_int
from .grouptheory import (GroupContext, _kept_orbit, normalize_parabolic_set,
                          parabolic_data)
from .kostant import check_weight, kostant_summand, lie_n_cohomology
from .reps import (Bound, GradedVirtualRep, Weight, _check_bound, _check_cut,
                   central_weight, dot_action, pairings, truncate)
from .strata import double_coset_count, ic_profiles


class Chain(Value):
    """Truncation thresholds (s_1, a_1), ..., (s_k, a_k), s_i strictly decreasing.

    Each pair cuts by the S_{s_i}-pairing; a_i lives in Z union {+-inf}.
    The empty chain is allowed and means no truncation.
    """

    entries: tuple[tuple[int, Bound], ...]

    def __new__(cls, entries):
        entries = tuple(map(_check_cut, entries))
        if not all(is_int(s) for s, _ in entries):
            raise InputError(f"chain indices must be integers, got {entries}")
        for (s1, _), (s2, _) in zip(entries, entries[1:]):
            if s1 <= s2:
                raise InputError(f"chain indices must strictly decrease, got {entries}")
        if entries and entries[-1][0] < 0:
            raise InputError(f"chain indices must be >= 0, got {entries}")
        return _new(cls, (entries,))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.entries)


class ClassTerm(Value):
    """coefficient * (graded Levi module supported on the S-boundary)."""

    coefficient: int
    S: tuple[int, ...]
    module: GradedVirtualRep


class SymbolicClass(Value):
    """Formal integer combination of ClassTerms, canonically ordered."""

    terms: tuple[ClassTerm, ...]

    @staticmethod
    def build(terms) -> "SymbolicClass":
        """Merge the terms of equal (S, module), drop zero coefficients and
        empty modules, and sort by (S, module, coefficient): the module in
        the natural order of its summands."""
        merged: dict = {}
        for t in terms:
            key = (t.S, t.module)
            merged[key] = merged.get(key, 0) + t.coefficient
        kept = [ClassTerm(c, S, module)
                for (S, module), c in sorted(merged.items())
                if c != 0 and module.summands]
        return SymbolicClass(tuple(kept))

    def flatten(self) -> dict[tuple[tuple[int, ...], int, Weight], int]:
        """Canonical map (S, degree, Levi weight) -> total multiplicity."""
        out: dict = {}
        for t in self.terms:
            for s in t.module.summands:
                key = (t.S, s.degree, s.levi)
                val = out.get(key, 0) + t.coefficient * s.mult
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return out


def _check_profile(d: int, profile) -> tuple[Bound, ...]:
    profile = tuple(profile)
    if len(profile) != d:
        raise InputError(
            f"profile needs one threshold per parabolic index: expected {d}, "
            f"got {len(profile)}")
    return tuple(_check_bound(p) for p in profile)


def chain_term(ctx: GroupContext, chain: Chain, r: int, lam: Weight) -> SymbolicClass:
    """Unsigned building block: card(I_S) * truncation of H*(Lie N_S, V_lam).

    S is the chain support together with r; chain indices below r are
    rejected (the stratum must sit under every cut).  Each chain pair
    (s, a) keeps the Levi constituents whose S_s-pairing is
    < -a + s(s+1)/2; a threshold of -inf imposes nothing, one of +inf
    kills the term.
    """
    check_index(r, ctx.d)
    if not isinstance(chain, Chain):
        chain = Chain(tuple(chain))
    for s, _ in chain.entries:
        if s > ctx.d - 1:
            raise InputError(f"chain index {s} outside [{r}, {ctx.d - 1}]")
        if r > s:
            raise InputError(
                f"stratum {r} exceeds chain index {s}: cuts must sit at or above it")
    S = normalize_parabolic_set(ctx.d, set(chain.indices) | {r})
    conds = [(s, -a + s * (s + 1) // 2) for s, a in chain.entries]
    module = truncate(lie_n_cohomology(ctx, S, lam), conds)
    return SymbolicClass.build(
        [ClassTerm(double_coset_count(ctx, r, S), S, module)])


def restrict_weighted(ctx: GroupContext, profile, lam: Weight,
                      r: int) -> SymbolicClass:
    """Class of the restriction to the index-r stratum of the weight-truncated
    direct image, at truncation profile (one bound per parabolic index).

    Sum over S = {r} + extras, sign (-1)^(|S|-1), coefficient card(I_S);
    the constituents kept are those whose S_r-pairing is >= profile[r] + m
    and whose S_s-pairing is < profile[s] + m for the extra indices, where
    m is the central weight of lam (the pairings of a weight-w constituent
    sit m above the profile normalization, which is stated for the
    trivial-central-character slice).

    Every H*(Lie N_S, V_lam) is a slice of the one dot-action orbit of lam,
    so one pruned walk over w(rho) serves all S: ``grouptheory._kept_orbit``
    visits only the w that can lie in a W^S with min S = r and cuts on the
    running totals of w(lam + rho) while w(rho) is being placed.  Each kept
    w(rho) gives w.lam through ``dot_action``, and a summand is built only
    for the S whose W^S holds w and whose cuts it passes.
    """
    check_index(r, ctx.d)
    profile = _check_profile(ctx.d, profile)
    check_weight(ctx, lam)
    d, m, shifted = ctx.d, central_weight(lam), lam.add(ctx.rho)
    kept: dict[int, list] = {}  # bit mask of S -> (degree, w.lam) kept for S
    for length, descents, allowed, v in _kept_orbit(r, shifted.a, profile):
        mu = Weight(*dot_action(v, shifted))
        # The S keeping w.lam lie between its descents plus r and the allowed cuts.
        low = descents | 1 << r
        free = sub = allowed & ~low
        while True:
            kept.setdefault(low | sub, []).append((length, mu))
            if not sub:
                break
            sub = (sub - 1) & free
    terms = []
    for subset, sign in expansion_terms(d - 1 - r):
        S = (r,) + tuple(r + i for i in subset)
        pd = parabolic_data(ctx, S)
        module = GradedVirtualRep.build(
            kostant_summand(degree, mu, pd, m)
            for degree, mu in kept.get(sum(1 << s for s in S), ()))
        terms.append(ClassTerm(sign * double_coset_count(ctx, r, S), S, module))
    return SymbolicClass.build(terms)


def restrict_ic(ctx: GroupContext, lam: Weight,
                r: int) -> tuple[SymbolicClass, SymbolicClass]:
    """Restriction of the intersection complex, one class per cut profile.

    Returns the (upper, lower) pair: the middle-perversity truncation is
    pinched between two adjacent dimension profiles, and the two resulting
    classes must agree in Euler-mode evaluation (the caller checks; the
    acceptance suite pins the equality).  Both are cut from one
    ``restrict_weighted`` class: upper keeps the summands whose S_r-pairing
    is >= upper[r] + m, lower those whose S_s-pairing is < lower[s] + m for
    each s in S above r.
    """
    upper, lower = ic_profiles(ctx.d)
    # upper = lower + 1, so the hull (lower at r, upper above it) keeps every
    # constituent either profile keeps, and one walk serves both.
    hull = restrict_weighted(ctx, lower[:r + 1] + upper[r + 1:], lam, r)
    m = central_weight(lam)
    upper_terms, lower_terms = [], []
    for t in hull.terms:
        upper_terms.append(ClassTerm(t.coefficient, t.S, GradedVirtualRep(tuple(
            s for s in t.module.summands if pairings(s.levi)[r] >= upper[r] + m))))
        lower_terms.append(ClassTerm(t.coefficient, t.S, truncate(
            t.module, [(s, lower[s] + m) for s in t.S[1:]])))
    return SymbolicClass.build(upper_terms), SymbolicClass.build(lower_terms)


def chain_bounds_for_profile(lam: Weight, profile, indices) -> Chain:
    """Chain whose literal thresholds reproduce the shifted profile cuts:
    a_s = s(s+1)/2 - profile[s] - m, so that -a_s + s(s+1)/2 = profile[s] + m.
    The profile needs one threshold per parabolic index of lam, and each
    index must be one of them."""
    m, profile, indices = central_weight(lam), _check_profile(lam.d, profile), tuple(indices)
    for s in indices:
        check_index(s, lam.d)
    entries = []
    for s in sorted(set(indices), reverse=True):
        p = profile[s]
        if p == math.inf:
            a: Bound = -math.inf
        elif p == -math.inf:
            a = math.inf
        else:
            a = s * (s + 1) // 2 - p - m
        entries.append((s, a))
    return Chain(tuple(entries))


def expansion_terms(numStrata: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Inclusion-exclusion support for truncation over ``numStrata`` cuts:
    every increasing subset (n_1 < ... < n_q) of {1..numStrata}, paired with
    its sign (-1)^q.  2^numStrata terms, ordered by (size, lexicographic);
    the empty subset comes first with sign +1.
    """
    if not (is_int(numStrata) and numStrata >= 0):
        raise InputError(f"numStrata must be a non-negative integer, got {numStrata!r}")
    out = []
    for size in range(numStrata + 1):
        sign = -1 if size % 2 else 1
        for subset in itertools.combinations(range(1, numStrata + 1), size):
            out.append((subset, sign))
    return tuple(out)


def expansion_chains(ctx: GroupContext, profile, lam: Weight, r: int):
    """The signed chains whose chain terms sum to ``restrict_weighted``.

    The cuts strictly above r expand through ``expansion_terms`` (subset
    element i names parabolic index r + i); the >= cut at r itself expands
    through [w_{>=t} X] = [X] - [w_{<t} X].  Returns (subset, sign, chain)
    triples, two per subset: without the cut at r, then with it.
    """
    check_index(r, ctx.d)
    profile = _check_profile(ctx.d, profile)
    out = []
    for subset, sign in expansion_terms(ctx.d - 1 - r):
        extras = tuple(r + i for i in subset)
        out.append((subset, sign, chain_bounds_for_profile(lam, profile, extras)))
        out.append((subset, -sign,
                    chain_bounds_for_profile(lam, profile, extras + (r,))))
    return tuple(out)


def euler_evaluate(cls: SymbolicClass, ctx: GroupContext) -> int:
    """Exact Euler evaluation against the level-n congruence subgroups.

    Each (S, degree, Levi weight) entry contributes

        total * (-1)^degree * dim(V) * prod over GL blocks k of e_k

    with e_k the Euler characteristic of the principal level-n congruence
    subgroup of SL_k(Z); the GSp factor of the Levi enters through the
    dimension only (its own arithmetic quotient is the smaller stratum, not
    a finite group).  Blocks of size >= 3 kill their terms since their
    congruence Euler characteristic vanishes.  The value is linear, so it is
    summed per class term: coefficient * euler_dim(module) * prod e_k.
    """
    total = 0
    for t in cls.terms:
        factor, blocks = 1, parabolic_data(ctx, t.S).leviBlocks
        for k in blocks:
            factor *= euler_char_congruence(k, ctx.n)
        if factor:  # a GL block of size >= 3 makes it 0: skip the dimensions
            total += t.coefficient * factor * t.module.euler_dim(blocks)
    return total


def graded_report(cls: SymbolicClass):
    """Flat rows (S, degree, Levi weight, mult, central weight, sheaf weight,
    pairings), one per surviving (S, degree, weight) entry, sorted as
    tuples: (S, degree, Levi weight) is unique per row.

    The central weight is ``reps.central_weight`` of the weight and the
    sheaf weight its negative; pairings is ``reps.pairings`` of the weight,
    its S_s-pairing for every s in 0..d-1.
    """
    rows = []
    for (S, degree, levi), mult in cls.flatten().items():
        central = central_weight(levi)
        rows.append((S, degree, levi, mult, central, -central, pairings(levi)))
    rows.sort()
    return tuple(rows)
