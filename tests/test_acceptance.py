"""Acceptance criteria, one test per criterion.

Each test is the literal acceptance check for one numbered criterion; the
pytest -v line for it is the pass/fail record.  Two of the stated
acceptance expectations contradict the in-suite oracles and are kept as
strict xfails next to the oracle-backed test (see the comments there):
the r = 0 stratum count at (d, n) = (2, 3), and the geometric-fiber
version of the level fibration at the pairs where phi(m) != phi(n).
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from oracles import (conjugation_weight, levi_roots,
                     restrict_weighted_via_expansion, s_cochar_matrix, u_roots)
from siegelstrata import (Weight, build_context, central_weight,
                          double_coset_count, double_coset_count_bruteforce,
                          euler_evaluate, expansion_terms, graded_report,
                          ic_profiles, lie_n_cohomology, restrict_ic,
                          restrict_weighted, strata_count,
                          strata_count_bruteforce, torus_pairing)
from siegelstrata.reps import pairings as levi_pairings
from siegelstrata.strata import similitude_image_bruteforce
from siegelstrata.arith import (GSp, brute_force_group, left_orbits, mat_mod,
                                orbit_canonical)
from siegelstrata.grouptheory import levi_weyl_order, parabolic_data
from siegelstrata.hecke import (HeckeDatum, boundary_fiber_count, hecke_index,
                                reduction_fiber_count, transfer_degree)
from siegelstrata.matrixmodel import parabolic_generators, root_matrix

SEED = 20260815


def dominant_weights(d, bound, m0=0):
    for a in itertools.product(range(bound + 1), repeat=d):
        if all(a[i] >= a[i + 1] for i in range(d - 1)):
            yield Weight(a, m0)


# ---------------------------------------------------------------------------
# 1. the two threshold profiles give the same Euler characteristic

def test_c1_ic_two_profile_euler_equality():
    for d in (1, 2):
        for n in (3, 4):
            ctx = build_context(d, n)
            for lam in dominant_weights(d, 3):
                for r in range(d):
                    upper, lower = restrict_ic(ctx, lam, r)
                    eu = euler_evaluate(upper, ctx)
                    el = euler_evaluate(lower, ctx)
                    assert eu == el, (d, n, lam, r, eu, el)


# ---------------------------------------------------------------------------
# 2. genus 1: both profiles keep exactly the degree-0 summand

@pytest.mark.parametrize("k", range(6))
def test_c2_modular_curve_boundary(k):
    ctx = build_context(1, 3)
    lam = Weight((k,), 0)

    # hand computation, recorded: the Weyl group is {1, w}, w the sign flip;
    # w.(lam + rho) - rho with rho = (1;0) sends (k;0) to (-k-2; k+1), so the
    # graded module is (k;0) in degree 0 and (-k-2; k+1) in degree 1, with
    # stratum pairings 2k and -2
    module = lie_n_cohomology(ctx, (0,), lam)
    got = [(s.degree, s.levi.a, s.levi.m0, s.mult, levi_pairings(s.levi))
           for s in module.summands]
    assert got == [(0, (k,), 0, 1, (2 * k,)),
                   (1, (-k - 2,), k + 1, 1, (-2,))]

    for profile in ic_profiles(1):
        cls = restrict_weighted(ctx, profile, lam, 0)
        rows = graded_report(cls)
        assert len(rows) == 1
        S, degree, levi, mult, central, sheaf, pairings = rows[0]
        assert degree == 0 and mult == 1 and pairings == (2 * k,)
        assert central == k


# ---------------------------------------------------------------------------
# 3. Kostant suite: counts, extreme degrees, central weight, Euler dimension

def _kostant_structure(ctx, S, lam):
    pd = parabolic_data(ctx, S)
    module = lie_n_cohomology(ctx, S, lam)
    expected = (2 ** ctx.d * math.factorial(ctx.d)) // levi_weyl_order(pd)
    assert len(module.summands) == expected
    bottom = [s for s in module.summands if s.degree == 0]
    assert len(bottom) == 1 and bottom[0].levi == lam
    top = [s for s in module.summands if s.degree == pd.dimN]
    assert len(top) == 1
    m = central_weight(lam)
    assert all(central_weight(s.levi) == m for s in module.summands)
    if pd.dimN > 0:
        assert module.euler_dim(pd.leviBlocks) == 0


def test_c3_kostant_suite():
    rng = random.Random(SEED)

    def random_dominant(d):
        a = sorted((rng.randrange(0, 5) for _ in range(d)), reverse=True)
        return Weight(tuple(a), rng.randrange(-2, 3))

    for d, draws in ((1, 7), (2, 7), (3, 6)):       # 20 random weights
        ctx = build_context(d, 3)
        weights = [Weight((0,) * d, 0), Weight(tuple(range(d, 0, -1)), 1)]
        weights += [random_dominant(d) for _ in range(draws)]
        subsets = [S for size in range(1, d + 1)
                   for S in itertools.combinations(range(d), size)]
        for lam in weights:
            for S in subsets:
                _kostant_structure(ctx, S, lam)

    ctx4 = build_context(4, 3)
    for S in ((0,), (3,), (1, 3)):
        _kostant_structure(ctx4, S, Weight((2, 1, 1, 0), 0))


# ---------------------------------------------------------------------------
# 4. stratum and refinement counts against the enumeration oracle

def test_c4_coset_count_oracle_equivalence():
    expected_d1 = {3: 4, 4: 6, 5: 12}
    for n, count in expected_d1.items():
        ctx = build_context(1, n)
        assert strata_count(ctx, 0) == count
        assert strata_count_bruteforce(1, n, 0) == count

    ctx = build_context(2, 3)          # ambient group of order 103680
    for r in (0, 1):
        formula = strata_count(ctx, r)
        brute = strata_count_bruteforce(2, 3, r)
        assert formula == brute
    assert strata_count(ctx, 1) == 40
    assert strata_count(ctx, 0) == 40   # see the xfail companion below
    assert double_coset_count(ctx, 0, (0, 1)) == 4
    assert double_coset_count_bruteforce(2, 3, 0, (0, 1)) == 4


# The isotropic-flag law of test_strata.py reads 40 = 40 * 1 here: the 40
# Lagrangian planes of F_3^4, times (phi(3)/2)^1 for the one GL block.
@pytest.mark.xfail(reason="the stated expectation for r = 0 at (d, n) = "
                   "(2, 3) is 20; the closed form and the literal "
                   "enumeration both give 40, and they are what this "
                   "suite certifies",
                   strict=True)
def test_c4_literal_r0_expectation():
    assert strata_count(build_context(2, 3), 0) == 20


# ---------------------------------------------------------------------------
# 5. torus-pairing trichotomy, checked against matrix conjugation

def test_c5_torus_pairing_normalization():
    base = 3
    for d in range(1, 5):
        ctx = build_context(d, 3)
        for r in range(d):
            pd = parabolic_data(ctx, (r,))
            u = set(u_roots(d, r))
            n_only = set(pd.nRoots) - u
            for root in ctx.positiveRoots:
                pairing = torus_pairing(root, r)
                if root in u:
                    assert pairing == 2
                elif root in n_only:
                    assert pairing == 1
                else:
                    assert root in set(levi_roots(d, (r,))) and pairing == 0
                # independent check: conjugating the root vector by the
                # one-parameter point scales it by base**pairing
                g = s_cochar_matrix(d, r, base)
                q = conjugation_weight(g, root_matrix(d, root))
                assert q == Fraction(base) ** pairing


# ---------------------------------------------------------------------------
# 6. inclusion-exclusion expansion of the weighted restriction

def test_c6_operator_expansion_consistency():
    for n in range(7):
        terms = expansion_terms(n)
        assert len(terms) == 2 ** n
        for subset, sign in terms:
            assert sign == (-1) ** len(subset)
        assert sum(sign for _, sign in terms) == (1 if n == 0 else 0)

    ctx1 = build_context(1, 3)
    for k in range(4):
        for t in (-3, 0, 2, math.inf, -math.inf):
            lam = Weight((k,), 0)
            direct = restrict_weighted(ctx1, (t,), lam, 0)
            via = restrict_weighted_via_expansion(ctx1, (t,), lam, 0)
            assert direct.flatten() == via.flatten()

    ctx2 = build_context(2, 3)
    profiles = list(ic_profiles(2)) + [(0, 0), (-5, 2), (math.inf, -1),
                                       (1, -math.inf)]
    for a in ((0, 0), (1, 1), (3, 1), (2, 0)):
        for m0 in (0, 2):
            lam = Weight(a, m0)
            for r in (0, 1):
                for profile in profiles:
                    direct = restrict_weighted(ctx2, profile, lam, r)
                    via = restrict_weighted_via_expansion(ctx2, profile, lam, r)
                    assert direct.flatten() == via.flatten()
                    assert (euler_evaluate(direct, ctx2)
                            == euler_evaluate(via, ctx2))


# ---------------------------------------------------------------------------
# 7. level-transfer degrees and the stratum fibration, against enumeration

def _brute_fibers(d, n, m, S, cap=50_000):
    gens_n = parabolic_generators(build_context(d, n), S)
    gens_m = parabolic_generators(build_context(d, m), S)
    fibers: dict = {}
    for rep in left_orbits(brute_force_group(GSp(2 * d), m, cap), gens_m, m):
        target = orbit_canonical(mat_mod(rep, n), gens_n, n)
        fibers[target] = fibers.get(target, 0) + 1
    return fibers


def test_c7_hecke_indices_and_fibers():
    datum = HeckeDatum(1, 3, 6)
    assert hecke_index(datum, (0,)) == 2
    assert transfer_degree(datum) == 6
    assert boundary_fiber_count(datum, (0,)) == 3

    for n, m in ((3, 6), (3, 9), (4, 8)):
        datum = HeckeDatum(1, n, m)
        fibers = _brute_fibers(1, n, m, (0,))
        base_count = strata_count(build_context(1, n), 0)
        assert len(fibers) == base_count
        # every brute-force fiber has the class-level size, and summing the
        # fiber sizes over the base recovers the level-m stratum count
        rfc = reduction_fiber_count(datum, (0,))
        assert set(fibers.values()) == {rfc}
        assert sum(fibers.values()) == strata_count(build_context(1, m), 0)

    # with geometric fiber counts the same bookkeeping closes up at (3, 6),
    # where the unit groups at the two levels have equal size
    datum = HeckeDatum(1, 3, 6)
    total = sum(boundary_fiber_count(datum, (0,))
                for _ in range(strata_count(build_context(1, 3), 0)))
    assert total == strata_count(build_context(1, 6), 0)


@pytest.mark.xfail(reason="the stated expectation is the geometric-fiber "
                   "identity at all three level pairs; it fails whenever "
                   "phi(m) != phi(n) because a geometric stratum splits "
                   "into phi(m)/phi(n) classes, and the enumeration oracle "
                   "certifies the class-level identity instead",
                   strict=True)
def test_c7_literal_geometric_fibration_all_pairs():
    for n, m in ((3, 6), (3, 9), (4, 8)):
        datum = HeckeDatum(1, n, m)
        total = sum(boundary_fiber_count(datum, (0,))
                    for _ in range(strata_count(build_context(1, n), 0)))
        assert total == strata_count(build_context(1, m), 0), (n, m)


# ---------------------------------------------------------------------------
# 8. similitude image is the full unit group

def test_c8_similitude_image():
    for n in range(3, 13):
        units = {u for u in range(1, n) if gcd(u, n) == 1}
        assert similitude_image_bruteforce(1, n) == units
    assert similitude_image_bruteforce(2, 3) == {1, 2}


# ---------------------------------------------------------------------------
# 9. CLI byte determinism

CLI_INVOCATIONS = [
    ["context", "--d", "2", "--n", "3"],
    ["strata", "--d", "2", "--n", "3"],
    ["kostant", "--d", "2", "--n", "3", "--S", "0,1", "--lambda", "1,1"],
    ["chain-term", "--d", "1", "--n", "3", "--lambda", "2", "--stratum", "0"],
    ["restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,1",
     "--stratum", "0", "--profile=-2,-1"],
    ["restrict-ic", "--d", "1", "--n", "3", "--lambda", "2", "--stratum", "0",
     "--mode", "euler"],
    ["euler", "--d", "1", "--n", "3", "--lambda", "4", "--stratum", "0"],
    ["expansion", "--d", "2", "--n", "3", "--lambda", "1,1", "--stratum", "0",
     "--profile", "0,0"],
    ["hecke-index", "--d", "2", "--n", "3", "--m", "6", "--S", "0"],
    ["transfer-degree", "--d", "1", "--n", "3", "--m", "9"],
    ["fiber-count", "--d", "1", "--n", "3", "--m", "6", "--S", "0"],
    ["hecke-matrix", "--d", "1", "--n", "3", "--m", "6", "--S", "0"],
    ["oracle", "--d", "1", "--n", "4"],
]


def test_c9_cli_determinism():
    # the evaluators are single-threaded exact arithmetic, so the realistic
    # nondeterminism source is hash randomization; every suite invocation
    # must be byte-identical across interpreter runs with different seeds
    for args in CLI_INVOCATIONS:
        cmd = [sys.executable, "-m", "siegelstrata"] + args
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, (args, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], args
