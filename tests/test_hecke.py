"""Level-transfer structure: degrees, fiber counts, the literal fibration
of stratum classes, and the transfer-matrix tabulation."""

import itertools
import json
import random
from math import gcd

import pytest

from siegelstrata import arith, build_context, double_coset_count, strata_count
from siegelstrata.arith import (GSp, ScopeError, _form_table, brute_force_group,
                                euler_phi, group_order, left_orbits, mat_mod,
                                orbit_canonical, subgroup_closure)
from siegelstrata.cli import main
from siegelstrata.errors import InputError
from oracles import hecke_tabulation, j_form, kernel_shadow_count
from siegelstrata.hecke import (HeckeDatum, boundary_fiber_count,
                                hecke_index, hecke_matrix_structure,
                                reduction_fiber_count, transfer_degree)
from siegelstrata.matrixmodel import parabolic_generators

PAIRS = [(3, 6), (3, 9), (4, 8)]


def test_datum_validation():
    HeckeDatum(1, 3, 3)
    HeckeDatum(2, 4, 12)
    with pytest.raises(InputError):
        HeckeDatum(1, 4, 6)      # 4 does not divide 6
    with pytest.raises(InputError):
        HeckeDatum(1, 3, 2)
    with pytest.raises(InputError):
        HeckeDatum(1, 2, 4)      # base level must be >= 3
    with pytest.raises(InputError):
        HeckeDatum(0, 3, 6)
    with pytest.raises(ScopeError):
        HeckeDatum(7, 3, 6)      # the Weyl-group genus guard
    for flag in (True, False):   # levels are ints, not bools
        with pytest.raises(InputError):
            HeckeDatum(1, 3, flag)
        with pytest.raises(InputError):
            HeckeDatum(1, flag, 6)


def test_equal_levels_are_trivial():
    datum = HeckeDatum(1, 3, 3)
    assert transfer_degree(datum) == 1
    assert hecke_index(datum, (0,)) == 1
    assert boundary_fiber_count(datum, (0,)) == 1
    assert reduction_fiber_count(datum, (0,)) == 1


# ---------------------------------------------------------------------------
# frozen values, genus 1, S = {0}

@pytest.mark.parametrize("pair,deg,idx,bfc,rfc,shadow", [
    ((3, 6), 6, 2, 3, 3, 2),
    ((3, 9), 81, 3, 27, 9, 9),
    ((4, 8), 16, 2, 8, 4, 4),
])
def test_genus1_frozen_values(pair, deg, idx, bfc, rfc, shadow):
    datum = HeckeDatum(1, *pair)
    assert transfer_degree(datum) == deg
    assert hecke_index(datum, (0,)) == idx
    assert boundary_fiber_count(datum, (0,)) == bfc
    assert reduction_fiber_count(datum, (0,)) == rfc
    assert kernel_shadow_count(datum, (0,)) == shadow


def test_genus2_frozen_values():
    datum = HeckeDatum(2, 3, 6)
    assert transfer_degree(datum) == 720
    assert hecke_index(datum, (0,)) == 48


def test_fiber_count_relations():
    # geometric fibers exceed class fibers by exactly the similitude split
    for pair in PAIRS:
        datum = HeckeDatum(1, *pair)
        n, m = pair
        bfc = boundary_fiber_count(datum, (0,))
        rfc = reduction_fiber_count(datum, (0,))
        assert bfc * euler_phi(n) == rfc * euler_phi(m)
    # the two agree exactly when phi(m) = phi(n)
    datum = HeckeDatum(1, 3, 6)
    assert boundary_fiber_count(datum, (0,)) == reduction_fiber_count(datum, (0,))


def test_kernel_shadow_is_closure_index():
    # |H(m)| / |H(n)| computed from literal closures
    for pair in PAIRS:
        datum = HeckeDatum(1, *pair)
        n, m = pair
        h_n = len(subgroup_closure(
            parabolic_generators(build_context(1, n), (0,)), n, 50_000))
        h_m = len(subgroup_closure(
            parabolic_generators(build_context(1, m), (0,)), m, 50_000))
        assert h_m == h_n * kernel_shadow_count(datum, (0,))


# ---------------------------------------------------------------------------
# the fibration of stratum classes, counted literally

def _class_fibers(d, n, m, S, cap=50_000):
    """level-m stratum classes, grouped by their mod-n reduction class."""
    gens_n = parabolic_generators(build_context(d, n), S)
    gens_m = parabolic_generators(build_context(d, m), S)
    ambient = brute_force_group(GSp(2 * d), m, cap)
    fibers: dict = {}
    for rep in left_orbits(ambient, gens_m, m):
        target = orbit_canonical(mat_mod(rep, n), gens_n, n)
        fibers[target] = fibers.get(target, 0) + 1
    return fibers


@pytest.mark.parametrize("pair", PAIRS)
def test_class_fibration_genus1(pair):
    n, m = pair
    datum = HeckeDatum(1, n, m)
    rfc = reduction_fiber_count(datum, (0,))
    fibers = _class_fibers(1, n, m, (0,))
    assert len(fibers) == strata_count(build_context(1, n), 0)
    assert set(fibers.values()) == {rfc}
    assert sum(fibers.values()) == strata_count(build_context(1, m), 0)


def test_stratum_count_scales_by_class_fiber():
    # The Hecke fiber law: over each level-n class of (r, S) double cosets
    # lie reduction_fiber_count level-m classes, r = min S, so
    #   strata_count(m, r) * double_coset_count(m, r, S)
    #     == strata_count(n, r) * double_coset_count(n, r, S) * fiber.
    # It ties the strata and hecke closed forms together at every S with
    # d <= 6 (3,600 cases).  An error that scales strata_count (or
    # double_coset_count) at one r by the same factor at both levels
    # cancels out of both sides, so the law does not catch it.
    for d in range(1, 7):
        sets = [S for k in range(1, d + 1) for S in itertools.combinations(range(d), k)]
        for n in range(3, 13):
            ctx_n = build_context(d, n)
            for m in (2 * n, 3 * n, 4 * n):
                ctx_m = build_context(d, m)
                for S in sets:
                    r = S[0]
                    fiber = reduction_fiber_count(HeckeDatum(d, n, m), S)
                    assert (strata_count(ctx_m, r) * double_coset_count(ctx_m, r, S)
                            == strata_count(ctx_n, r) * double_coset_count(ctx_n, r, S)
                            * fiber), (d, n, m, S)


def test_geometric_fiber_identity_only_at_phi_preserving_pair():
    # with geometric fibers the same identity singles out the pair where
    # phi(m) = phi(n); elsewhere the similitude components break it
    holds = {}
    for pair in PAIRS:
        n, m = pair
        bfc = boundary_fiber_count(HeckeDatum(1, n, m), (0,))
        holds[pair] = (strata_count(build_context(1, m), 0)
                       == strata_count(build_context(1, n), 0) * bfc)
    assert holds == {(3, 6): True, (3, 9): False, (4, 8): False}


# ---------------------------------------------------------------------------
# transfer-matrix tabulation

def test_matrix_identity_is_diagonal():
    st = hecke_matrix_structure(HeckeDatum(1, 3, 6), (0,))
    assert len(st.classes) == 4
    assert st.entries == ((0, 0, 3), (1, 1, 3), (2, 2, 3), (3, 3, 3))
    assert st.column_totals() == (3, 3, 3, 3)


def test_matrix_nontrivial_element_permutes_classes():
    # the symplectic form matrix itself, reduced mod 6
    st = hecke_matrix_structure(HeckeDatum(1, 3, 6), (0,), ((0, 1), (5, 0)))
    assert st.entries == ((0, 3, 3), (1, 2, 3), (2, 1, 3), (3, 0, 3))


def test_matrix_totals_are_fiber_sizes():
    datum = HeckeDatum(1, 3, 6)
    rfc = reduction_fiber_count(datum, (0,))
    for g in (None, ((0, 1), (5, 0)), ((1, 1), (0, 1)), ((5, 0), (0, 5))):
        st = hecke_matrix_structure(datum, (0,), g)
        rows = [0] * len(st.classes)
        for i, _, c in st.entries:
            rows[i] += c
        assert st.column_totals() == tuple([rfc] * len(st.classes))
        assert rows == [rfc] * len(st.classes)
        assert sum(c for _, _, c in st.entries) == strata_count(build_context(1, 6), 0)


def _unit_determinant_matrices(m: int, count: int, seed: str):
    """count seeded 2x2 matrices mod m with unit determinant (GSp_2 = GL_2)."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        g = tuple(tuple(rng.randrange(m) for _ in range(2)) for _ in range(2))
        if gcd(g[0][0] * g[1][1] - g[0][1] * g[1][0], m) == 1:
            out.append(g)
    return out


@pytest.mark.parametrize("pair", PAIRS + [(3, 12), (4, 12), (5, 10), (6, 12)])
def test_matrix_matches_the_literal_tabulation(pair):
    # classes and entries equal the tabulation over both levels, so every
    # closed-form count is the number of level-m classes it stands for
    n, m = pair
    datum = HeckeDatum(1, n, m)
    for g in [None, *_unit_determinant_matrices(m, 3, f"hecke:{n}:{m}")]:
        st = hecke_matrix_structure(datum, (0,), g)
        assert (st.classes, st.entries) == hecke_tabulation(datum, (0,), g), g


def test_matrix_enumerates_level_n_only():
    # only GSp_2(Z/3) is enumerated and decoded; GSp_2(Z/12) never is
    for cache in (arith._brute_force_cached, arith._decoded):
        cache.cache_clear()
    hecke_matrix_structure(HeckeDatum(1, 3, 12), (0,))
    for cache in (arith._brute_force_cached, arith._decoded):
        assert cache.cache_info().currsize == 1
        hits = cache.cache_info().hits
        cache(GSp(2), 3, arith.DEFAULT_CAP)  # a hit: the one entry is level 3
        assert cache.cache_info().hits == hits + 1
        assert cache.cache_info().currsize == 1


def test_matrix_rejects_bad_g():
    datum = HeckeDatum(1, 3, 6)
    with pytest.raises(InputError):
        hecke_matrix_structure(datum, (0,), ((1, 0),))          # wrong shape
    with pytest.raises(InputError):
        hecke_matrix_structure(datum, (0,), ((2, 0), (0, 2)))   # non-unit similitude
    with pytest.raises(InputError):
        hecke_matrix_structure(datum, (0,), ((1, 1), (1, 1)))   # not symplectic


def test_matrix_small_cap_raises():
    with pytest.raises(ScopeError):
        hecke_matrix_structure(HeckeDatum(1, 3, 6), (0,), cap=10)


def test_single_matrix_check_builds_no_table(capsys):
    # g is checked at level m before the cap refuses GSp_4(Z/4), the first
    # genus-2 level past it (1,474,560 elements); that check is similitude
    # on one matrix, never the 8^8-entry form table
    assert group_order(GSp(4), 4) > arith.DEFAULT_CAP >= group_order(GSp(4), 3)
    before = _form_table.cache_info().currsize
    with pytest.raises(ScopeError):
        hecke_matrix_structure(HeckeDatum(2, 4, 8), (0,))
    assert _form_table.cache_info().currsize == before
    assert main(["hecke-matrix", "--d", "3", "--n", "3", "--m", "6", "--S", "0"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# genus 2: level m = 6 is past the cap, level n = 3 is not

def test_genus2_matrix_is_the_fiber_count_on_the_diagonal(capsys):
    # the CLI answers without enumerating GSp_4(Z/6) (74,649,600 elements)
    assert main(["hecke-matrix", "--d", "2", "--n", "3", "--m", "6", "--S", "0"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(result["classes"]) == strata_count(build_context(2, 3), 0) == 40
    assert reduction_fiber_count(HeckeDatum(2, 3, 6), (0,)) == 15
    assert result["rows"] == [{"to": str(j), "from": str(j), "count": "15"}
                              for j in range(40)]


def test_genus2_matrix_nontrivial_element_permutes_classes():
    st = hecke_matrix_structure(HeckeDatum(2, 3, 6), (0,), mat_mod(j_form(2), 6))
    assert len(st.classes) == 40
    assert sorted(i for i, _, _ in st.entries) == list(range(40))
    assert sorted(j for _, j, _ in st.entries) == list(range(40))
    assert {c for _, _, c in st.entries} == {15}
    assert any(i != j for i, j, _ in st.entries)


def test_genus2_matrix_on_the_flag_stratum():
    datum = HeckeDatum(2, 3, 6)
    ctx = build_context(2, 3)
    st = hecke_matrix_structure(datum, (0, 1))
    assert len(st.classes) == strata_count(ctx, 0) * double_coset_count(ctx, 0, (0, 1)) == 160
    assert reduction_fiber_count(datum, (0, 1)) == 45
    assert st.entries == tuple((j, j, 45) for j in range(160))
