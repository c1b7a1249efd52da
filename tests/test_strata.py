"""Stratum counting: closed forms against literal orbit enumeration.

The closed forms divide big exact group orders; the brute-force twins build
the same quotients out of actual matrices over Z/n.  Where the two meet is
the contract.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from siegelstrata import (GSp, InputError, LevelError, ScopeError, build_context,
                          double_coset_count, double_coset_count_bruteforce,
                          euler_phi, ic_profiles, strata_count,
                          strata_count_bruteforce, stratum_dims)
from oracles import (flag_blocks, isotropic_flag_count, isotropic_subspace_count,
                     j_form, q_binomial, subgroup_order_formula, totient)
from siegelstrata import arith, strata
from siegelstrata.arith import (DEFAULT_CAP, _brute_force_cached, _decode,
                                brute_force_group, similitude,
                                symplectic_form)
from siegelstrata.strata import (_closure_for, _strata_count_raw,
                                 refinement_check_bruteforce,
                                 similitude_image_bruteforce,
                                 strata_orbit_partition)


def test_stratum_dims():
    assert stratum_dims(1) == (1, 0)
    assert stratum_dims(2) == (3, 1, 0)
    assert stratum_dims(3) == (6, 3, 1, 0)


def test_ic_profiles():
    assert ic_profiles(1) == ((0,), (-1,))
    assert ic_profiles(2) == ((-2, -1), (-3, -2))
    upper, lower = ic_profiles(3)
    assert all(u - l == 1 for u, l in zip(upper, lower))
    assert upper == (-5, -4, -2)


D1_COUNTS = {3: 4, 4: 6, 5: 12, 6: 12, 8: 24, 9: 36}


def test_strata_counts_d1():
    for n, count in D1_COUNTS.items():
        ctx = build_context(1, n)
        assert strata_count(ctx, 0) == count


def test_strata_counts_d2(ctx2):
    assert strata_count(ctx2, 0) == 40
    assert strata_count(ctx2, 1) == 40


def test_strata_count_degenerate_levels():
    # below the neatness threshold the raw count is still well-defined
    assert _strata_count_raw(1, 1, 0) == 1
    assert _strata_count_raw(2, 1, 0) == 1
    assert _strata_count_raw(2, 2, 0) == 15
    assert _strata_count_raw(2, 2, 1) == 15


def test_strata_count_validates(ctx2):
    with pytest.raises(InputError):
        strata_count(ctx2, 2)
    with pytest.raises(InputError):
        strata_count(ctx2, -1)
    for r in (True, 1.0, 0.5):      # not read as r = 1 or truncated to 0
        with pytest.raises(InputError):
            strata_count(ctx2, r)


def test_double_coset_counts(ctx2):
    assert double_coset_count(ctx2, 0, (0,)) == 1
    assert double_coset_count(ctx2, 1, (1,)) == 1
    assert double_coset_count(ctx2, 0, (0, 1)) == 4
    ctx4 = build_context(2, 4)
    assert double_coset_count(ctx4, 0, (0, 1)) == 6


def test_double_coset_requires_min(ctx2):
    with pytest.raises(InputError):
        double_coset_count(ctx2, 1, (0, 1))


def test_subgroup_order_formula(ctx2):
    # |H_S| for both maximal sets at d=2, n=3 equals 2592; the Borel is 648
    assert subgroup_order_formula(ctx2, (0,)) == 2592
    assert subgroup_order_formula(ctx2, (1,)) == 2592
    assert subgroup_order_formula(ctx2, (0, 1)) == 648


@pytest.mark.parametrize("d, n, S", [(1, n, (0,)) for n in range(3, 13)] + [
    (2, n, S) for n in (3, 4, 5) for S in ((0,), (1,), (0, 1))])
def test_closure_order_is_the_order_formula(d, n, S):
    # the generators of H_S are complete: their closure has the formula's order
    closure = _closure_for(d, n, S, DEFAULT_CAP)
    assert len(closure) == subgroup_order_formula(build_context(d, n), S)


def test_strata_bruteforce_d1():
    for n in (3, 4, 5):
        assert strata_count_bruteforce(1, n, 0) == D1_COUNTS[n]


def test_strata_bruteforce_d2():
    assert strata_count_bruteforce(2, 3, 0) == 40
    assert strata_count_bruteforce(2, 3, 1) == 40


def test_double_coset_bruteforce():
    assert double_coset_count_bruteforce(2, 3, 0, (0, 1)) == 4
    assert double_coset_count_bruteforce(2, 4, 0, (0, 1)) == 6


def test_refinement_bruteforce():
    # [H_r : H_S] = card(I_S): the index of the refined subgroup matches
    assert refinement_check_bruteforce(2, 3, 0, (0, 1))
    assert refinement_check_bruteforce(2, 4, 0, (0, 1))
    assert refinement_check_bruteforce(2, 3, 1, (1,))


def test_borel_quotient_consistency(ctx2):
    # the Borel subgroup indexes pairs (stratum class, Levi double coset):
    # [G : H_Borel] = strata(r=0) * doubleCosets(S = {0,1})
    from siegelstrata import GSp, group_order
    g_order = group_order(GSp(4), 3)
    assert g_order == 103680
    h_borel = subgroup_order_formula(ctx2, (0, 1))
    assert g_order // h_borel == 160
    assert 160 == strata_count(ctx2, 0) * double_coset_count(ctx2, 0, (0, 1))


@pytest.mark.parametrize("d", range(1, 7))
def test_flag_count_is_a_multiple_of_each_stratum_count(d):
    # P_S lies in P_s for every s in S, so H_S lies in H_s: the
    # strata_count(min S) * card(I_S) level-S flags split into [H_s : H_S]
    # flags through each index-s stratum
    for n in range(3, 31):
        ctx = build_context(d, n)
        for size in range(1, d + 1):
            for S in itertools.combinations(range(d), size):
                flags = strata_count(ctx, S[0]) * double_coset_count(ctx, S[0], S)
                for s in S:
                    assert flags % strata_count(ctx, s) == 0, (n, S, s)


@pytest.mark.parametrize("d", range(1, 7))
def test_strata_and_refinements_count_isotropic_flags(d):
    # the level-n S-classes are the isotropic S-flags of (Z/n)^{2d}, each
    # GL block carrying a volume form up to sign: phi(n)/2 of them
    for n in range(3, 41):
        ctx = build_context(d, n)
        for size in range(1, d + 1):
            for S in itertools.combinations(range(d), size):
                blocks = flag_blocks(d, S)
                assert strata_count(ctx, S[0]) * double_coset_count(ctx, S[0], S) == (
                    isotropic_flag_count(d, S, n) * (totient(n) // 2) ** len(blocks)), (n, S)


def _isotropic_subspaces(d: int, k: int, p: int) -> tuple[int, int]:
    """(k-subspaces of F_p^{2d}, the totally isotropic ones), each subspace
    met once as its reduced row-echelon basis."""
    size, j = 2 * d, j_form(d)
    candidates = isotropic = 0
    for pivots in itertools.combinations(range(size), k):
        free = [(i, c) for i, pivot in enumerate(pivots)
                for c in range(pivot + 1, size) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == pivot) for c in range(size)] for pivot in pivots]
            for (i, c), x in zip(free, values):
                rows[i][c] = x
            candidates += 1
            isotropic += all(
                sum(u[a] * j[a][b] * v[b] for a in range(size) for b in range(size)) % p == 0
                for u, v in itertools.combinations(rows, 2))
    return candidates, isotropic


@pytest.mark.parametrize("d, p", [(2, 3), (2, 5), (3, 3)])
def test_taylor_count_is_the_enumeration(d, p):
    for k in range(d + 1):
        assert _isotropic_subspaces(d, k, p) == (
            q_binomial(2 * d, k, p), isotropic_subspace_count(d, k, p)), k


@pytest.mark.parametrize("n, index", [(3, 4), (4, 6)])
def test_flag_quotient_is_the_closure_index(n, index):
    # at d = 2 the S = {0, 1} flags through one index-1 stratum number
    # [H_1 : H_{0,1}], read off the two closures
    ctx = build_context(2, n)
    flags = strata_count(ctx, 0) * double_coset_count(ctx, 0, (0, 1))
    quotient, rest = divmod(flags, strata_count(ctx, 1))
    closures = divmod(len(_closure_for(2, n, (1,), DEFAULT_CAP)),
                      len(_closure_for(2, n, (0, 1), DEFAULT_CAP)))
    assert (quotient, rest) == closures == (index, 0)


def test_orbit_partition_d1():
    partition = strata_orbit_partition(1, 3, 0)
    assert sorted(partition.values()) == [12, 12, 12, 12]


def test_similitude_image():
    for n in (3, 4, 5, 8, 12):
        image = similitude_image_bruteforce(1, n)
        assert len(image) == euler_phi(n)
        assert all(x % n == x for x in image)
    assert len(similitude_image_bruteforce(2, 3)) == 2


@pytest.mark.parametrize("call, args, error", [
    (strata_count_bruteforce, (2, 3, 5), InputError),              # r outside 0..d-1
    (refinement_check_bruteforce, (2, 3, 1, (0, 1)), InputError),  # min S != r
    (similitude_image_bruteforce, (1, 2), LevelError),             # level below 3
    (strata_orbit_partition, (2, 3, 5), InputError),               # r outside 0..d-1
    (strata_orbit_partition, (2, 3, 0), ScopeError),               # 103,680 elements
], ids=["strata-r", "refinement-min-S", "similitude-level", "orbit-partition-r",
        "orbit-partition-size"])
def test_bruteforce_refuses_before_enumerating(call, args, error):
    # hits and misses both: a warm cache would hide a call as a hit
    def calls():
        return _brute_force_cached.cache_info(), _closure_for.cache_info()

    before = calls()
    with pytest.raises(error):
        call(*args)
    assert calls() == before


def _tampered(kind, n: int, cap: int, index: int = 1000):
    """The keys cache's (keys, size) for kind over Z/n, with entry (1, 0) of
    one element off by one: that element leaves GSp_4(Z/n)."""
    keys, size = _brute_force_cached(kind, n, cap)
    weight = n ** (size * size - 1 - size)  # of entry (1, 0) in a row-major key
    entry = keys[index] // weight % n
    bad = keys[index] + ((entry + 1) % n - entry) * weight
    return keys[:index] + (bad,) + keys[index + 1:], size


def test_image_oracle_raises_on_a_tampered_element(monkeypatch):
    keys, _ = _brute_force_cached(GSp(4), 3, DEFAULT_CAP)
    tampered, size = _tampered(GSp(4), 3, DEFAULT_CAP)
    g, member = _decode([tampered[1000], keys[1000]], size, 3)
    assert similitude(g, 3) is None and g[1][0] == (member[1][0] + 1) % 3
    # rows 1 and 2 are still partners (member[2][3] is 0): only the other
    # row pairs show the change
    assert symplectic_form(g[1], g[2], 3) == symplectic_form(g[0], g[3], 3)
    monkeypatch.setattr(strata, "_brute_force_cached",
                        lambda kind, n, cap: (tampered, size))
    with pytest.raises(ArithmeticError, match="fails the similitude identity mod 3"):
        similitude_image_bruteforce(2, 3)


def test_image_oracle_requires_the_unit_group(monkeypatch):
    # the c = 2 elements of GSp_2(Z/3) swapped for the zero matrix (key 0),
    # whose factor is 0: as many distinct factors as units, but not the units
    keys, size = _brute_force_cached(GSp(2), 3, DEFAULT_CAP)
    fake = tuple(0 if similitude(g, 3) == 2 else key
                 for key, g in zip(keys, brute_force_group(GSp(2), 3)))
    assert 0 in fake and _decode([0], size, 3) == (((0, 0), (0, 0)),)
    monkeypatch.setattr(strata, "_brute_force_cached",
                        lambda kind, n, cap: (fake, size))
    with pytest.raises(ArithmeticError, match=r"\[0, 1\], not the 2 units mod 3"):
        similitude_image_bruteforce(1, 3)


def test_d2_oracles_read_keys_not_matrices(monkeypatch):
    # cold, the count and the image oracle over GSp_4(Z/3) build no matrix
    # of the group: under 6 MB at peak, against 13.7 MB with the matrices;
    # nor, with the refinement check, a matrix of H_r or H_S, which are
    # counted and compared as column codes
    for cached in (_brute_force_cached, arith._decoded, arith._vectors,
                   arith._column_spread, arith._form_table, arith._column_codes,
                   _closure_for):
        cached.cache_clear()
    decoded = []

    def counted(keys, size, n):
        decoded.append(keys)
        return _decode(keys, size, n)

    # _decode builds every matrix: the group's, a closure's, an orbit's
    monkeypatch.setattr(arith, "_decode", counted)
    monkeypatch.setattr(strata, "_decode", counted)
    tracemalloc.start()
    try:
        assert strata_count_bruteforce(2, 3, 1) == 40
        assert similitude_image_bruteforce(2, 3) == {1, 2}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refinement_check_bruteforce(2, 3, 0, (0, 1))
    assert peak < 8 * 2 ** 20, peak
    assert arith._decoded.cache_info().currsize == 0
    assert decoded == []


@pytest.mark.parametrize("factor", [None, 0])
def test_closure_refuses_a_generator_without_a_unit_factor(monkeypatch, factor):
    # the generators are checked before their closure is built
    def build(*args):
        raise AssertionError("the closure was built")

    _closure_for.cache_clear()  # a warm entry would answer without checking
    monkeypatch.setattr(strata, "similitude", lambda g, n: factor)
    monkeypatch.setattr(strata, "_closure_codes", build)
    with pytest.raises(ArithmeticError, match=r"is not in GSp_4\(Z/3\)"):
        strata_count_bruteforce(2, 3, 1)


@pytest.mark.parametrize("d, n, error, message", [
    (1, 2, LevelError, "level must be an integer >= 3"),
    (7, 3, ScopeError, "genus 7 exceeds the Weyl-group guard"),
])
def test_double_coset_oracle_checks_before_any_closure(monkeypatch, d, n,
                                                       error, message):
    # (d, n) are refused as by the sibling oracles, before a GL_{d-r} closure
    def build(*args):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(strata, "subgroup_closure", build)
    with pytest.raises(error, match=message):
        double_coset_count_bruteforce(d, n, 0, (0,))


# a python -O subprocess patches one of these in before its call
_TAMPER_AMBIENT = (
    "from test_strata import _tampered\n"
    "strata._brute_force_cached = _tampered\n")
_FLAKY_GENERATOR = (
    "real = strata.similitude\n"
    "seen = []\n"
    "def flaky(g, n):\n"
    "    seen.append(g)\n"
    "    return None if len(seen) == 2 else real(g, n)\n"
    "strata.similitude = flaky\n")


_IMPORT_WEIGHT = "from siegelstrata.reps import Weight\n"
_IMPORT_CHAIN = (_IMPORT_WEIGHT +
                 "from siegelstrata.engine import chain_bounds_for_profile\n")


@pytest.mark.parametrize("patch, call, error, message", [
    (_TAMPER_AMBIENT, "strata.similitude_image_bruteforce(2, 3)",
     "ArithmeticError", "fails the similitude identity"),
    (_FLAKY_GENERATOR, "strata.strata_count_bruteforce(1, 3, 0)",
     "ArithmeticError", "is not in GSp_2(Z/3)"),
    ("", "strata.similitude((), 3)", "InputError", "positive even size, got 0"),
    ("", "strata.similitude(((1, 0, 0),) * 3, 3)", "InputError",
     "positive even size, got 3"),
    ("", "strata.similitudes([0, 1, 100], 3, 3)", "InputError",
     "positive even size, got 3"),
    ("", "strata.similitudes([0], 6, 2)", "ScopeError", "size 2 or 4, not 6"),
    (_IMPORT_WEIGHT, "Weight((1, 2)).add(Weight((1,)))", "InputError",
     "lengths 2 and 1"),
    (_IMPORT_CHAIN, "chain_bounds_for_profile(Weight((0, 0)), (0,), [1])",
     "InputError", "expected 2, got 1"),
    (_IMPORT_CHAIN, "chain_bounds_for_profile(Weight((0, 0)), (0, 0), [2])",
     "InputError", "parabolic index 2 out of range"),
], ids=["ambient-element", "closure-generator", "similitude-size-0",
        "similitude-odd-size", "similitudes-odd-size", "similitudes-size-6",
        "weight-add-length", "chain-bounds-profile", "chain-bounds-index"])
def test_similitude_checks_survive_optimize(patch, call, error, message):
    # python -O strips asserts; a matrix that fails the identity must still
    # stop the oracle, whether it is an element of the group or a generator,
    # and input of the wrong shape must still be refused
    code = f"from siegelstrata import strata\n{patch}print({call})"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              [str(src), str(Path(__file__).parent)])))
    assert proc.returncode != 0 and proc.stdout == ""
    assert error in proc.stderr and message in proc.stderr
