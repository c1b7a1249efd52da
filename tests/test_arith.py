"""Exact group orders, congruence indices, Bernoulli machinery, and the
finite-group brute-force layer that anchors every counting formula."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import enumerate_symplectic, j_form, mat_mul_closure, transpose
from siegelstrata import (GL, GSp, SL, InputError, ScopeError, Sp,
                          brute_force_group, build_context,
                          congruence_index, euler_char_congruence, euler_phi,
                          group_order, integral_image_order, zeta_negative)
from siegelstrata.arith import (FACTOR_LIMIT, _column_spread, _ColumnCodes,
                                _decode, _form_table, _vectors,
                                bernoulli, factorint, identity_matrix,
                                left_orbits, mat_det, mat_mod,
                                mat_mul, orbit_canonical, similitude,
                                similitudes, subgroup_closure,
                                symplectic_form)
from siegelstrata.matrixmodel import parabolic_generators


def test_factorint_and_phi():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(1) == {}
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert [euler_phi(n) for n in range(3, 13)] == [2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_factorint_is_bounded():
    assert FACTOR_LIMIT == 10 ** 12
    assert factorint(999999999989) == {999999999989: 1}   # a 12-digit prime
    assert factorint(FACTOR_LIMIT) == {2: 12, 5: 12}
    with pytest.raises(ScopeError):
        factorint(FACTOR_LIMIT + 1)


def _run_optimized(code: str):
    """Run ``code`` in a fresh ``python -O``, which strips assert statements."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))


def test_exact_div_checks_under_optimize():
    # an assert would be stripped by -O and 7 / 2 would quietly come out as 3
    proc = _run_optimized("from siegelstrata.arith import exact_div; print(exact_div(7, 2))")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError: 7 is not divisible by 2" in proc.stderr


def test_euler_char_congruence_checks_integrality_under_optimize():
    # e_2 = |SL_2(Z/n)| * zeta(-1) is an integer; with a wrong order of 7 an
    # assert would be stripped by -O and -7/12 would come out as the answer
    proc = _run_optimized("from siegelstrata import arith\n"
                          "arith.group_order = lambda kind, n: 7\n"
                          "print(arith.euler_char_congruence(2, 3))")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError" in proc.stderr and "-7/12" in proc.stderr


@pytest.mark.parametrize("tamper", ["keys[-1] = keys[0]", "keys.pop()"],
                         ids=["duplicate", "missing"])
def test_enumeration_checks_under_optimize(tamper):
    # a repeated or a missing element must stop brute_force_group, not
    # only under asserts
    proc = _run_optimized("from siegelstrata import arith\n"
                          "real = arith._enumerate_symplectic\n"
                          "def tampered(d, n, sim):\n"
                          "    keys = real(d, n, sim)\n"
                          f"    {tamper}\n"
                          "    return keys\n"
                          "arith._enumerate_symplectic = tampered\n"
                          "print(len(arith.brute_force_group(arith.GSp(2), 3)))")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError" in proc.stderr and "not 48 distinct ones" in proc.stderr


KNOWN_ORDERS = {
    (GL(1), 4): 2,
    (GL(2), 2): 6,
    (GL(2), 3): 48,
    (GL(2), 4): 96,
    (GL(3), 2): 168,
    (SL(2), 3): 24,
    (SL(2), 4): 48,
    (SL(2), 9): 648,
    (Sp(2), 3): 24,          # Sp_2 = SL_2
    (Sp(4), 2): 720,
    (Sp(4), 3): 51840,
    (GSp(2), 3): 48,
    (GSp(2), 6): 288,
    (GSp(4), 3): 103680,
    (GSp(0), 5): 4,          # similitude torus alone
}


def test_group_order_known_values():
    for (kind, n), order in KNOWN_ORDERS.items():
        assert group_order(kind, n) == order, (kind, n)


def test_group_order_trivialities():
    assert group_order(GL(0), 7) == 1
    assert group_order(SL(1), 7) == 1
    with pytest.raises(Exception):
        group_order(GL(2), 1)  # modulus 1 is out of contract here


@given(st.integers(2, 30), st.integers(1, 3))
@settings(max_examples=40)
def test_group_order_crt_multiplicative(n, k):
    fac = factorint(n)
    for kind in (GL(k), SL(k), Sp(2 * ((k % 2) + 1)), GSp(2)):
        prod = 1
        for p, e in fac.items():
            prod *= group_order(kind, p ** e)
        assert group_order(kind, n) == prod


def test_group_order_matches_bruteforce_small():
    cases = [(GL(2), 3), (SL(2), 4), (GSp(2), 3), (Sp(2), 5)]
    cases += [(SL(0), n) for n in range(2, 6)]  # the trivial group
    for kind, n in cases:
        elems = brute_force_group(kind, n)
        assert len(elems) == group_order(kind, n)


def test_brute_force_group_is_strictly_increasing():
    # sorted and duplicate-free, for every kind enumerated in this file
    cases = list(KNOWN_ORDERS) + [(Sp(2), 5), (GL(2), 9), (GSp(4), 2)]
    cases += [(SL(0), n) for n in range(2, 6)]
    cases += [(kind, n) for n in range(3, 9) for kind in (GSp(2), Sp(2))]
    for kind, n in cases:
        elems = brute_force_group(kind, n)
        assert all(a < b for a, b in zip(elems, elems[1:])), (kind, n)


def test_bruteforce_closure_matches_formula_at_prime_power():
    # GL_2(Z/9) is too big to scan but fine to close over generators
    elems = brute_force_group(GL(2), 9)
    assert len(elems) == group_order(GL(2), 9) == 3 ** 4 * 48


def test_sp4_bruteforce_order():
    assert len(brute_force_group(Sp(4), 2)) == 720


def test_integral_image_order():
    # image of the integral points: index-2 (det = +-1) over SL for k >= 2
    assert integral_image_order(0, 5) == 1
    assert integral_image_order(1, 1) == 1
    assert integral_image_order(1, 2) == group_order(SL(1), 2)
    assert integral_image_order(2, 2) == group_order(SL(2), 2)      # -1 = 1
    assert integral_image_order(2, 3) == 2 * group_order(SL(2), 3)
    assert integral_image_order(3, 4) == 2 * group_order(SL(3), 4)


def test_integral_image_bruteforce():
    from siegelstrata.matrixmodel import linear_parabolic_generators
    n = 5
    gens = linear_parabolic_generators(2, (2,), n)
    elems = subgroup_closure(gens, n)
    assert len(elems) == integral_image_order(2, n) == 240


def test_congruence_index_values():
    assert congruence_index(GSp(2), 3, 6) == 6
    assert congruence_index(GSp(2), 3, 9) == 81
    assert congruence_index(GSp(2), 4, 8) == 16
    assert congruence_index(SL(2), 3, 6) == 6
    assert congruence_index(SL(1), 3, 9) == 1
    assert congruence_index(GSp(4), 3, 9) == 3 ** 11
    with pytest.raises(Exception):
        congruence_index(GSp(2), 4, 6)  # 4 does not divide 6


def test_congruence_index_is_kernel_size_bruteforce():
    # |ker(GSp_2(Z/6) -> GSp_2(Z/3))| equals the index of the level groups
    n, m = 3, 6
    elems = brute_force_group(GSp(2), m)
    kernel = [g for g in elems if mat_mod(g, n) == identity_matrix(2)]
    assert len(kernel) == congruence_index(GSp(2), n, m)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_zeta_negative_values():
    # zeta_negative(i) = zeta(1 - i) = -B_i / i
    assert zeta_negative(2) == Fraction(-1, 12)    # zeta(-1)
    assert zeta_negative(3) == 0                   # zeta(-2)
    assert zeta_negative(4) == Fraction(1, 120)    # zeta(-3)
    assert zeta_negative(6) == Fraction(-1, 252)   # zeta(-5)
    assert zeta_negative(12) == Fraction(691, 32760)


def test_euler_char_congruence():
    for n in (3, 4, 5, 7):
        assert euler_char_congruence(1, n) == 1
    with pytest.raises(Exception):
        euler_char_congruence(0, 3)  # empty blocks never reach this formula
    assert euler_char_congruence(2, 3) == -2
    assert euler_char_congruence(2, 4) == -4
    assert euler_char_congruence(2, 5) == -10
    assert euler_char_congruence(2, 6) == -12
    for k in (3, 4, 5):
        assert euler_char_congruence(k, 3) == 0


def test_euler_char_is_integral():
    for n in range(3, 12):
        v = euler_char_congruence(2, n)
        assert type(v) is int and v < 0


def test_euler_char_is_the_zeta_product():
    # the integer closed form against |SL_k(Z/n)| * prod_{i=2..k} zeta(1-i)
    # taken literally in fractions
    for k in range(1, 9):
        for n in range(3, 41):
            literal = Fraction(group_order(SL(k), n))
            for i in range(2, k + 1):
                literal *= zeta_negative(i)
            assert euler_char_congruence(k, n) == literal, (k, n)


def test_j_form_and_similitude():
    j = j_form(2)
    assert j == ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))
    n = 7
    assert similitude(identity_matrix(4), n) == 1
    assert similitude(tuple(tuple(3 * x % n for x in row)
                            for row in identity_matrix(4)), n) == 2  # 9 mod 7
    not_gsp = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert similitude(not_gsp, n) is None


@lru_cache(maxsize=None)
def _scaled_j(size: int, c: int, n: int):
    """c J mod n for the antidiagonal J of ``j_form``."""
    return mat_mod(tuple(tuple(c * x for x in row) for row in j_form(size // 2)), n)


def _product(a, b, n: int):
    """a b mod n, row by column: the reference's own matrix product."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % n for col in cols) for row in a)


def _similitude_reference(g, n):
    """The defining identity as matrices: c with t(g) J g = c J mod n, else None."""
    size = len(g)
    m = _product(_product(transpose(g), _scaled_j(size, 1, n), n), g, n)
    c = m[0][size - 1]
    return c if m == _scaled_j(size, c, n) else None


_square_2d = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-9, 9)] * (2 * d)), min_size=2 * d, max_size=2 * d
).map(tuple))


@given(_square_2d, st.integers(2, 9))
@settings(max_examples=150)
def test_similitude_matches_matrix_identity(g, n):
    assert similitude(g, n) == _similitude_reference(g, n)
    # entry (i, j) of t(g) J g is the form on columns i and j
    m = mat_mul(mat_mul(transpose(g), j_form(len(g) // 2), n), g, n)
    cols = transpose(g)
    assert m == tuple(tuple(symplectic_form(u, v, n) for v in cols) for u in cols)


@given(st.integers(0, 103_679), st.booleans(), st.integers(0, 15), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_similitude_on_gsp4_elements(index, perturb, pos, delta):
    g = member = brute_force_group(GSp(4), 3)[index]
    if perturb:
        rows = [list(row) for row in g]
        rows[pos // 4][pos % 4] = (rows[pos // 4][pos % 4] + delta) % 3
        g = tuple(map(tuple, rows))
    c = similitude(g, 3)
    assert c == _similitude_reference(g, 3)
    assert perturb or c in (1, 2)
    # the image check on keys, with a member after g in the batch
    keys = [_row_major_key(g, 3), _row_major_key(member, 3)]
    assert similitudes(keys, 4, 3) == [c, similitude(member, 3)]


def _off_by_one(g, n: int):
    """g with entry (1, 1) raised by one mod n."""
    rows = [list(row) for row in g]
    rows[1][1] = (rows[1][1] + 1) % n
    return tuple(map(tuple, rows))


def test_image_check_is_similitude_element_for_element():
    # similitudes reads a key's row codes against the shared form table,
    # g J t(g) = c J; similitude checks the columns of one matrix alone,
    # t(g) J g = c J: for unit c they agree
    cases = [(1, n) for n in range(3, 13)] + [(2, 2), (2, 3)]
    for d, n in cases:
        group = brute_force_group(GSp(2 * d), n)
        factors = similitudes([_row_major_key(g, n) for g in group], 2 * d, n)
        assert factors == [similitude(g, n) for g in group], (d, n)
        assert factors == [similitude(transpose(g), n) for g in group], (d, n)
        assert factors == [_similitude_reference(g, n) for g in group], (d, n)
        assert set(factors) == {c for c in range(n) if gcd(c, n) == 1}
        # and off the group, one entry of each element changed: at d = 1
        # both sides read the determinant, and at d = 2 over a field such a
        # matrix stays in GSp or fails both identities
        off = [_off_by_one(g, n) for g in group]
        assert similitudes([_row_major_key(g, n) for g in off], 2 * d, n) == [
            similitude(g, n) for g in off], (d, n)


@pytest.mark.parametrize("size, n", [(2, n) for n in range(2, 13)] + [(4, 2), (4, 3)])
def test_form_table_rows_are_the_form(size, n):
    # _form_row builds each row by linearity from the unit vectors
    vecs = _vectors(size, n)
    assert _form_table(size, n) == tuple(
        tuple(symplectic_form(u, v, n) for v in vecs) for u in vecs)


def test_rank_one_enumeration_is_the_defining_filter():
    for n in range(3, 9):
        mats = list(itertools.product(
            itertools.product(range(n), repeat=2), repeat=2))
        sims = [_similitude_reference(g, n) for g in mats]
        assert brute_force_group(GSp(2), n) == tuple(
            g for g, c in zip(mats, sims) if c is not None and gcd(c, n) == 1)
        assert brute_force_group(Sp(2), n) == tuple(
            g for g, c in zip(mats, sims) if c == 1)


def test_two_pair_enumeration_satisfies_the_identity():
    # with the closed-form count asserted inside, this pins GSp_4(Z/2) exactly
    group = brute_force_group(GSp(4), 2)
    assert len(group) == 720
    assert all(_similitude_reference(g, 2) == 1 for g in group)


def test_brute_force_group_is_the_reference_enumeration():
    # the integer-coded walk against column-pair backtracking over tuples
    cases = [(1, n) for n in range(3, 13)] + [(2, 2), (2, 3)]
    for d, n in cases:
        for kind, sim in ((GSp(2 * d), None), (Sp(2 * d), 1)):
            assert brute_force_group(kind, n) == tuple(
                sorted(enumerate_symplectic(d, n, sim))), (kind, n)


def test_enumerated_rows_are_shared():
    # every row is one of the 81 vectors of (Z/3)^4, held once
    group = brute_force_group(GSp(4), 3)
    assert len({id(row) for g in group for row in g}) <= 81


def _row_major_key(g, n: int) -> int:
    key = 0
    for x in itertools.chain.from_iterable(g):
        key = key * n + x
    return key


@given(st.integers(1, 4), st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_keys_decode_and_order_as_tuples(size, n, data):
    entry = st.integers(0, n - 1)
    matrix = st.tuples(*[st.tuples(*[entry] * size)] * size)
    g, h = data.draw(matrix), data.draw(matrix)
    vecs, spread = _vectors(size, n), _column_spread(size, n)
    for m in (g, h):
        assert _row_major_key(m, n) == sum(
            spread[j][vecs.index(col)] for j, col in enumerate(zip(*m)))
    assert _decode([_row_major_key(g, n), _row_major_key(h, n)], size, n) == (g, h)
    assert (_row_major_key(g, n) < _row_major_key(h, n)) == (g < h)


def test_mat_det():
    assert mat_det(((2, 1), (1, 1))) == 1
    assert mat_det(identity_matrix(3)) == 1
    assert mat_det(((0, 1), (1, 0))) == -1
    assert mat_det(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3


def test_scope_errors():
    with pytest.raises(ScopeError):
        brute_force_group(GSp(4), 4)        # 1.4m elements > default cap
    with pytest.raises(ScopeError):
        brute_force_group(GL(3), 16)


def test_bool_is_not_an_integer():
    calls = [(GL, (True,)), (SL, (False,)), (Sp, (True,)), (GSp, (False,)),
             (factorint, (True,)), (group_order, (GL(2), True)),
             (integral_image_order, (True, 3)), (integral_image_order, (2, True)),
             (zeta_negative, (True,)), (euler_char_congruence, (True, 3)),
             (brute_force_group, (GL(1), True))]
    for fn, args in calls:
        with pytest.raises(InputError):
            fn(*args)


def _generator_row(size, n, i):
    """Row i of a generator: an identity row, a permutation row, a scaled
    unit row or a dense row, with entries not necessarily reduced mod n."""
    def unit(k, a):
        return tuple(a if j == k else 0 for j in range(size))
    index, entry = st.integers(0, size - 1), st.integers(-n, 2 * n)
    return st.one_of(st.just(unit(i, 1)),
                     index.map(lambda k: unit(k, 1)),
                     st.tuples(index, entry).map(lambda ka: unit(*ka)),
                     st.tuples(*[entry] * size))


@st.composite
def _action_case(draw):
    size, n = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    g = tuple(draw(_generator_row(size, n, i)) for i in range(size))
    row = st.tuples(*[st.integers(0, n - 1)] * size)
    return g, draw(st.tuples(*[row] * size)), n


@given(_action_case())
@settings(max_examples=300)
def test_column_code_action_is_the_matrix_product(case):
    g, x, n = case
    codes = _ColumnCodes(len(g), n)
    cx = codes.encode(x)
    y = tuple(map(codes.action(g), cx))
    assert codes.decode(y) == mat_mul(g, x, n)
    assert codes.decode(cx) == x
    # a code is its column's index in _vectors, and keys order as matrices
    if n ** len(g) <= 4096:
        assert cx == tuple(map(_vectors(len(g), n).index, zip(*x)))
    assert (codes.key(cx) < codes.key(y)) == (x < mat_mul(g, x, n))


@pytest.mark.parametrize("S", [(0,), (1,), (0, 1)])
def test_subgroup_closure_matches_the_dense_product_closure(S):
    gens = parabolic_generators(build_context(2, 3), S)
    group = subgroup_closure(gens, 3)
    assert group == mat_mul_closure(gens, 3)
    # decoded rows are shared: one tuple per vector of (Z/3)^4
    assert len({id(row) for g in group for row in g}) <= 81


@pytest.mark.parametrize("d, S", [(1, (0,)), (2, (1,))])
def test_orbit_cap_is_the_largest_orbit_allowed(d, S):
    n = 3
    gens = parabolic_generators(build_context(d, n), S)
    group = subgroup_closure(gens, n)
    x = brute_force_group(GSp(2 * d), n)[-1]
    rep = orbit_canonical(x, gens, n)
    assert subgroup_closure(gens, n, cap=len(group)) == group
    assert orbit_canonical(x, gens, n, cap=len(group)) == rep
    assert rep == min(mat_mul(h, x, n) for h in group)
    with pytest.raises(ScopeError, match="orbit exceeded cap"):
        subgroup_closure(gens, n, cap=len(group) - 1)
    with pytest.raises(ScopeError, match="orbit exceeded cap"):
        orbit_canonical(x, gens, n, cap=len(group) - 1)


def test_subgroup_closure_and_orbits():
    n = 5
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    elems = subgroup_closure(gens, n)
    assert len(elems) == group_order(SL(2), n) == 120
    # left orbits of the full group acting on itself: one orbit, size 120
    orbits = left_orbits(elems, gens, n)
    assert list(orbits.values()) == [120]
    rep = orbit_canonical(identity_matrix(2), gens, n)
    assert rep in orbits
