"""The explicit matrix model is the oracle for root conventions and pairing
normalization: every claim the symbolic layer makes about torus pairings is
recomputed here by literal conjugation of 2d x 2d matrices."""

from fractions import Fraction
from itertools import accumulate

import pytest

from oracles import (conjugation_weight, j_form, levi_roots,
                     root_matrix_by_shape, s_cochar_matrix, torus_element,
                     transpose, u_roots)
from siegelstrata import InputError, build_context, parabolic_data
from siegelstrata.arith import identity_matrix, mat_mod, mat_mul, similitude
from siegelstrata.matrixmodel import (parabolic_generators, root_element,
                                      root_matrix)
from siegelstrata.grouptheory import positive_roots
from siegelstrata.reps import Weight, torus_pairing


def _mat_mul_exact(a, b):
    size = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(size))
                       for j in range(size)) for i in range(size))


def _is_zero(m):
    return all(all(x == 0 for x in row) for row in m)


def _lie_gsp_defect(d, x):
    """tX J + J X; zero exactly on the symplectic Lie algebra."""
    j = j_form(d)
    xt = transpose(x)
    size = 2 * d
    return tuple(tuple(
        sum(xt[i][k] * j[k][j_] for k in range(size))
        + sum(j[i][k] * x[k][j_] for k in range(size))
        for j_ in range(size)) for i in range(size))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_root_matrices_are_symplectic_nilpotents(d):
    ctx = build_context(d, 3)
    for root in ctx.positiveRoots:
        x = root_matrix(d, root)
        assert _is_zero(_mat_mul_exact(x, x)), root
        assert _is_zero(_lie_gsp_defect(d, x)), root


# weights at d = 2 that are no root: the zero weight, 2e_1 and e_1 + e_2
# with no e_0, and e_0 coefficients -2 and +2
NOT_ROOTS = [Weight((0, 0), 0), Weight((2, 0), 0), Weight((1, 1), 0),
             Weight((1, 1), -2), Weight((-1, -1), 2)]


@pytest.mark.parametrize("root", NOT_ROOTS + [
    Weight((0, 0, 1, -1), 0), Weight((1, -1, 0), 0)], ids=repr)
def test_root_matrix_refuses_a_weight_that_is_no_root(root):
    # the last two are roots of another genus, not of GSp_4
    with pytest.raises(InputError, match="not a root"):
        root_matrix(2, root)


def test_root_matrix_is_the_table_of_shapes():
    for d in range(1, 7):
        for root in positive_roots(d):
            for y in (root, root.neg()):
                assert root_matrix(d, y) == root_matrix_by_shape(d, y), (d, y)
    for root in NOT_ROOTS:
        with pytest.raises(InputError, match="not a root"):
            root_matrix_by_shape(2, root)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_torus_conjugation_matches_root_coordinates(d):
    # conjugating X_root by diag(t, c/t) scales by prod t_i^{a_i} * c^{m0}
    ts = [2, 3, 5][:d]
    c = 7
    size = 2 * d
    diag = ts + [Fraction(c, ts[d - 1 - k]) for k in range(d)]
    g = tuple(tuple(diag[i] if i == j else 0 for j in range(size))
              for i in range(size))
    ctx = build_context(d, 3)
    for root in ctx.positiveRoots:
        x = root_matrix(d, root)
        expected = Fraction(1)
        for i, a in enumerate(root.a):
            expected *= Fraction(ts[i]) ** a
        expected *= Fraction(c) ** root.m0
        assert conjugation_weight(g, x) == expected, root


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_s_cochar_conjugation_is_the_torus_pairing(d):
    # the normalization contract: S_s acts on a root vector by lam**pairing
    lam = 2
    ctx = build_context(d, 3)
    for s in range(d):
        g = s_cochar_matrix(d, s, lam)
        for root in ctx.positiveRoots:
            x = root_matrix(d, root)
            got = conjugation_weight(g, x)
            assert got == Fraction(lam) ** torus_pairing(root, s), (s, root)


@pytest.mark.parametrize("d", [2, 3])
def test_pairing_trichotomy_on_radical(d):
    # roots in U_r pair to 2 with S_r, the rest of N_r to 1, the Levi to 0
    ctx = build_context(d, 3)
    for r in range(d):
        pd = parabolic_data(ctx, (r,))
        u = set(u_roots(d, r))
        for root in pd.nRoots:
            assert torus_pairing(root, r) == (2 if root in u else 1)
        for root in levi_roots(d, (r,)):
            assert torus_pairing(root, r) == 0


def test_s_cochar_similitude():
    for d in (1, 2, 3):
        for s in range(d):
            g = s_cochar_matrix(d, s, 3)
            n = 1_000_003  # large modulus: exact small integers survive
            assert similitude(mat_mod(g, n), n) == 9


def test_root_element_is_unipotent_mod_n():
    # I + X with X^2 = 0: its k-th power is I + kX, the identity first at k = n
    d, n = 2, 9
    ctx = build_context(d, n)
    for root in ctx.positiveRoots:
        g = root_element(d, root, n)
        powers = list(accumulate([g] * n, lambda a, b: mat_mul(a, b, n)))
        assert powers.index(identity_matrix(2 * d)) == n - 1
        assert similitude(g, n) == 1


def test_torus_element_lands_in_gsp():
    d, n = 2, 7
    g = torus_element(d, (2, 3), 4, n)
    assert similitude(g, n) == 4
    with pytest.raises(InputError):
        torus_element(d, (7, 1), 1, n)


@pytest.mark.parametrize("d,S", [(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1))])
def test_parabolic_generators_are_symplectic_similitudes(d, S):
    n = 4
    ctx = build_context(d, n)
    gens = parabolic_generators(ctx, S)
    assert len(set(gens)) == len(gens) and identity_matrix(2 * d) not in gens
    for g in gens:
        assert similitude(g, n) is not None
