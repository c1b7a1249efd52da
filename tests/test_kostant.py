"""Graded nilpotent-cohomology decomposition.

Two layers of checking: literal frozen lists worked out by hand with the
dot action (degree, weight, similitude shift), and the alternating character
identity

    sum_k (-1)^k ch H^k = ch V_lam * prod_{roots of N_S} (1 - e^{-root})

evaluated at a generic exact rational point by the self-contained oracle in
helpers_characters (its own alternants, its own signed permutations).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers_characters import kostant_euler_identity
from siegelstrata import (Weight, build_context, central_weight,
                          is_levi_dominant, lie_n_cohomology, parabolic_data,
                          weyl_dim)
from siegelstrata.reps import pairings
from siegelstrata.grouptheory import kostant_reps, levi_weyl_order


def _rows(module):
    out = []
    for s in module.summands:
        out.append((s.degree, s.levi.a, s.levi.m0, s.mult))
    return out


def _oracle_ok(d, S, lam, module):
    return kostant_euler_identity(d, S, lam.a, lam.m0,
                                  ((s.degree, s.levi.a, s.levi.m0, s.mult)
                                   for s in module.summands))


# ---------------------------------------------------------------------------
# frozen hand computations

def test_frozen_d1_lam3(ctx1):
    # lam = (3;0): identity keeps (3;0); the flip sends 3+1 -> -(4),
    # minus rho gives -5, and the similitude exponent picks up 4
    module = lie_n_cohomology(ctx1, (0,), Weight((3,), 0))
    assert _rows(module) == [(0, (3,), 0, 1), (1, (-5,), 4, 1)]


FROZEN_D2_BOREL = [
    (0, (1, 1), 0, 1),
    (1, (0, 2), 0, 1),
    (1, (1, -3), 2, 1),
    (2, (-4, 2), 2, 1),
    (2, (0, -4), 3, 1),
    (3, (-5, 1), 3, 1),
    (3, (-4, -4), 5, 1),
    (4, (-5, -3), 5, 1),
]

FROZEN_D2_SIEGEL = [          # S = (0,): Levi GL_2, degrees 0..3
    (0, (1, 1), 0, 1),
    (1, (1, -3), 2, 1),
    (2, (0, -4), 3, 1),
    (3, (-4, -4), 5, 1),
]

FROZEN_D2_KLINGEN = [         # S = (1,): Levi GL_1 x GSp_2, degrees 0..3
    (0, (1, 1), 0, 1),
    (1, (0, 2), 0, 1),
    (2, (-4, 2), 2, 1),
    (3, (-5, 1), 3, 1),
]


def test_frozen_d2_borel(ctx2):
    module = lie_n_cohomology(ctx2, (0, 1), Weight((1, 1), 0))
    assert _rows(module) == FROZEN_D2_BOREL
    pairings0 = [pairings(s.levi)[0] for s in module.summands]
    pairings1 = [pairings(s.levi)[1] for s in module.summands]
    assert pairings0 == [4, 4, 0, 0, -2, -2, -6, -6]
    assert pairings1 == [3, 2, 3, -2, 2, -3, -2, -3]


def test_frozen_d2_siegel(ctx2):
    module = lie_n_cohomology(ctx2, (0,), Weight((1, 1), 0))
    assert _rows(module) == FROZEN_D2_SIEGEL
    assert [weyl_dim(s.levi, (2,)) for s in module.summands] == [1, 5, 5, 1]


def test_frozen_d2_klingen(ctx2):
    module = lie_n_cohomology(ctx2, (1,), Weight((1, 1), 0))
    assert _rows(module) == FROZEN_D2_KLINGEN
    assert [weyl_dim(s.levi, (1,)) for s in module.summands] == [2, 3, 3, 2]


# ---------------------------------------------------------------------------
# character-identity oracle

D2_WEIGHTS = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0), (3, 3)]
D3_WEIGHTS = [(0, 0, 0), (1, 1, 0), (2, 1, 1)]


@pytest.mark.parametrize("a", [(0,), (1,), (2,), (5,)])
@pytest.mark.parametrize("m0", [0, 1, -2])
def test_oracle_d1(ctx1, a, m0):
    lam = Weight(a, m0)
    assert _oracle_ok(1, (0,), lam, lie_n_cohomology(ctx1, (0,), lam))


@pytest.mark.parametrize("a", D2_WEIGHTS)
@pytest.mark.parametrize("S", [(0,), (1,), (0, 1)])
def test_oracle_d2(ctx2, a, S):
    for m0 in (0, 1):
        lam = Weight(a, m0)
        assert _oracle_ok(2, S, lam, lie_n_cohomology(ctx2, S, lam))


@pytest.mark.parametrize("a", D3_WEIGHTS)
@pytest.mark.parametrize("S", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
def test_oracle_d3(ctx3, a, S):
    lam = Weight(a, 0)
    assert _oracle_ok(3, S, lam, lie_n_cohomology(ctx3, S, lam))


def test_oracle_random_weights(ctx2, ctx3):
    rng = random.Random(20260815)
    for _ in range(10):
        a = tuple(sorted((rng.randrange(7) for _ in range(2)), reverse=True))
        lam = Weight(a, rng.randrange(-2, 3))
        for S in [(0,), (1,), (0, 1)]:
            assert _oracle_ok(2, S, lam, lie_n_cohomology(ctx2, S, lam))
    for _ in range(3):
        a = tuple(sorted((rng.randrange(4) for _ in range(3)), reverse=True))
        lam = Weight(a, 0)
        assert _oracle_ok(3, (0, 1, 2), lam, lie_n_cohomology(ctx3, (0, 1, 2), lam))


# ---------------------------------------------------------------------------
# structure

def _structure_checks(ctx, S, lam):
    module = lie_n_cohomology(ctx, S, lam)
    pd = parabolic_data(ctx, S)
    # one summand per minimal-length coset representative
    assert len(module.summands) == ctx.weylOrder // levi_weyl_order(pd)
    assert len(module.summands) == len(kostant_reps(ctx, S))
    # distinct (degree, weight) pairs; degrees inside [0, dimN]
    seen = set()
    for s in module.summands:
        assert s.mult == 1
        assert 0 <= s.degree <= pd.dimN
        assert is_levi_dominant(s.levi, pd.leviBlocks)
        assert central_weight(s.levi) == central_weight(lam)
        key = (s.degree, s.levi)
        assert key not in seen
        seen.add(key)
    # degree zero is lam itself, viewed as a Levi weight
    bottom = [s for s in module.summands if s.degree == 0]
    assert len(bottom) == 1 and bottom[0].levi.a == lam.a
    # exactly one top-degree class
    assert sum(1 for s in module.summands if s.degree == pd.dimN) == 1
    # alternating dimension sum collapses (the product side vanishes at 1)
    assert module.euler_dim(pd.leviBlocks) == 0
    # palindromic degree distribution
    by_degree = {}
    for s in module.summands:
        by_degree[s.degree] = by_degree.get(s.degree, 0) + 1
    assert all(by_degree.get(k, 0) == by_degree.get(pd.dimN - k, 0)
               for k in range(pd.dimN + 1))


def test_structure_d2_all_S(ctx2):
    for S in [(0,), (1,), (0, 1)]:
        for a in D2_WEIGHTS:
            _structure_checks(ctx2, S, Weight(a, 0))


def test_structure_d3_all_S(ctx3):
    for S in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        _structure_checks(ctx3, S, Weight((2, 1, 0), 0))


def test_structure_d4_reduced():
    ctx4 = build_context(4, 3)
    for S in [(0,), (3,), (1, 3)]:
        _structure_checks(ctx4, S, Weight((2, 1, 1, 0), 0))


def test_rejects_non_dominant(ctx2):
    with pytest.raises(Exception):
        lie_n_cohomology(ctx2, (0,), Weight((0, 1), 0))


_SUMMAND = ("from siegelstrata import Weight, build_context, parabolic_data\n"
            "from siegelstrata.kostant import kostant_summand\n"
            "pd = parabolic_data(build_context(2, 3), (0,))\n"
            "print(kostant_summand(0, Weight({a!r}, {m0}), pd, {central}))")


@pytest.mark.parametrize("code, message", [
    (_SUMMAND.format(a=(0, 1), m0=0, central=1), "is not dominant for the Levi"),
    (_SUMMAND.format(a=(1, 0), m0=0, central=2), "has central weight 1, expected 2"),
    ("import siegelstrata.kostant as k\n"
     "from siegelstrata import Weight, build_context\n"
     "k.levi_weyl_order = lambda pd: 1\n"
     "print(k.lie_n_cohomology(build_context(2, 3), (0,), Weight((1, 1), 0)))",
     "has 4 summands, expected 8"),
    ("import siegelstrata.engine as e\n"
     "from siegelstrata import Weight, build_context, ic_profiles\n"
     "dot = e.dot_action\n"
     "e.dot_action = lambda v, shifted: (dot(v, shifted)[0], dot(v, shifted)[1] + 1)\n"
     "print(e.restrict_weighted(build_context(2, 3), ic_profiles(2)[0], Weight((1, 1), 0), 0))",
     "has central weight"),
], ids=["non-dominant", "central-weight", "summand-count", "restriction-central-weight"])
def test_summand_checks_survive_optimize(code, message):
    # python -O strips asserts; a dot-action image that is not Levi-dominant,
    # or has the wrong central weight, must still stop the summand (also when
    # the restriction kernel builds it), and a module with the wrong number
    # of summands must still be refused
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError" in proc.stderr and message in proc.stderr
