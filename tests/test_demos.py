"""Smoke tests: every demo script runs to completion against the package.

``stratum_census.py`` is pinned to its exact output: it alone prints class
representatives, which depend on the generators of H_S.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(script, *argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [(), ("--a", "2,1", "--m0", "1", "--stratum", "1")])
def test_ic_restriction_demo(argv):
    assert "both profiles agree" in _run_demo("ic_restriction.py", *argv)


def test_kostant_tour_demo():
    assert _run_demo("kostant_tour.py", "--d", "3", "--a", "2,1,0", "--S", "0,2")


def test_level_transfer_demo():
    assert _run_demo("level_transfer.py")


STRATUM_CENSUS = """\
genus 1, stratum r = 0 (cusps of the modular curve of level n):
  n   closed form   enumeration
  3             4             4
  4             6             6
  5            12            12
  6            12            12
  8            24            24
  9            36            36

genus 1, n = 3: the four coset orbits, by size:
  orbit of ((0, 1), (1, 0)): 12 elements
  orbit of ((0, 1), (1, 1)): 12 elements
  orbit of ((0, 1), (1, 2)): 12 elements
  orbit of ((1, 0), (0, 1)): 12 elements

genus 2, n = 3 (ambient group order 103680):
  r = 0: closed form 40, enumeration 40
  r = 1: closed form 40, enumeration 40
  refinement S = (0, 1) over r = 0: card(I_S) = 4 (enumeration: 4)
"""


def test_stratum_census_demo():
    assert _run_demo("stratum_census.py") == STRATUM_CENSUS
