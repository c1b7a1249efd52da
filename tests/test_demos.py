"""Smoke tests: every demo script runs to completion against the package.

``stratum_census.py`` is left out: it spends seconds on the brute-force
recounts that ``test_acceptance.py::test_c4_coset_count_oracle_equivalence``
already checks.
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
