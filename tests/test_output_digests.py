"""Output bytes pinned by digest.

``cli_digests.json`` lists every request of seeds 1-3 of the benchmark's
three workloads (``bench/workloads.py``; seed 0 is pinned by
``bench/golden.json``), each with ``--format json`` and ``--format tsv``,
together with its exit code and the sha256 of its stdout and of its stderr.
The requests run in-process through ``cli.main``.  The file is data only:
a change that alters one byte of any answer or message fails here, and the
file is not rewritten to make it pass.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from siegelstrata.cli import main

PINNED = json.loads((Path(__file__).with_name("cli_digests.json")).read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_every_pinned_request_keeps_its_bytes(workload, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    changed = []
    for req in PINNED[workload]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(req["argv"]))
        got = {"exit": code, "stdout": _sha(out.getvalue()),
               "stderr": _sha(err.getvalue())}
        diff = [k for k, v in got.items() if req[k] != v]
        if diff:
            changed.append((" ".join(req["argv"]), diff))
    assert not changed
    assert len(PINNED[workload]) > 50
