"""The package's imports: every name a module, demo or test imports is used
in it, and importing the CLI stays cheap.

No linter is part of the toolchain, so the stdlib ``ast`` check stands in
for one.  ``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "siegelstrata"
# Package modules by file name, demos and tests as "demos/..." and "tests/...".
CHECKED = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
CHECKED.update({f"{folder}/{p.name}": p for folder in ("demos", "tests")
                for p in (ROOT / folder).glob("*.py")})


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_no_unused_imports(name):
    assert _unused_imports(CHECKED[name].read_text()) == []


def test_check_flags_an_unused_import():
    assert _unused_imports("import os\nfrom math import gcd, pi\nx = pi\n") == ["gcd", "os"]


def _traced_modules() -> set[str]:
    """The package modules whose functions ``bench/tracer.py`` wraps."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"siegelstrata.{mod}" for mod, _, _, _ in tracer.LAYERS}


def test_cli_import_graph():
    # Every request is a fresh process, so the CLI's import is paid each time:
    # dataclasses (and the inspect, ast, dis and tokenize it pulls in) stays out,
    # while each module the tracer wraps must already be loaded.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, siegelstrata.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded and "inspect" not in loaded
    traced = _traced_modules()
    assert len(traced) == 9
    assert traced <= loaded, sorted(traced - loaded)
