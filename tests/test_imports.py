"""The package's imports: every name a module, demo or test imports is used
in it, every public name of the package is used by the calculator,
importing the CLI stays cheap, and a well-formed request loads no argparse.

No linter is part of the toolchain, so the stdlib ``ast`` checks stand in
for one.  ``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
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


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """Names read in tree, attribute names read (as ".name"), and its string
    constants if asked (the tracer names the functions it wraps as strings).
    A name that is only assigned, such as a local variable, is no reference."""
    return Counter(
        node.id if isinstance(node, ast.Name) else
        "." + node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        or strings and isinstance(node, ast.Constant) and isinstance(node.value, str))


def _unreferenced(modules: dict[str, str], refs: Counter) -> list[str]:
    """The public top-level functions and classes, and public methods, of
    ``modules`` (name -> source) that ``refs`` holds no reference to outside
    the definition itself.  A method is referenced only through attribute
    access.  ``refs`` must count the modules' own references."""
    def uses(counts: Counter, name: str, method: bool) -> int:
        return counts["." + name] + (0 if method else counts[name])

    out = []
    for module, source in modules.items():
        body = ast.parse(source).body
        defs = [(n.name, n, False) for n in body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{c.name}.{m.name}", m, True) for c in body if isinstance(c, ast.ClassDef)
                 for m in c.body if isinstance(m, ast.FunctionDef)]
        out += [f"{module}:{qualname}" for qualname, item, method in defs
                if not item.name.startswith("_")
                and uses(refs, item.name, method) == uses(_references(item), item.name, method)]
    return out


# The README documents GL/SL/Sp/GSp as the families whose orders the package
# computes; GL and Sp are that public API although no calculator path uses them.
# So is torus_pairing, the documented one-index form of reps.pairings: truncate
# reads all pairings of a summand at once, and the tests check the S_s
# normalization through it.
API_ONLY = {"arith.py:GL", "arith.py:Sp", "reps.py:torus_pairing"}


def _calculator_refs() -> tuple[dict[str, str], Counter]:
    """The package modules (name -> source), and the references read in
    them, in the demos and in the tracer, whose strings count too."""
    modules = {name: path.read_text() for name, path in CHECKED.items()
               if "/" not in name}
    demos = [p.read_text() for p in (ROOT / "demos").glob("*.py")]
    refs = _references(ast.parse((ROOT / "bench" / "tracer.py").read_text()), True)
    for source in [*modules.values(), *demos]:
        refs += _references(ast.parse(source))
    return modules, refs


def test_every_public_name_is_used_by_the_calculator():
    # Used means referenced from a package module, a demo or the tracer; a
    # name that only tests call belongs in the tests (tests/oracles.py).
    modules, refs = _calculator_refs()
    assert sorted(set(_unreferenced(modules, refs)) - API_ONLY) == []


def test_check_flags_a_public_name_only_its_own_body_uses():
    source = ("def used(): pass\n"
              "def dead(n): return dead(n - 1) if n else used()\n"
              "def spare(): pass\n"
              "class C:\n    def live(self): pass\n"
              "    def gone(self): return self.live()\n"
              "    def sub(self): pass\n"
              "    def _private(self): return C\n")
    # local variables named like a definition: assigned, or read as a name
    other = "def _f(x):\n    spare = sub = x\n    return sub\n"
    refs = (_references(ast.parse(source)) + _references(ast.parse("C().x"))
            + _references(ast.parse(other)))
    assert _unreferenced({"m.py": source}, refs) == [
        "m.py:dead", "m.py:spare", "m.py:C.gone", "m.py:C.sub"]
    # the tracer's strings count: a LAYERS entry keeps dead
    refs += _references(ast.parse("LAYERS = [('m', 'dead')]"), strings=True)
    assert _unreferenced({"m.py": source}, refs) == [
        "m.py:spare", "m.py:C.gone", "m.py:C.sub"]


def _imported_modules(source: str) -> set[str]:
    """The modules that source imports, at any depth of its tree."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def test_no_package_module_imports_fractions():
    # the package works in integers; the Bernoulli numbers and zeta values
    # in fractions are test oracles (tests/oracles.py)
    assert _imported_modules("def f():\n    from fractions import Fraction\n") == {"fractions"}
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "fractions" in _imported_modules(p.read_text())] == []


def test_linear_group_oracle_reads_its_own_determinant():
    # GL_k and SL_k are enumerated in tests/oracles.py alone: the scan keeps
    # a matrix by the oracles' own Laplace determinant and takes from the
    # package only the scan guard, the unit test and the error type
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "siegelstrata" for a in node.names}
    scan = _references(defs["enumerate_linear"])
    assert scan["det"] and "det" not in imported
    assert set(scan) & imported == {"_SCAN_GUARD", "_unit", "ScopeError"}
    assert not set(_references(defs["det"])) & imported


def _value_types(source: str) -> list[ast.ClassDef]:
    """The classes of ``source`` that subclass ``Value``, the value-type base."""
    return [c for c in ast.parse(source).body if isinstance(c, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Value" for b in c.bases)]


def _unread_fields(modules: dict[str, str], refs: Counter) -> list[str]:
    """The fields of the value types of ``modules`` (name -> source) that
    ``refs`` holds no attribute read of: a field read only by unpacking, or
    never, is dead weight in every instance."""
    return [f"{module}:{c.name}.{f.target.id}" for module, source in modules.items()
            for c in _value_types(source) for f in c.body
            if isinstance(f, ast.AnnAssign) and not refs["." + f.target.id]]


def test_every_value_type_field_is_read():
    # Read means read as an attribute by a package module, a demo or the tracer.
    modules, refs = _calculator_refs()
    assert sorted(c.name for source in modules.values() for c in _value_types(source)) == [
        "Chain", "ClassTerm", "Command", "GradedVirtualRep", "GroupContext",
        "GroupKind", "HeckeDatum", "HeckeMatrixStructure", "ParabolicData",
        "Summand", "SymbolicClass", "Weight"]
    assert _unread_fields(modules, refs) == []


def test_check_flags_a_field_no_one_reads():
    source = ("from siegelstrata.errors import Value\n"
              "class P(Value):\n    x: int\n    y: int = 0\n    z: int = 0\n"
              "    def norm(self): return self.x\n"
              "class _Q(Value):\n    w: int\n"
              "class R:\n    v: int\n")
    # y is unpacked and z is assigned, never read as an attribute; R is no value type
    other = "def f(p, q):\n    x, y, z = p\n    q.z = 1\n    return q.w + y\n"
    refs = _references(ast.parse(source)) + _references(ast.parse(other))
    assert _unread_fields({"m.py": source}, refs) == ["m.py:P.y", "m.py:P.z"]


def _traced_modules() -> set[str]:
    """The package modules whose functions ``bench/tracer.py`` wraps."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"siegelstrata.{mod}" for mod, _, _, _ in tracer.LAYERS}


def test_cli_import_graph():
    # Every request is a fresh process, so the CLI's import is paid each time:
    # dataclasses (and the inspect, ast, dis and tokenize it pulls in) stays out,
    # and so do fractions and decimal (the package works in integers), json
    # (the CLI writes its JSON itself) and __future__ (annotations are
    # evaluated as written), while each module the tracer wraps must already
    # be loaded.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, siegelstrata.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "fractions" not in loaded and "decimal" not in loaded
    assert "json" not in loaded and "__future__" not in loaded
    traced = _traced_modules()
    assert len(traced) == 9
    assert traced <= loaded, sorted(traced - loaded)


def test_cli_import_loads_no_typing():
    # annotations take their names from collections.abc or stay strings, so
    # on an interpreter whose start-up (here: none, python -S) has not
    # loaded typing, importing the CLI does not load it either
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, siegelstrata.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "siegelstrata.cli" in loaded and "typing" not in loaded


def test_cli_import_builds_no_namedtuple():
    # collections.namedtuple evals a generated __new__ for each class it
    # makes; the value types subclass errors.Value instead, which does not
    script = ("import collections\n"
              "calls = []\n"
              "made = collections.namedtuple\n"
              "def counted(typename, *args, **kwargs):\n"
              "    calls.append(typename)\n"
              "    return made(typename, *args, **kwargs)\n"
              "collections.namedtuple = counted\n"
              "import siegelstrata.cli\n"
              "print(*calls)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _modules_after(*argvs: list[str]) -> tuple[list[int], set[str]]:
    """Exit codes of cli.main on each argv in one fresh process, and the
    modules loaded after the last."""
    script = ("import json, sys\n"
              "from siegelstrata.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "sys.stderr.write(json.dumps([codes, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    codes, modules = json.loads(proc.stderr)
    return codes, set(modules)


ARGPARSE_AND_ITS_IMPORTS = {"argparse", "gettext", "locale", "textwrap"}


def test_well_formed_requests_do_not_load_argparse():
    # the request is read from its COMMANDS row; argparse, with the gettext,
    # locale and textwrap it pulls in, is left for help and usage errors,
    # and the Euler factors are integers, so fractions and decimal stay out
    codes, loaded = _modules_after(
        ["--version"], ["context", "--d", "2", "--n", "3"],
        # a seed-0 request of the restrict workload (bench/workloads.py)
        ["restrict-ic", "--d", "3", "--n", "5", "--lambda", "4,3,2@3",
         "--stratum", "1", "--mode", "euler"])
    assert codes == [0, 0, 0]
    unwanted = (ARGPARSE_AND_ITS_IMPORTS | {"fractions", "decimal"}) & loaded
    assert not unwanted, sorted(unwanted)
    codes, loaded = _modules_after(["-h"])
    assert codes == [0] and "argparse" in loaded
