"""Every statement of ``src/siegelstrata/`` is reached by what the calculator
runs: each pinned request of ``cli_digests.json``, the demos as tier-1 runs
them, and a few fixed argv lists (help, version, usage errors, an exit-3
request).  They run in one fresh process under ``sys.settrace``, so no
cache that an earlier test warmed hides a function body.

A statement is reached if any line of its own code (not the lines of the
statements nested in it) is traced.  An unreached statement passes if the
block it sits in ends in ``raise``: a refusal, which the tests reach.  Any
other is named by the definition around it (at module level, by the first
definition inside it, else by the module) and must be on ``ALLOWED``, with
the reason it stays and the number of its unreached statements.  An
``ALLOWED`` entry that no longer exists, is now reached or has another
count fails as well.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "siegelstrata"

# Unreached by any request or demo, and kept: public promises, the Value
# contract, the process entry, and branches that answer input no request
# gives.  Each name has the number of its unreached statements, so a new
# one inside a listed definition fails too.
ALLOWED = {
    "arith.GL": (1, "a documented group family: group_order(GL(k), n)"),
    "arith.Sp": (1, "a documented group family: group_order(Sp(2r), n), brute_force_group"),
    "arith._order_any_level": (3, "the GL and Sp orders, and SL_0, the trivial group"),
    "arith._brute_force_cached": (1, "GSp_0 is the similitude torus and Sp_0 is trivial"),
    "arith.similitude": (1, "a non-member gets None"),
    "arith.similitudes": (4, "a non-member key gets None, and unsorted keys are cut "
                             "into runs of one"),
    "reps.torus_pairing": (2, "the documented one-index form of reps.pairings"),
    "engine.chain_term": (1, "a chain given as (s, a) pairs is wrapped in a Chain"),
    "engine.SymbolicClass.flatten": (1, "a multiplicity that cancels to 0, as in a "
                                        "summed chain expansion"),
    "errors.Value.__repr__": (2, "Value contract: prints as Name(field=value, ...)"),
    "errors.Value.__getnewargs__": (1, "Value contract: copies and pickles through "
                                       "the constructor"),
    "errors.Value._replace": (3, "Value contract: a copy with fields changed"),
    "errors._tuplegetter": (1, "Value fields without CPython's _tuplegetter"),
    "cli.entry": (2, "the process entry; it ends with os._exit, so requests run cli.main"),
    "__main__": (2, "python -m siegelstrata, which calls cli.entry"),
}

# the tracer: argv[1] is the directory traced, argv[2] the file the traced
# lines go to, stdin the code to run; the code may leave a ``report``
_TRACER = """
import json, sys
root, out = sys.argv[1], sys.argv[2]
hits, tracers = {}, {}

def local_for(filename):
    add = hits.setdefault(filename, set()).add
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local

def trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in tracers:
        tracers[filename] = local_for(filename) if filename.startswith(root) else None
    return tracers[filename]

scope = {"__name__": "__reach__"}
job = compile(sys.stdin.read(), "<reach>", "exec")
sys.settrace(trace)
exec(job, scope)
sys.settrace(None)
with open(out, "w") as f:
    json.dump({"hits": {k: sorted(v) for k, v in hits.items()},
               "report": scope.get("report")}, f)
"""


def _trace(root: Path, path: str, job: str, tmp_path: Path) -> tuple[dict, object]:
    """{file name: traced lines} of the files under root, and the job's
    ``report``, from one fresh process with path as its PYTHONPATH."""
    out = tmp_path / "reach.json"
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER, str(root) + os.sep, str(out)],
        input=job, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    return {k: set(v) for k, v in data["hits"].items()}, data["report"]


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that code or any code object nested in it has code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreached(module: str, source: str, hits: set[int]) -> list[tuple[str, int]]:
    """(name, line) of each outermost statement of source with code of its
    own and no line in hits, unless the block it sits in ends in ``raise``.
    An ``except`` clause counts as a statement whose block is its body."""
    code_lines = _code_lines(compile(source, module, "exec"))
    out = []

    def visit(block: list, scope: str | None) -> None:
        refusal = isinstance(block[-1], ast.Raise)
        for node in block:
            blocks = [b for b in (getattr(node, f, None) for f in (
                "body", "orelse", "finalbody")) if b]
            handlers = getattr(node, "handlers", [])
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(first, node.end_lineno + 1))
            for child in [*(s for b in blocks for s in b), *handlers]:
                own -= set(range(child.lineno, child.end_lineno + 1))
            own &= code_lines
            name = f"{scope or module}.{node.name}" if isinstance(node, _DEFS) else scope
            if own and not own & hits:
                if not (refusal or isinstance(node, ast.ExceptHandler)
                        and isinstance(node.body[-1], ast.Raise)):
                    inner = next((n.name for n in ast.walk(node) if isinstance(n, _DEFS)), None)
                    out.append((name or (f"{module}.{inner}" if inner else module),
                                node.lineno))
                continue  # nothing inside an unreached statement is reached
            for b in blocks:
                visit(b, name)
            for h in handlers:
                visit([h], name)

    visit(ast.parse(source).body, None)
    return out


def _mismatches(unreached: list[tuple[str, int]], allowed: dict) -> dict:
    """{name: (its unreached statements, the count allowed)} wherever the two
    differ: new dead code (allowed 0), a stale entry (0 found), or a changed
    definition."""
    counts = {name: [0, count] for name, (count, _) in allowed.items()}
    for name, _ in unreached:
        counts.setdefault(name, [0, 0])[0] += 1
    return {name: tuple(c) for name, c in counts.items() if c[0] != c[1]}


def test_reach_check_flags_a_dead_branch(tmp_path):
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "m.py").write_text(
        "def f(x):\n"                       # 1
        "    if x > 0:\n"                   # 2
        "        return 1\n"                # 3
        "    if x < -5:\n"                  # 4
        "        y = -x\n"                  # 5: dead, with the next line
        "        return y\n"                # 6
        "    if x == 0:\n"                  # 7
        "        raise ValueError(x)\n"     # 8: a refusal
        "    try:\n"                        # 9
        "        return int(x)\n"           # 10
        "    except TypeError:\n"           # 11: a refusal, unreached
        "        raise ValueError(x)\n"     # 12
        "\n"
        "class C:\n"                        # 14
        "    def g(self):\n"                # 15
        "        return 2\n"                # 16: dead
        "\n"
        "try:\n"                            # 18
        "    import os\n"                   # 19
        "except ImportError:\n"             # 20: dead, keyed by the def in it
        "    def h():\n"                    # 21
        "        return 3\n")               # 22
    hits, report = _trace(tmp_path, str(tmp_path),
                          "from toy.m import f\nreport = [f(1), f(-1)]\n", tmp_path)
    assert report == [1, -1]
    lines = hits[str(pkg / "m.py")]
    assert {1, 2, 3, 4, 7, 9, 10, 14, 15, 18, 19} <= lines
    assert not lines & {5, 6, 8, 11, 12, 16, 20, 21, 22}
    unreached = _unreached("m", (pkg / "m.py").read_text(), lines)
    assert unreached == [("m.f", 5), ("m.f", 6), ("m.C.g", 16), ("m.h", 20)]
    allowed = {"m.f": (2, "why"), "m.C.g": (1, "why"), "m.h": (1, "why")}
    assert _mismatches(unreached, allowed) == {}
    # a planted branch, an entry for a name that is gone or reached, and a
    # definition with one more unreached statement than allowed
    del allowed["m.C.g"]
    allowed.update({"m.gone": (1, "why"), "m.f": (1, "why")})
    assert _mismatches(unreached, allowed) == {
        "m.C.g": (1, 0), "m.gone": (0, 1), "m.f": (2, 1)}


# the fixed argv lists, with their exit codes: the usage errors take each
# way from cli._read to argparse (a missing value, an unknown flag, a value
# its type refuses, a value outside its choices)
FIXED = [(["--help"], 0), (["--version"], 0),
         (["context", "--d", "2", "--n"], 2),
         (["context", "--d", "2", "--n", "3", "--bogus", "1"], 2),
         (["context", "--d", "two", "--n", "3"], 2),
         (["context", "--d", "2", "--n", "3", "--format", "xml"], 2),
         (["context", "--d", "7", "--n", "3"], 3)]
# the demos with the arguments tier-1 runs them with (tests/test_demos.py)
DEMOS = [["ic_restriction.py"],
         ["ic_restriction.py", "--a", "2,1", "--m0", "1", "--stratum", "1"],
         ["kostant_tour.py", "--d", "3", "--a", "2,1,0", "--S", "0,2"],
         ["level_transfer.py"], ["stratum_census.py"]]

_JOB = """
import contextlib, io, runpy, sys
from siegelstrata.cli import main

def quiet(run, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(*args)

report = [quiet(main, argv) for argv in ARGVS]
for script, *args in DEMOS:
    sys.argv = [script, *args]
    quiet(lambda: runpy.run_path(script, run_name="__main__"))
"""


def _unreached_in_src(tmp_path) -> list[tuple[str, int]]:
    pinned = json.loads((Path(__file__).with_name("cli_digests.json")).read_text())
    requests = [(req["argv"], req["exit"]) for workload in sorted(pinned)
                for req in pinned[workload]] + FIXED
    demos = [[str(ROOT / "demos" / script), *args] for script, *args in DEMOS]
    job = f"ARGVS = {[argv for argv, _ in requests]!r}\nDEMOS = {demos!r}\n" + _JOB
    hits, codes = _trace(SRC, str(SRC.parent), job, tmp_path)
    assert codes == [code for _, code in requests]
    return [(name, f"{path.name}:{line}") for path in sorted(SRC.glob("*.py"))
            for name, line in _unreached(path.stem, path.read_text(),
                                         hits.get(str(path), set()))]


def test_every_statement_of_src_is_reached_or_allowed(tmp_path):
    unreached = _unreached_in_src(tmp_path)
    assert _mismatches(unreached, ALLOWED) == {}, unreached
