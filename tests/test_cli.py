"""Command-line interface: golden outputs, schema discipline, exit codes,
byte determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from siegelstrata import __version__, cli, ic_profiles
from siegelstrata.cli import COMMANDS, REPORT_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# golden payloads

def test_restrict_ic_euler_golden(capsys):
    payload = run_json(capsys, "restrict-ic", "--d", "1", "--n", "3",
                       "--lambda", "2", "--stratum", "0", "--mode", "euler")
    assert payload == {
        "meta": {"command": "restrict-ic", "d": "1", "n": "3",
                 "version": "0.1.0"},
        "result": {"agree": "true", "eulerLower": "1", "eulerUpper": "1",
                   "lam": "2@0", "lowerProfile": ["-1"], "r": "0",
                   "upperProfile": ["0"]},
    }


def test_strata_counts_golden(capsys):
    payload = run_json(capsys, "strata", "--d", "2", "--n", "3")
    assert payload["result"]["rows"] == [
        {"count": "40", "r": "0", "stratumDim": "0"},
        {"count": "40", "r": "1", "stratumDim": "1"},
    ]


def test_hecke_index_golden(capsys):
    payload = run_json(capsys, "hecke-index", "--d", "2", "--n", "3",
                       "--m", "6", "--S", "0")
    assert payload["result"] == {"S": "0", "m": "6", "value": "48"}


def test_transfer_degree_golden(capsys):
    payload = run_json(capsys, "transfer-degree", "--d", "1", "--n", "3",
                       "--m", "9")
    assert payload["result"]["value"] == "81"


def test_fiber_count_golden(capsys):
    payload = run_json(capsys, "fiber-count", "--d", "1", "--n", "3",
                       "--m", "6", "--S", "0")
    assert payload["result"]["value"] == "3"       # geometric fiber size
    assert payload["result"]["cosetValue"] == "3"  # class-level fiber size


# ---------------------------------------------------------------------------
# schema discipline

def all_leaves(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from all_leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from all_leaves(v)
    else:
        yield node


@pytest.mark.parametrize("argv", [
    ("context", "--d", "2", "--n", "3"),
    ("strata", "--d", "2", "--n", "3"),
    ("kostant", "--d", "2", "--n", "3", "--S", "0,1", "--lambda", "1,1"),
    ("chain-term", "--d", "1", "--n", "3", "--lambda", "2", "--stratum", "0"),
    ("restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,1",
     "--stratum", "0", "--profile=-2,-1"),
    ("restrict-ic", "--d", "2", "--n", "3", "--lambda", "1,1@0",
     "--stratum", "1"),
    ("euler", "--d", "1", "--n", "3", "--lambda", "4", "--stratum", "0"),
    ("expansion", "--d", "2", "--n", "3", "--lambda", "0,0", "--stratum", "0",
     "--profile", "0,0"),
    ("hecke-matrix", "--d", "1", "--n", "3", "--m", "6", "--S", "0"),
    ("oracle", "--d", "1", "--n", "3"),
])
def test_schema_and_round_trip(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "result"}
    meta = payload["meta"]
    assert meta["command"] == argv[0]
    assert meta["version"] == "0.1.0"
    assert meta["d"] == argv[argv.index("--d") + 1]
    assert meta["n"] == argv[argv.index("--n") + 1]
    for leaf in all_leaves(payload):
        assert isinstance(leaf, str), leaf
    # canonical serialization: load-dump round trip is the identity
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_tsv_report_header(capsys):
    code, out = run_cli(capsys, "restrict-weighted", "--d", "2", "--n", "3",
                        "--lambda", "1,1", "--stratum", "0",
                        "--profile=-2,-1", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\t".join(REPORT_COLUMNS)
    assert lines[1].split("\t") == ["0", "0", "1,1@0", "1", "2", "-2", "4,3"]


def test_tsv_ic_has_profile_column(capsys):
    code, out = run_cli(capsys, "restrict-ic", "--d", "1", "--n", "4",
                        "--lambda", "3", "--stratum", "0", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\t".join(["profile"] + REPORT_COLUMNS)
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["upper", "lower"]


def test_oracle_reports_all_pass(capsys):
    code, out = run_cli(capsys, "oracle", "--d", "1", "--n", "4",
                        "--format", "tsv")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


# ---------------------------------------------------------------------------
# exit codes

def test_version_and_help_exit_zero(capsys):
    code, out = run_cli(capsys, "--version")
    assert code == 0 and out.strip() == "0.1.0"
    assert run_cli(capsys, "--help")[0] == 0


def test_version_has_one_source(capsys):
    code, out = run_cli(capsys, "--version")
    assert code == 0 and out.strip() == __version__
    payload = run_json(capsys, "context", "--d", "1", "--n", "3")
    assert payload["meta"]["version"] == __version__


# argparse drops the "--" of "--flag=--" and would store an empty list
# without calling the option's type
DASHDASH_VALUES = [
    ("strata", "--d", "2", "--n", "3", "--S=--"),
    ("restrict-ic", "--d", "2", "--n", "3", "--lambda=--", "--stratum", "0"),
    ("oracle", "--d", "1", "--n", "3", "--cap=--"),
    ("context", "--d=--", "--n", "3"),
    ("hecke-matrix", "--d", "1", "--n", "3", "--m", "6", "--S", "0", "--g=--"),
    ("restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,1",
     "--stratum", "0", "--profile=--"),
]


@pytest.mark.parametrize("argv,code", [
    (("strata", "--d", "7", "--n", "3"), 3),            # genus guard
    (("strata", "--d", "1", "--n", "2"), 2),            # level too small
    (("restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,2",
      "--stratum", "0", "--profile=-2,-1"), 2),         # non-dominant weight
    (("kostant", "--d", "2", "--n", "3", "--S", "5", "--lambda", "1,1"), 2),
    (("euler", "--d", "1", "--n", "3", "--lambda", "junk",
      "--stratum", "0"), 2),                            # unparsable weight
    (("no-such-command",), 2),
    (("hecke-matrix", "--d", "1", "--n", "3", "--m", "6", "--S", "0",
      "--cap", "10"), 3),                               # enumeration cap
    (("transfer-degree", "--d", "7", "--n", "3", "--m", "6"), 3),  # genus guard
    (("restrict-ic", "--d", "2", "--n", "3", "--lambda", "1,1",
      "--stratum", "-1"), 2),                           # read, then refused
    (("--version", "context"), 0),                      # argparse's version action
    (("context", "--d", "2", "--n", "3", "--format=--"), 2),  # "--" is no choice
    (("restrict-ic", "--d", "2", "--n", "3", "--lambda", "1,1",
      "--stratum", "0", "--mode=--"), 2),
    *((argv, 2) for argv in DASHDASH_VALUES),           # "--" is no value
])
def test_exit_codes(capsys, argv, code):
    assert main(list(argv)) == code
    assert code == 0 or capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# the subcommand table: help and usage errors
#
# Substrings only: argparse words its help differently across versions.

NAMES = ("context", "strata", "kostant", "chain-term", "restrict-weighted",
         "restrict-ic", "euler", "expansion", "hecke-index", "transfer-degree",
         "fiber-count", "hecke-matrix", "oracle")


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_top_level_help_lists_every_subcommand(capsys):
    assert tuple(COMMANDS) == NAMES
    code, out, _ = run_err(capsys, "-h")
    assert code == 0
    words = " ".join(out.split())  # help lines may wrap
    for name in NAMES:
        assert f"{name} {' '.join(COMMANDS[name].help.split())}" in words


def test_top_level_usage_error_lists_every_subcommand(capsys):
    code, out, err = run_err(capsys, "context", "--d", "2", "--n", "3", "--bogus")
    assert code == 2 and out == ""
    assert "{" + ",".join(NAMES) + "}" in err
    assert "unrecognized arguments: --bogus" in err


def test_unknown_subcommand_names_the_command_argument(capsys):
    code, out, err = run_err(capsys, "bogus")
    assert code == 2 and out == ""
    assert "argument command: invalid choice" in err


@pytest.mark.parametrize("argv", [
    ("context", "--d", "2", "--n", "3", "--format=--"),
    ("restrict-ic", "--d", "2", "--n", "3", "--lambda", "1,1", "--stratum", "0",
     "--mode=--"),
], ids=["format", "mode"])
def test_a_dashdash_value_is_not_a_choice(capsys, argv):
    # argparse drops the "--" of "--flag=--" before its choices check
    code, out, err = run_err(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {argv[-1][:-3]}: invalid choice: '--'" in err


@pytest.mark.parametrize("argv", DASHDASH_VALUES, ids=lambda argv: argv[0])
def test_a_dashdash_value_is_no_value(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert code == 2 and out == ""
    flag = next(tok for tok in argv if tok.endswith("=--"))[:-3]
    assert f"argument {flag}" in err and "expected one argument" in err


@pytest.mark.parametrize("name", NAMES)
def test_subcommand_help(capsys, name):
    code, out, _ = run_err(capsys, name, "-h")
    assert code == 0
    assert out.startswith(f"usage: siegelstrata {name} ")


@pytest.mark.parametrize("d,lam,r", [(1, "4", 0), (2, "1,1", 0),
                                     (2, "2,1@1", 1), (3, "1,1,0", 1)])
def test_euler_is_restrict_weighted_at_the_upper_ic_profile(capsys, d, lam, r):
    common = ["--d", str(d), "--n", "3", "--lambda", lam, "--stratum", str(r)]
    upper = ",".join(map(str, ic_profiles(d)[0]))
    euler = run_json(capsys, "euler", *common)["result"]
    weighted = run_json(capsys, "restrict-weighted", *common,
                        f"--profile={upper}", "--mode", "euler")["result"]
    assert "euler" in euler and euler == weighted


def test_euler_takes_no_mode_flag(capsys):
    code, out, err = run_err(capsys, "euler", "--d", "1", "--n", "3",
                             "--lambda", "2", "--stratum", "0",
                             "--mode", "euler")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --mode euler" in err


# ---------------------------------------------------------------------------
# the row reader against argparse

def _argparse(argv):
    try:
        return cli._build_parser().parse_args(argv, namespace=SimpleNamespace())
    except SystemExit as e:  # Hypothesis would not report it as a failure
        pytest.fail(f"argparse exits {e.code} on {argv}")


# flags of no row, abbreviations, help, version and the separator
_OTHER_FLAGS = ["--lam", "--la", "--lamb", "--str", "--zz", "-h", "--help",
                "--version", "--"]
_VALUES = ["3", "2", "-1", "-1,2", "-inf,3", "1,0@-1", "1,1", "", "x", "1:0",
           "identity", "symbolic", "euler", "eu", "json", "tsv", "xml", "a=b",
           "--"]


def _fits(kwargs, value) -> bool:
    try:
        converted = kwargs.get("type", str)(value)
    except ValueError:
        return False
    return converted in kwargs.get("choices", (converted,))


@st.composite
def _argvs(draw):
    """A subcommand (or a bogus one), then most of its required flags and a
    few others in any order, each with a value attached by "=" or separate.
    A flag of the row takes a value its type accepts half of the time."""
    name = draw(st.sampled_from([*COMMANDS, "bogus"]))
    options = COMMANDS[name].options() if name in COMMANDS else ()
    own = {flag: kwargs for flags, kwargs in options for flag in flags}
    required = [flags[0] for flags, kwargs in options
                if kwargs.get("required") and draw(st.integers(0, 7))]
    extra = draw(st.lists(st.sampled_from([*own, *_OTHER_FLAGS]), max_size=3))
    argv = [name]
    for flag in draw(st.permutations(required + extra)):
        values = _VALUES
        if flag in own and draw(st.booleans()):
            values = [v for v in _VALUES if _fits(own[flag], v)]
        value = draw(st.sampled_from(values))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_reader_agrees_with_argparse(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == vars(_argparse(argv))


@pytest.mark.parametrize("argv, read", [
    (["restrict-ic", "--d", "2", "--n", "3", "--lambda", "1,1",
      "--stratum", "-1"], True),
    (["context", "--d", "5", "--d=2", "--n", "3", "--d", "4"], True),
    (["context", "--d", "2", "--n", "-1", "--format=tsv"], True),
    (["euler", "--d", "1", "--n", "3", "--lam", "2", "--r", "0"], True),
    (["--version", "context"], False),
    (["euler", "--d", "1", "--n", "3", "--lambda", "2", "--stratum", "0",
      "--mode", "euler"], False),
    (["kostant", "--d", "2", "--n", "3", "--S", "0", "--lamb", "1,1"], False),
    (["restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,1",
      "--stratum", "0", "--profile", "-1,2"], False),
    (["context", "--d", "2", "--n", "3", "--"], False),
    (["context", "--d", "2", "--n", "3", "--format", "xml"], False),
    (["restrict-ic", "--d", "2", "--n", "3", "--mode=eu", "--r", "0",
      "--lam", "1"], False),
    (["context", "--d", "2", "--format", "tsv"], False),
])
def test_reader_fixed_cases(argv, read):
    # what the reader takes it reads as argparse does; the rest it declines
    ns = cli._read(argv)
    assert (ns is not None) == read
    if read:
        assert vars(ns) == vars(_argparse(argv))


@pytest.mark.parametrize("argv", [
    ("strata", "--d", "1", "--n", "1000000000000000003"),
    ("transfer-degree", "--d", "1", "--n", "3", "--m", "3000000000000000009"),
])
def test_huge_level_is_refused_not_factored(argv):
    # trial division of a 19-digit prime would run for hours
    proc = subprocess.run([sys.executable, "-m", "siegelstrata", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3 and "factoring bound" in proc.stderr
    assert proc.stdout == ""


def test_twelve_digit_prime_level_still_answers(capsys):
    payload = run_json(capsys, "strata", "--d", "1", "--n", "999999999989")
    assert payload["meta"]["n"] == "999999999989"
    assert payload["result"]["rows"]


# ---------------------------------------------------------------------------
# determinism and entry-point equivalence (subprocess level)

DETERMINISM_ARGS = [
    ["kostant", "--d", "2", "--n", "3", "--S", "0,1", "--lambda", "1,1"],
    ["strata", "--d", "2", "--n", "3"],
    ["restrict-weighted", "--d", "2", "--n", "3", "--lambda", "1,1",
     "--stratum", "0", "--profile=-2,-1"],
]


def _run(cmd, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    return subprocess.run(cmd, capture_output=True, env=env)


def _run_subprocess(cmd, seed):
    proc = _run(cmd, seed)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("args", DETERMINISM_ARGS)
def test_byte_determinism_across_hash_seeds(args):
    cmd = [sys.executable, "-m", "siegelstrata"] + args
    assert _run_subprocess(cmd, 0) == _run_subprocess(cmd, 1)


@pytest.mark.parametrize("args", [
    ["oracle", "--d", "1", "--n", "5", "--S", "0"],
    ["restrict-ic", "--d", "3", "--n", "4", "--lambda", "2,1,0", "--stratum", "0",
     "--mode", "euler"],
    ["kostant", "--d", "4", "--n", "3", "--lambda", "3,2,1,0", "--S", "0,2"],
    ["strata", "--d", "3", "--n", "4"],
    ["hecke-matrix", "--d", "1", "--n", "3", "--m", "6", "--S", "0"],
])
def test_optimized_interpreter_gives_the_same_answer(args):
    # python -O strips assert statements; the answer must not depend on them
    plain = _run([sys.executable, "-m", "siegelstrata"] + args, 0)
    optimized = _run([sys.executable, "-O", "-m", "siegelstrata"] + args, 0)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)


def _console_script_command():
    """Command equivalent to the `siegelstrata` console script.

    Reads the entry point that the repository's pyproject.toml declares
    and runs it the way pip's generated wrapper does, so the check needs
    no installed script on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        entry_point = tomllib.load(f)["project"]["scripts"]["siegelstrata"]
    assert entry_point == "siegelstrata.cli:main"
    module, attr = entry_point.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'siegelstrata'; sys.exit({attr}())")
    return [sys.executable, "-c", wrapper]


def test_console_script_matches_module():
    module = [sys.executable, "-m", "siegelstrata"]
    scripts = [_console_script_command()]
    installed = shutil.which("siegelstrata")
    if installed:
        scripts.append([installed])

    args = ["context", "--d", "2", "--n", "3"]
    via_module = _run_subprocess(module + args, 0)
    assert via_module
    # refused input: the documented exit code 2 must survive either exit path
    refused = ["strata", "--d", "1", "--n", "2"]
    want = _run(module + refused, 0)
    assert want.returncode == 2
    for script in scripts:
        assert _run_subprocess(script + args, 0) == via_module
        got = _run(script + refused, 0)
        assert (got.returncode, got.stdout, got.stderr) == \
            (want.returncode, want.stdout, want.stderr)
