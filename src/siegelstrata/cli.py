"""Command-line front end.

Each subcommand is one row of ``COMMANDS``.  A well-formed request is read
straight from its row into a ``SimpleNamespace``; argparse is imported only
for help, ``--version`` with more arguments, and usage errors.  ``run`` maps
the namespace to a payload ``{"meta": {...}, "result": {...}}`` with all
leaf values pre-rendered as printable-ASCII strings (large integers survive
any JSON reader), and the payload is serialized as canonical JSON (sorted
keys, two-space indent: the bytes of ``json.dumps``, written without
importing ``json``) or as TSV.

Exit codes: 0 success, 2 malformed input, 3 request outside the supported
computational range, 141 stdout closed by its reader.
"""

import math
import os
import sys
from collections.abc import Callable
from types import SimpleNamespace

from . import __version__, engine, hecke, strata
from .arith import DEFAULT_CAP, euler_phi
from .errors import InputError, ScopeError, Value
from .grouptheory import build_context, parabolic_data
from .kostant import lie_n_cohomology
from .reps import Bound, Weight, central_weight, pairings, weyl_dim


# ---------------------------------------------------------------------------
# parsing helpers

def _int(tok: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        raise InputError(f"expected an integer, got {tok!r}")


def parse_bound(tok: str) -> Bound:
    t = tok.strip()
    if t in ("inf", "+inf"):
        return math.inf
    if t == "-inf":
        return -math.inf
    return _int(t)


def _items(body: str, what: str, text: str) -> list[str]:
    parts = [p for p in body.split(",") if p.strip() != ""]
    if not parts:
        raise InputError(f"empty {what} in {text!r}")
    return parts


def parse_weight(text: str) -> Weight:
    body, m0 = text.strip(), 0
    if "@" in body:
        body, tail = body.split("@", 1)
        m0 = _int(tail)
    return Weight(tuple(_int(p) for p in _items(body, "weight", text)), m0)


def parse_set(text: str) -> tuple[int, ...]:
    return tuple(_int(p) for p in _items(text, "index set", text))


def parse_profile(text: str) -> tuple[Bound, ...]:
    return tuple(parse_bound(p) for p in _items(text, "profile", text))


def parse_chain(text: str | None) -> engine.Chain:
    if text is None or text.strip() == "":
        return engine.Chain(())
    entries = []
    for item in text.split(","):
        if ":" not in item:
            raise InputError(f"chain items look like s:a, got {item!r}")
        s, a = item.split(":", 1)
        entries.append((_int(s), parse_bound(a)))
    return engine.Chain(tuple(entries))


def parse_matrix(text: str):
    if text.strip() == "identity":
        return None
    rows = []
    for row in text.split(";"):
        rows.append(tuple(_int(x) for x in row.split(",")))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError(f"matrix must be square, got {text!r}")
    return tuple(rows)


# ---------------------------------------------------------------------------
# rendering helpers

def _fmt_bound(b: Bound) -> str:
    if b == math.inf:
        return "inf"
    if b == -math.inf:
        return "-inf"
    return str(b)


def _fmt_weight(a, m0) -> str:
    return ",".join(str(x) for x in a) + "@" + str(m0)


def _fmt_set(S) -> str:
    return ",".join(str(s) for s in S)


def _fmt_matrix(g) -> str:
    return ";".join(",".join(str(x) for x in row) for row in g)


REPORT_COLUMNS = ["S", "degree", "weight", "mult", "central_weight",
                  "sheaf_weight", "pairings"]


def _report_rows(cls: engine.SymbolicClass, label: str | None = None):
    rows = []
    for S, degree, levi, mult, central, sheaf, pairs in engine.graded_report(cls):
        row = {"S": _fmt_set(S), "degree": str(degree),
               "weight": _fmt_weight(levi.a, levi.m0), "mult": str(mult),
               "central_weight": str(central), "sheaf_weight": str(sheaf),
               "pairings": ",".join(map(str, pairs))}
        if label is not None:
            row = {"profile": label, **row}
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# job dispatch

def _ctx(args: SimpleNamespace):
    return build_context(args.d, args.n)


def _run_context(args: SimpleNamespace):
    ctx = _ctx(args)
    return {
        "dimG": str(ctx.dimG),
        "weylOrder": str(ctx.weylOrder),
        "positiveRootCount": str(len(ctx.positiveRoots)),
        "rho": _fmt_weight(ctx.rho.a, ctx.rho.m0),
        "openStratumDim": str(ctx.c),
        "stratumDims": [str(x) for x in ctx.stratumDims],
    }


def _run_strata(args: SimpleNamespace):
    ctx = _ctx(args)
    if args.S is not None:
        S = args.S
        r = args.r if args.r is not None else min(S)
        return {"columns": ["r", "S", "doubleCosets"],
                "rows": [{"r": str(r), "S": _fmt_set(S),
                          "doubleCosets": str(strata.double_coset_count(ctx, r, S))}]}
    indices = range(ctx.d) if args.r is None else [args.r]
    rows = []
    for r in indices:
        rows.append({"r": str(r), "count": str(strata.strata_count(ctx, r)),
                     "stratumDim": str(ctx.stratumDims[ctx.d - r])})
    return {"columns": ["r", "count", "stratumDim"], "rows": rows}


def _run_kostant(args: SimpleNamespace):
    ctx = _ctx(args)
    module = lie_n_cohomology(ctx, args.S, args.lam)
    blocks = parabolic_data(ctx, args.S).leviBlocks
    rows = []
    for s in module.summands:
        w = s.levi
        rows.append({"degree": str(s.degree),
                     "weight": _fmt_weight(w.a, w.m0),
                     "mult": str(s.mult),
                     "dim": str(weyl_dim(w, blocks)),
                     "pairings": ",".join(str(p) for p in pairings(w))})
    return {"S": _fmt_set(args.S),
            "lam": _fmt_weight(args.lam.a, args.lam.m0),
            "centralWeight": str(central_weight(args.lam)),
            "columns": ["degree", "weight", "mult", "dim", "pairings"],
            "rows": rows}


def _class_result(args: SimpleNamespace, ctx, cls: engine.SymbolicClass,
                  **extra):
    """The Euler value of cls in euler mode, its report rows otherwise."""
    out = {"r": str(args.r), "lam": _fmt_weight(args.lam.a, args.lam.m0), **extra}
    if args.mode == "euler":
        out["euler"] = str(engine.euler_evaluate(cls, ctx))
    else:
        out.update(columns=list(REPORT_COLUMNS), rows=_report_rows(cls))
    return out


def _run_chain_term(args: SimpleNamespace):
    ctx = _ctx(args)
    cls = engine.chain_term(ctx, args.chain, args.r, args.lam)
    chain_s = ",".join(f"{s}:{_fmt_bound(a)}" for s, a in args.chain.entries)
    return _class_result(args, ctx, cls, chain=chain_s)


def _run_restrict_weighted(args: SimpleNamespace):
    """``restrict-weighted``, and ``euler`` (upper IC profile by default)."""
    ctx = _ctx(args)
    profile = args.profile
    if profile is None:
        profile = strata.ic_profiles(ctx.d)[0]
    cls = engine.restrict_weighted(ctx, profile, args.lam, args.r)
    return _class_result(args, ctx, cls,
                         profile=[_fmt_bound(p) for p in profile])


def _run_restrict_ic(args: SimpleNamespace):
    ctx = _ctx(args)
    upper_cls, lower_cls = engine.restrict_ic(ctx, args.lam, args.r)
    upper, lower = strata.ic_profiles(ctx.d)
    base = {"r": str(args.r),
            "lam": _fmt_weight(args.lam.a, args.lam.m0),
            "upperProfile": [_fmt_bound(p) for p in upper],
            "lowerProfile": [_fmt_bound(p) for p in lower]}
    if args.mode == "euler":
        eu = engine.euler_evaluate(upper_cls, ctx)
        el = engine.euler_evaluate(lower_cls, ctx)
        base.update({"eulerUpper": str(eu),
                     "eulerLower": str(el),
                     "agree": "true" if eu == el else "false"})
        return base
    base.update({"columns": ["profile"] + REPORT_COLUMNS,
                 "rows": (_report_rows(upper_cls, "upper")
                          + _report_rows(lower_cls, "lower"))})
    return base


def _run_expansion(args: SimpleNamespace):
    r = args.r
    rows = []
    for subset, sign, chain in engine.expansion_chains(_ctx(args), args.profile,
                                                       args.lam, r):
        S = tuple(sorted(set(chain.indices) | {r}))
        rows.append({"subset": _fmt_set(subset) or "-",
                     "sign": str(sign),
                     "chain": ",".join(f"{s}:{_fmt_bound(a)}"
                                       for s, a in chain.entries) or "-",
                     "S": _fmt_set(S)})
    return {"r": str(r),
            "lam": _fmt_weight(args.lam.a, args.lam.m0),
            "profile": [_fmt_bound(p) for p in args.profile],
            "columns": ["subset", "sign", "chain", "S"], "rows": rows}


def _datum(args: SimpleNamespace) -> hecke.HeckeDatum:
    return hecke.HeckeDatum(args.d, args.n, args.m)


def _run_hecke_index(args: SimpleNamespace):
    value = hecke.hecke_index(_datum(args), args.S)
    return {"m": str(args.m), "S": _fmt_set(args.S), "value": str(value)}


def _run_transfer_degree(args: SimpleNamespace):
    value = hecke.transfer_degree(_datum(args))
    return {"m": str(args.m), "value": str(value)}


def _run_fiber_count(args: SimpleNamespace):
    datum = _datum(args)
    return {"m": str(args.m), "S": _fmt_set(args.S),
            "value": str(hecke.boundary_fiber_count(datum, args.S)),
            "cosetValue": str(hecke.reduction_fiber_count(datum, args.S))}


def _run_hecke_matrix(args: SimpleNamespace):
    datum = _datum(args)
    struct = hecke.hecke_matrix_structure(datum, args.S, args.g,
                                          cap=args.cap)
    rows = [{"to": str(i), "from": str(j), "count": str(c)}
            for i, j, c in struct.entries]
    return {"m": str(args.m), "S": _fmt_set(args.S),
            "classes": [_fmt_matrix(g) for g in struct.classes],
            "columnTotals": [str(t) for t in struct.column_totals()],
            "columns": ["to", "from", "count"], "rows": rows}


def _run_oracle(args: SimpleNamespace):
    d, n, r, cap = args.d, args.n, args.r, args.cap
    ctx = build_context(d, n)
    tag = f"d={d} n={n}"
    checks = []

    def check(name: str, formula, brute) -> None:
        formula, brute = str(formula), str(brute)
        checks.append({"name": name, "formula": formula, "bruteforce": brute,
                       "ok": "PASS" if formula == brute else "FAIL"})

    check(f"strata {tag} r={r}", strata.strata_count(ctx, r),
          strata.strata_count_bruteforce(d, n, r, cap=cap))
    if args.S is not None:
        S = args.S
        formula = strata.double_coset_count(ctx, r, S)
        check(f"doubleCosets {tag} S={_fmt_set(S)}", formula,
              strata.double_coset_count_bruteforce(d, n, r, S, cap=cap))
        refined = strata.refinement_check_bruteforce(d, n, r, S, cap=cap)
        check(f"refinement {tag} S={_fmt_set(S)}", formula,
              formula if refined else "mismatch")
    check(f"similitudeImage {tag}", euler_phi(n),
          len(strata.similitude_image_bruteforce(d, n, cap=cap)))
    return {"columns": ["name", "formula", "bruteforce", "ok"], "rows": checks}


def _run_euler(args: SimpleNamespace):
    """``restrict-weighted`` in Euler mode; the ``euler`` row has no ``--mode``."""
    return _run_restrict_weighted(SimpleNamespace(**vars(args), mode="euler"))


# ---------------------------------------------------------------------------
# the subcommand table

def _arg(*flags: str, **kwargs):
    return flags, kwargs


_STRATUM = _arg("--stratum", "--r", dest="r", type=int, required=True,
                help="corank of the target stratum")
_LAM = _arg("--lambda", "--lam", dest="lam", type=parse_weight, required=True,
            help="dominant weight a1,..,ad[@m0]")
_MODE = _arg("--mode", choices=("symbolic", "euler"), default="symbolic")
_S = _arg("--S", type=parse_set, required=True)
_CAP = _arg("--cap", type=int, default=DEFAULT_CAP)
# every row starts with these, ``--m`` where the row takes it
_COMMON = (_arg("--d", type=int, required=True, help="genus"),
           _arg("--n", type=int, required=True, help="principal level"))
_M = _arg("--m", type=int, required=True, help="deeper level, a multiple of n")
_FORMAT = _arg("--format", choices=("json", "tsv"), default="json")


class Command(Value):
    """A subcommand's help line, handler, own arguments (added after
    ``--d``, ``--n``, [``--m``] and ``--format``), and whether it takes ``--m``."""

    help: str
    handler: Callable[[SimpleNamespace], dict]
    args: tuple = ()
    takes_m: bool = False

    def options(self) -> tuple:
        """Every (flags, add_argument kwargs) of the row, in parser order."""
        return (*_COMMON, *((_M,) if self.takes_m else ()), _FORMAT, *self.args)


COMMANDS = {
    "context": Command("root-datum facts", _run_context),
    "strata": Command("stratum counts, or double cosets with --S", _run_strata, (
        _arg("--stratum", "--r", dest="r", type=int, default=None),
        _arg("--S", type=parse_set, default=None))),
    "kostant": Command("graded Levi decomposition of the nilpotent cohomology",
                       _run_kostant, (_S, _LAM)),
    "chain-term": Command("one truncated boundary term", _run_chain_term, (
        _STRATUM, _LAM,
        _arg("--chain", type=parse_chain, default=engine.Chain(()),
             help="threshold chain s:a,s:a (indices decreasing)"),
        _MODE)),
    "restrict-weighted": Command(
        "stratum restriction of the weight-truncated direct image",
        _run_restrict_weighted, (
            _STRATUM, _LAM,
            _arg("--profile", type=parse_profile, required=True,
                 help="d thresholds, entries integer or inf/-inf"),
            _MODE)),
    "restrict-ic": Command("stratum restriction of the intersection complex",
                           _run_restrict_ic, (_STRATUM, _LAM, _MODE)),
    "euler": Command("exact Euler evaluation of a restriction", _run_euler, (
        _STRATUM, _LAM,
        _arg("--profile", type=parse_profile, default=None,
             help="defaults to the upper intersection-complex profile"))),
    "expansion": Command("chain expansion of a restriction", _run_expansion, (
        _STRATUM, _LAM, _arg("--profile", type=parse_profile, required=True))),
    "hecke-index": Command("level index along a stratum", _run_hecke_index,
                           (_S,), takes_m=True),
    "transfer-degree": Command("index of the deeper principal level",
                               _run_transfer_degree, takes_m=True),
    "fiber-count": Command("fiber size of the level map on strata",
                           _run_fiber_count, (_S,), takes_m=True),
    "hecke-matrix": Command(
        "transfer-matrix support between stratum class sets", _run_hecke_matrix,
        (_S, _arg("--g", type=parse_matrix, default=None,
                  help='matrix "a,b;c,d" or "identity"'), _CAP),
        takes_m=True),
    "oracle": Command("closed forms versus brute-force recounts", _run_oracle, (
        _arg("--stratum", "--r", dest="r", type=int, default=0),
        _arg("--S", type=parse_set, default=None), _CAP)),
}


def run(args: SimpleNamespace) -> dict:
    try:
        handler = COMMANDS[args.command].handler
    except KeyError:
        raise InputError(f"unknown command {args.command!r}")
    meta = {"command": args.command, "d": str(args.d), "n": str(args.n),
            "version": __version__}
    return {"meta": meta, "result": handler(args)}


# ---------------------------------------------------------------------------
# argument parsing

def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a well-formed request, read from its ``COMMANDS`` row.

    Accepts a strict subset of what ``_build_parser`` accepts, with the same
    namespace: the subcommand, then ``--flag=value`` or ``--flag value``
    pairs, each flag one of the row's option strings spelled out in full.  A
    separate value may start with "-" only as a negative number.  Returns
    None for anything else (help, abbreviations, "--", stray tokens, a
    missing or invalid value, a missing required flag); argparse then parses
    argv again and reports it.
    """
    cmd = COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    values, required, by_flag = {"command": argv[0]}, [], {}
    for flags, kwargs in cmd.options():
        dest = kwargs.get("dest", flags[0][2:].replace("-", "_"))
        values[dest] = kwargs.get("default")
        if kwargs.get("required"):
            required.append(dest)
        for flag in flags:
            by_flag[flag] = dest, kwargs
    seen, tokens = set(), iter(argv[1:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag not in by_flag:
            return None
        if not eq:
            # argparse takes a separate value starting with "-" only as a
            # negative number ("-" and digits here; "-.5" is left to it)
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not value[1:].isdecimal()):
                return None
        dest, kwargs = by_flag[flag]
        convert, choices = kwargs.get("type"), kwargs.get("choices")
        try:
            value = value if convert is None else convert(value)
        except Exception:  # whatever the error, argparse reports it
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    return SimpleNamespace(**values) if seen.issuperset(required) else None


def _build_parser():
    """The argparse parser of every row, for help, version and usage errors."""
    import argparse

    class OneValue(argparse.Action):
        """Stores an option's value.  argparse drops the value "--" of
        "--flag=--" before it calls ``type`` or checks choices, and would
        store what is left, an empty list."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument" if (
                    self.choices is None) else f"invalid choice: '--' (choose "
                    f"from {', '.join(map(repr, self.choices))})")
            setattr(namespace, self.dest, values)

    top = argparse.ArgumentParser(
        prog="siegelstrata",
        description="boundary strata, truncated restrictions, and level "
                    "transfers for symplectic similitude groups")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flags, kwargs in cmd.options():
            p.add_argument(*flags, **kwargs, action=OneValue)
    return top


def parse_args(argv=None) -> SimpleNamespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:  # what argparse's version action does
        sys.stdout.write(__version__ + "\n")
        raise SystemExit(0)
    args = _read(argv)
    if args is None:
        args = _build_parser().parse_args(argv, namespace=SimpleNamespace())
    return args


# ---------------------------------------------------------------------------
# serialization

def _quote(s: str) -> str:
    """s in quotes, as json.dumps writes it: a payload's strings are
    printable ASCII without a quote or a backslash, which need no escape."""
    try:
        plain = s.isascii() and s.isprintable() and '"' not in s and "\\" not in s
    except AttributeError:  # a key that is not a str
        raise TypeError(f"a payload key is a str, not {type(s).__name__}") from None
    if not plain:
        raise TypeError(f"a payload string needs no JSON escape, got {s!r}")
    return f'"{s}"'


def _json(value, pad: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it at the
    indentation pad; a payload holds only str, list and dict."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_json(x, inner) for x in value]
        brackets = "[]"
    else:
        raise TypeError(f"a payload holds only str, list and dict, "
                        f"not {type(value).__name__}")
    if not items:
        return brackets
    # brackets on the end items, so the answer is copied once per level
    items[0] = f"{brackets[0]}\n{inner}{items[0]}"
    items[-1] += f"\n{pad}{brackets[1]}"
    return f",\n{inner}".join(items)


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload, "") + "\n"
    result = payload.get("result", payload)
    lines = []
    if "rows" in result:
        cols = result["columns"]
        lines.append("\t".join(cols))
        for row in result["rows"]:
            lines.append("\t".join(row[c] for c in cols))
    else:
        for k in sorted(result):
            v = result[k]
            if isinstance(v, list):
                v = ",".join(v)
            lines.append(f"{k}\t{v}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        # argparse already reported; --help/--version exit 0, bad args exit 2
        return 0 if e.code in (0, None) else 2
    try:
        payload = run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ScopeError as e:
        print(f"out of range: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(render(payload, args.format))
    return 0


def entry() -> "NoReturn":
    """Program entry (``python -m siegelstrata``, the ``siegelstrata``
    script): run ``main`` on ``sys.argv``, then end the process with
    ``os._exit`` once stdout and stderr are flushed, skipping interpreter
    finalization.  If a reader has gone (a write or flush raises
    ``BrokenPipeError``), the process leaves quietly with 141, the code a
    shell reports for a death by SIGPIPE.  Any other failed flush hands the
    exit back to the interpreter, which reports it as usual; an exception
    escaping ``main`` keeps its traceback and exit 1.
    """
    try:
        code = main()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None if the process started without it
                    stream.flush()
        except BrokenPipeError:
            raise
        except OSError:
            raise SystemExit(code) from None
    except BrokenPipeError:
        # as the SIGPIPE note in the Python docs advises, stdout points at
        # devnull, so nothing written or flushed after this reaches the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os._exit(141)
    os._exit(code)
