"""Benchmark harness for the siegelstrata calculator.

    python3 bench/run.py [--workload restrict|oracle|lookup|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a checkout; the calculator is loaded from ``src/``.
Every request is a fresh ``python -m siegelstrata ...`` process, the way a
user runs the calculator: one client, one request at a time (a closed loop),
with cold in-process caches.  Each workload is a seeded pass of requests
(``workloads.py``); the pass repeats until ``--seconds`` (by default
``run_seconds`` in BENCHMARK.json) have elapsed, at least ``MIN_PASSES``
times.  Every output is checked (``check``).

On a shared host the speed of the machine drifts by a factor of up to two
over tens of seconds, for process start and for computation alike, so raw
times from two runs minutes apart are not comparable.  Right before each
timed process the harness therefore times a fixed speed probe (``PROBE``, a
fresh interpreter running a fixed loop) and scales the process's times by
``PROBE_REF_S`` over the median of the two probes before it and the two
after it: every reported time is in seconds on a machine where the probe
takes ``PROBE_REF_S``.  The unscaled values go to the results file.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs each pass twice, plainly and under ``tracer.py``, and
reports the per-layer metrics: per-pass totals of self time and counts at
each module boundary, plus the tracing overhead.  A traced request's self
times are scaled by the same factor as its wall time.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; a
readable summary goes to stderr, and the full record (environment,
per-request digests, failures, unscaled metrics) to ``.bench_results/``.
The exit code is 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS, summarize
from workloads import WORKLOADS, Request, requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0

MIN_PASSES = 2          # per measured run; medians are taken over passes
SETUP_RUNS = 7          # fresh `--version` starts timed for setup_s
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
REQUEST_LIMIT_S = 120   # a request running longer is killed and fails

PROBE = [sys.executable, "-c", "s = 0\nfor i in range(300_000):\n    s += i * i % 7"]
PROBE_REF_S = 0.07      # probe wall time on the reference machine


class Sample:
    """One finished request, with the probe time taken right before it."""

    def __init__(self, req: Request, probe: float, wall: float, cpu: float,
                 rss_mb: float, code: int, stdout: bytes):
        self.req, self.probe = req, probe
        self.raw_wall, self.raw_cpu, self.rss_mb = wall, cpu, rss_mb
        self.code, self.stdout = code, stdout
        self.digest = hashlib.sha256(stdout).hexdigest()
        self.wall = self.cpu = self.scale = None  # set by scale_times()
        self.layers: dict[str, float] = {}  # traced: layer_stats() of the request


def scale_times(samples: list[Sample], last_probe: float) -> None:
    """Scale each sample of a run, in the order they ran, by the median of
    the two probes before it and the two after it (``last_probe`` ran after
    the last sample).  The probes right before and after a long request
    catch a change of speed during it; the outer two damp probe noise."""
    probes = [s.probe for s in samples] + [last_probe]
    for i, s in enumerate(samples):
        s.scale = PROBE_REF_S / statistics.median(probes[max(0, i - 1):i + 3])
        s.wall, s.cpu = s.raw_wall * s.scale, s.raw_cpu * s.scale


def _env() -> dict[str, str]:
    """The request environment: no inherited PYTHON* settings, the package
    from src/, and a fixed hash seed so set iteration order is steady."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], env: dict[str, str]):
    """Run cmd to completion; return (wall s, user+sys s, max RSS MB, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    timer = threading.Timer(REQUEST_LIMIT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode, out)


PLAIN = [sys.executable, "-m", "siegelstrata"]


def traced_prefix(spans_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(spans_path)]


def timed(req: Request, prefix: list[str], env) -> Sample:
    probe = spawn(PROBE, env)[0]
    return Sample(req, probe, *spawn(prefix + list(req.argv), env))


def run_pass(reqs: list[Request], prefix: list[str], env) -> list[Sample]:
    return [timed(req, prefix, env) for req in reqs]


# ---------------------------------------------------------------------------
# output checks

def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def key(req: Request) -> str:
    return " ".join(req.argv)


def check(req: Request, code: int, stdout: bytes, golden: dict[str, str]) -> str | None:
    """Why the output of req is wrong, or None if it passes every check.

    Checks for any seed: the exit code; a refused request prints nothing to
    stdout; an answer is a JSON document for the subcommand asked; the two
    IC profiles agree in Euler mode; every oracle row passes; hecke-matrix
    column totals are all equal.  A request with a golden digest (all of
    them at the default seed) must also match it byte for byte.
    """
    if code != req.expect:
        return f"exit code {code}, expected {req.expect}"
    digest = hashlib.sha256(stdout).hexdigest()
    if key(req) in golden and golden[key(req)] != digest:
        return "stdout differs from the golden digest"
    if req.expect != 0:
        return "refused request wrote to stdout" if stdout else None
    try:
        doc = json.loads(stdout)
        meta, result = doc["meta"], doc["result"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a result document"
    cmd = req.argv[0]
    if meta.get("command") != cmd:
        return f"result is for {meta.get('command')!r}"
    if cmd == "restrict-ic" and "euler" in req.argv and result.get("agree") != "true":
        return "IC profiles disagree in Euler mode"
    if cmd == "oracle" and any(row.get("ok") != "PASS" for row in result.get("rows", ())):
        return "an oracle row did not pass"
    if cmd == "hecke-matrix" and len(set(result.get("columnTotals", ()))) != 1:
        return "hecke-matrix column totals differ"
    return None


# ---------------------------------------------------------------------------
# metrics

def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """Highest whole percentile leaving at least TAIL_BEYOND of count samples beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / count))


def end_to_end(passes: list[list[Sample]], setup: list[Sample], pass_len: int,
               wall="wall", cpu="cpu"):
    """The end-to-end metrics; ``wall``/``cpu`` name the Sample fields used
    (the scaled ones, or ``raw_wall``/``raw_cpu``)."""
    samples = [s for p in passes for s in p]
    walls = [getattr(s, wall) for s in samples]
    tail_p = tail_percentile(MIN_PASSES * pass_len)
    metrics = {
        "setup_s": statistics.median(getattr(s, wall) for s in setup),
        "wall_s": statistics.median(sum(getattr(s, wall) for s in p) for p in passes),
        "cpu_s": statistics.median(sum(getattr(s, cpu) for s in p) for p in passes),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": percentile(walls, tail_p),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    notes = {"latency_tail_s": f"p{tail_p} of {len(samples)} requests"}
    return metrics, notes


LAYER_TIMES = ("self_s", "import_s")  # the other layer stats are counts


def layer_stats(record: dict) -> dict[str, float]:
    """One traced request's spans file as flat stats: cli.import_s, and the
    calls, self_s and counts of every layer it reached."""
    stats = {"cli.import_s": record["import_s"]}
    for name, layer in summarize(record["spans"]).items():
        for stat, value in layer.items():
            stats[f"{name}.{stat}"] = value
    return stats


def layer_totals(traced_pass: list[Sample]) -> dict[str, float]:
    """Per-pass totals of every layer stat, times scaled like their request.
    A traced layer that no request called has 0 calls and no other stat."""
    totals: dict[str, float] = {f"{mod}.{fn}.calls": 0 for mod, fn, _, _ in LAYERS}
    for s in traced_pass:
        for stat, value in s.layers.items():
            if stat.rsplit(".", 1)[1] in LAYER_TIMES:
                value *= s.scale
            totals[stat] = totals.get(stat, 0) + value
    totals["reps.truncate.keep_ratio"] = (
        totals.get("reps.truncate.summands_kept", 0)
        / totals["reps.truncate.summands_in"]
        if totals.get("reps.truncate.summands_in") else 0.0)
    return totals


def per_layer(plain: list[list[Sample]], traced: list[list[Sample]], names: list[str]):
    """The named per-layer metrics, median over traced passes.  A name that
    the traced requests did not report (a misspelled stat, or a time or
    count of a layer that was never called) is an error, not a 0."""
    totals = [layer_totals(p) for p in traced]
    missing = sorted({name for name in names if name != "trace.overhead_s"
                      for t in totals if name not in t})
    if missing:
        raise ValueError(f"per-layer metrics not measured: {', '.join(missing)}")
    wall = [sum(s.wall for s in p) for p in plain]
    traced_wall = [sum(s.wall for s in p) for p in traced]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced_wall) - statistics.median(wall)
        else:
            metrics[name] = statistics.median(t[name] for t in totals)
    return metrics


# ---------------------------------------------------------------------------
# running workloads

def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, golden: dict[str, str]) -> dict:
    env = _env()
    reqs = requests(workload, seed)
    environment = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "commit": _commit(), "seed": seed,
        "workload": workload, "requests_per_pass": len(reqs),
        "seconds": seconds, "trace": int(trace),
    }
    spawn(PLAIN + list(reqs[0].argv), env)  # warm-up: .pyc compilation
    version = Request(("--version",), 0)
    setup = [timed(version, PLAIN, env) for _ in range(SETUP_RUNS)]

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{os.getpid()}.json"
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < (1 if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        plain.append(run_pass(reqs, PLAIN, env))
        if trace:
            samples = []
            for req in reqs:
                spans_path.unlink(missing_ok=True)
                sample = timed(req, traced_prefix(spans_path), env)
                if spans_path.exists():  # else it was killed and fails its check
                    sample.layers = layer_stats(json.loads(spans_path.read_text()))
                samples.append(sample)
            traced.append(samples)
    spans_path.unlink(missing_ok=True)
    in_order = setup + [s for pair in itertools.zip_longest(plain, traced, fillvalue=[])
                        for p in pair for s in p]
    scale_times(in_order, spawn(PROBE, env)[0])

    failures = []
    for sample in (s for p in plain + traced for s in p):
        why = check(sample.req, sample.code, sample.stdout, golden)
        if why:
            failures.append({"argv": list(sample.req.argv), "why": why})
    for p in traced:
        for sample, twin in zip(p, plain[0]):
            if sample.digest != twin.digest:
                failures.append({"argv": list(sample.req.argv),
                                 "why": "traced stdout differs from untraced"})

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, notes = per_layer(plain, traced, names), {}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, notes = end_to_end(plain, setup, len(reqs))
        notes["unscaled"] = end_to_end(plain, setup, len(reqs), "raw_wall", "raw_cpu")[0]
    notes["probe_median_s"] = statistics.median(
        s.probe for s in setup + [s for p in plain + traced for s in p])
    attempted = sum(len(p) for p in plain + traced)
    return {
        "environment": environment,
        "passes": len(plain),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "notes": notes,
        "digests": {key(s.req): s.digest for s in plain[0]},
        "samples": [[kind, i, key(s.req), s.probe, s.raw_wall, s.raw_cpu, s.rss_mb]
                    for kind, passes in (("plain", plain), ("traced", traced))
                    for i, p in enumerate(passes) for s in p],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "siegelstrata" / "__main__.py").is_file():
        print(f"no calculator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    golden = load_golden()

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace),
                               spec, golden) for w in chosen}
    for w, res in results.items():
        path = RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        for f in res["failures"]:
            print(f"FAIL {w}: {' '.join(f['argv'])}: {f['why']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            note = res["notes"].get(name, "")
            print(f"{w:9s} {name:48s} {m['value']:14.6f} {m['unit']} {note}",
                  file=sys.stderr)
        print(f"{w:9s} passes {res['passes']}, requests {res['attempted']}, "
              f"failed {res['failed']} ({res['failed'] / res['attempted']:.4f}), "
              f"median probe {res['notes']['probe_median_s']:.4f} s "
              f"(times scaled to {PROBE_REF_S} s)", file=sys.stderr)

    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
