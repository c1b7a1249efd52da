"""The benchmark's per-layer contract, checked from the calculator's side.

``bench/tracer.py`` wraps public functions by name, and the benchmark stops
with an error when a per-layer metric that ``BENCHMARK.json`` names is not
reported by any traced request of a workload.  The ``oracle`` workload
reaches the restriction layers through just two requests, a symbolic
``restrict-ic`` and an Euler-mode ``chain-term`` at d = 2; this test traces
those two and checks that every restriction-layer metric is still reported,
so a refactor that stops calling a traced function fails here first.  The
same holds for the oracle layers (``arith``, the ``strata`` brute-force
companions, ``hecke.hecke_matrix_structure`` and ``matrixmodel``), traced
through the workload's d = 1 ``oracle --S 0`` and ``hecke-matrix``
requests.  A seed-0 ``lookup`` request is traced too, for the ``cli.`` names
(``parse_args``, ``run`` and ``render``), which the CLI front end must keep.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# euler_char_congruence is called by the Euler evaluation, not the oracles
EULER_FACTOR = "arith.euler_char_congruence."
RESTRICTION_LAYERS = ("grouptheory.", "kostant.", "reps.", "engine.", EULER_FACTOR)
ORACLE_LAYERS = ("arith.", "hecke.hecke_matrix_structure.", "matrixmodel.")
DERIVED = {"reps.truncate.keep_ratio"}  # computed by bench/run.py from counts


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


def _traced_stats(tracer, argv, tmp_path):
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    return {f"{name}.{stat}"
            for name, layer in tracer.summarize(record["spans"]).items()
            for stat in layer}


def test_oracle_restriction_requests_report_every_restriction_layer(tmp_path):
    tracer, workloads = _load("tracer"), _load("workloads")
    argvs = [req.argv for req in workloads.requests("oracle", 0)
             if req.argv[0] in ("restrict-ic", "chain-term")]
    assert sorted(argv[0] for argv in argvs) == ["chain-term", "restrict-ic"]
    reported = set()
    for argv in argvs:
        reported |= _traced_stats(tracer, argv, tmp_path)
    wanted = {name for name in _per_layer_names()
              if name.startswith(RESTRICTION_LAYERS)} - DERIVED
    assert wanted and not wanted - reported, sorted(wanted - reported)


def test_oracle_requests_report_every_oracle_layer(tmp_path):
    tracer, workloads = _load("tracer"), _load("workloads")
    argvs = [req.argv for req in workloads.requests("oracle", 0)
             if req.argv[0] == "hecke-matrix"
             or (req.argv[:3] == ("oracle", "--d", "1") and "--S" in req.argv)]
    assert {argv[0] for argv in argvs} == {"oracle", "hecke-matrix"}
    reported = set()
    for argv in argvs:
        reported |= _traced_stats(tracer, argv, tmp_path)
    wanted = {name for name in _per_layer_names()
              if (name.startswith(ORACLE_LAYERS) and not name.startswith(EULER_FACTOR))
              or (name.startswith("strata.") and "_bruteforce." in name)}
    assert wanted and not wanted - reported, sorted(wanted - reported)


def test_cached_layers_keep_their_cache():
    # the tracer counts work only on cache misses, read from cache_info()
    for mod, _, _, cached in _load("tracer").LAYERS:
        if cached:
            module = importlib.import_module(f"siegelstrata.{mod}")
            assert callable(getattr(module, cached).cache_info), (mod, cached)


def test_lookup_request_reports_the_cli_layers(tmp_path):
    tracer, workloads = _load("tracer"), _load("workloads")
    argv = next(req.argv for req in workloads.requests("lookup", 0)
                if req.expect == 0)
    reported = _traced_stats(tracer, argv, tmp_path)
    wanted = {"cli.parse_args.self_s", "cli.run.self_s", "cli.render.self_s",
              "cli.render.bytes"}
    assert not wanted - reported, sorted(wanted - reported)
