"""Self-test of the benchmark harness.

    python3 -m pytest bench -q

The traced-run tests run one plain and one traced pass of every workload,
and the last test every request of every workload once (about two and a half
minutes in all).
"""

import hashlib
import json
import time

import pytest

import run
import tracer
from workloads import WORKLOADS, requests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert requests(workload, 7) == requests(workload, 7)
    assert requests(workload, 7) != requests(workload, 8)


def _answer(argv, result):
    doc = {"meta": {"command": argv[0]}, "result": result}
    return json.dumps(doc).encode()


def test_checker_flags_corrupted_stdout_and_wrong_exit_code():
    req = requests("lookup", run.DEFAULT_SEED)[0]
    golden = run.load_golden()
    assert run.key(req) in golden
    _, _, _, code, out = run.spawn(run.PLAIN + list(req.argv), run._env())
    assert run.check(req, code, out, golden) is None
    corrupted = out.replace(b"\n", b" ", 1)
    assert "golden" in run.check(req, code, corrupted, golden)
    assert "exit code" in run.check(req, code ^ 1, out, golden)


def test_checker_invariants_hold_without_golden():
    ic = run.Request(("restrict-ic", "--mode", "euler"), 0)
    assert run.check(ic, 0, _answer(ic.argv, {"agree": "true"}), {}) is None
    assert "disagree" in run.check(ic, 0, _answer(ic.argv, {"agree": "false"}), {})
    oracle = run.Request(("oracle",), 0)
    rows = [{"ok": "PASS"}, {"ok": "FAIL"}]
    assert "oracle" in run.check(oracle, 0, _answer(oracle.argv, {"rows": rows}), {})
    hecke = run.Request(("hecke-matrix",), 0)
    uneven = {"columnTotals": ["2", "3"]}
    assert "totals" in run.check(hecke, 0, _answer(hecke.argv, uneven), {})
    refused = run.Request(("context",), 2)
    assert run.check(refused, 2, b"", {}) is None
    assert "exit code" in run.check(refused, 0, b"", {})


def test_self_time_subtracts_child_coverage():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]; a count span [4, 4.5]
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 4.0, 0, {"items": 3}],
             ["b", 2.0, 3.0, 1, None],
             [tracer.COUNT_SPAN, 4.0, 4.5, 0, None],
             ["c", 5.0, 6.0, 0, None]]
    stats = tracer.summarize(spans)
    assert stats["root"]["self_s"] == pytest.approx(10 - 3 - 0.5 - 1)
    assert stats["a"] == {"calls": 1, "self_s": pytest.approx(2.0), "items": 3}
    assert stats["b"]["self_s"] == pytest.approx(1.0)
    assert tracer.COUNT_SPAN not in stats


def test_tracer_records_nested_calls_and_counts():
    t = tracer.Tracer()

    def inner(n):
        time.sleep(0.01)
        return list(range(n))

    inner = t.wrap("inner", inner, lambda a, r, o: {"items": len(r)})

    def outer():
        time.sleep(0.01)
        return inner(2) + inner(3)

    outer = t.wrap("outer", outer)
    assert outer() == [0, 1, 0, 1, 2]
    names = [(s[0], s[3]) for s in t.spans]
    assert names == [("outer", -1), ("inner", 0), (tracer.COUNT_SPAN, 0),
                     ("inner", 0), (tracer.COUNT_SPAN, 0)]
    stats = tracer.summarize(t.spans)
    assert stats["inner"]["calls"] == 2 and stats["inner"]["items"] == 5
    assert 0.005 < stats["outer"]["self_s"] < stats["inner"]["self_s"]


def _traced_sample(scale, layers):
    s = run.Sample(run.Request(("context",), 0), 0.07, 1.0, 1.0, 10.0, 0, b"")
    s.scale, s.wall, s.layers = scale, scale, layers
    return s


def test_per_layer_scales_times_and_refuses_unmeasured_metrics():
    traced = [[_traced_sample(2.0, {"cli.import_s": 0.25, "cli.run.self_s": 0.5,
                                    "cli.run.calls": 1}),
               _traced_sample(1.0, {"cli.import_s": 0.25, "cli.run.calls": 1})]]
    names = ["cli.import_s", "cli.run.self_s", "cli.run.calls", "trace.overhead_s"]
    plain = [[_traced_sample(1.0, {})]]
    metrics = run.per_layer(plain, traced, names)
    assert metrics == {"cli.import_s": 0.75, "cli.run.self_s": 1.0,
                       "cli.run.calls": 2, "trace.overhead_s": 2.0}
    with pytest.raises(ValueError, match="cli.render.bytes"):
        run.per_layer(plain, traced, names + ["cli.render.bytes"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    res = run.run_workload(workload, run.DEFAULT_SEED, 0, True, spec, run.load_golden())
    assert res["failed"] == 0  # includes traced stdout == untraced stdout
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    # Every layer's time is measured above zero on every workload; the
    # tracing overhead is a difference of two noisy pass times and may not be.
    times = [n for n in metrics if n.endswith("_s") and n != "trace.overhead_s"]
    assert [n for n in times if metrics[n] <= 0] == []
    if workload == "restrict":
        assert metrics["engine.euler_evaluate.zero_factor_entries"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_exits_as_expected(workload):
    golden = run.load_golden()
    env = run._env()
    for req in requests(workload, run.DEFAULT_SEED):
        _, _, _, code, out = run.spawn(run.PLAIN + list(req.argv), env)
        assert run.check(req, code, out, golden) is None, req.argv
        assert golden[run.key(req)] == hashlib.sha256(out).hexdigest()
