"""Tests of the benchmark harness itself: span arithmetic, binding
restoration, failure accounting and workload routing."""

import sys

import pytest

import choreswap
import harness
from spans import ROOT, Tracer


def test_self_time_of_synthetic_span_tree():
    t = Tracer()
    t.names = ["op", "a", "b"]
    # op [0, 100) holds a [10, 60) and b [70, 90); a holds b [20, 30).
    for nid, parent, start, end in [
        (0, ROOT, 0, 100),
        (1, 0, 10, 60),
        (2, 1, 20, 30),
        (2, 0, 70, 90),
    ]:
        t.name_id.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    assert t.self_ns() == [30, 40, 10, 20]
    assert t.totals() == {"op": (1, 30), "a": (1, 40), "b": (2, 30)}


def _choreswap_bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "choreswap" or name.startswith("choreswap."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_binding():
    before = _choreswap_bindings()
    wl = harness.WORKLOADS["small-m-framework"]
    tracer = Tracer()
    with tracer.installed(harness.probes()):
        assert choreswap.framework.hat_d is not before[("choreswap.framework", "hat_d")]
        stats = harness.measure(wl, [harness.make_round(wl, 3, 0)], 0, tracer=tracer)
    after = _choreswap_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert stats.attempted == len(wl.shapes)
    totals = tracer.totals()
    # Calls made inside the package reach the wrappers too.
    assert totals["model.bundle_disutility"][0] > 0
    assert totals["fairness.efx_factor"][0] == 2 * stats.attempted


def test_raising_op_counts_as_failed(monkeypatch):
    wl = harness.WORKLOADS["pef1-general"]
    real = harness.run_op
    calls = []

    def flaky(wl, payload):
        calls.append(payload)
        if len(calls) % 3 == 0:
            raise ValueError("injected")
        return real(wl, payload)

    monkeypatch.setattr(harness, "run_op", flaky)
    stats = harness.measure(wl, [harness.make_round(wl, 1, 0)], 0)
    assert stats.attempted == len(calls) == len(wl.shapes)
    assert stats.failed == len(wl.shapes) // 3
    assert len(stats.ok_ns) == stats.attempted - stats.failed
    assert len(stats.op_ns) == stats.attempted
    assert stats.wrong == 0
    assert stats.failures[0]["error"] == "ValueError: injected"


def test_wrong_output_is_failed_not_dropped(monkeypatch):
    wl = harness.WORKLOADS["pef1-general"]
    monkeypatch.setattr(harness, "check", lambda *a: ("injected", "", None))
    stats = harness.measure(wl, [harness.make_round(wl, 1, 0)], 0)
    assert stats.failed == stats.wrong == stats.attempted == len(wl.shapes)
    with pytest.raises(RuntimeError):
        harness.end_to_end(wl, stats, 0.1)


def test_repeated_passes_count_each_case_once(monkeypatch):
    wl = harness.WORKLOADS["pef1-general"]
    corpus = [harness.make_round(wl, 1, 0)]
    bad = corpus[0][1].text
    real = harness.run_op

    def fails_on_one(wl, payload):
        if payload == bad:
            raise ValueError("injected")
        return real(wl, payload)

    monkeypatch.setattr(harness, "run_op", fails_on_one)
    once = harness.measure(wl, corpus, 0)
    thrice = harness.measure(wl, corpus, 0, min_rounds=3)
    assert (thrice.attempted, thrice.failed) == (once.attempted, once.failed) == (len(wl.shapes), 1)
    assert thrice.digest.hexdigest() == once.digest.hexdigest()
    assert len(thrice.op_ns) == 3 * len(wl.shapes)
    assert len(thrice.ok_ns) == 3 * (len(wl.shapes) - 1)
    assert thrice.unstable == 0


def test_repeat_that_changes_outcome_is_unstable(monkeypatch):
    wl = harness.WORKLOADS["pef1-general"]
    corpus = [harness.make_round(wl, 1, 0)]
    real = harness.run_op
    calls = []

    def fails_on_repeat(wl, payload):
        calls.append(payload)
        if len(calls) > len(wl.shapes):
            raise ValueError("injected")
        return real(wl, payload)

    monkeypatch.setattr(harness, "run_op", fails_on_repeat)
    stats = harness.measure(wl, corpus, 0, min_rounds=2)
    assert (stats.attempted, stats.failed) == (len(wl.shapes), 0)
    assert stats.unstable == len(wl.shapes)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_shapes_route_to_their_pipeline(name):
    wl = harness.WORKLOADS[name]
    cases = harness.make_round(wl, seed=7, r=0)  # raises RoutingError on a misroute
    assert [(c.n, c.m, c.k) for c in cases] == list(wl.shapes)
    assert cases == harness.make_round(wl, seed=7, r=0)
    if wl.method != harness.ORACLE:
        assert {harness.route(choreswap.parse_instance(c.text)) for c in cases} == {wl.method}


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 501))
    assert harness.tail(values, 99.0) == (90.0, 450 / 1e6, 50)
    assert harness.tail(list(range(1, 2001)), 99.0) == (99.0, 1980 / 1e6, 20)
