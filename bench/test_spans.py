"""Tests of the benchmark's span arithmetic and of the traced stage runner.

    python3 -m pytest -q bench/test_spans.py
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, covered, self_times, summarize  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


def test_self_time_is_span_minus_covering_children(tracer, clock):
    def child():
        clock.t += 2.0

    def parent():
        clock.t += 1.0
        traced_child()
        clock.t += 3.0

    traced_child = tracer.wrap(child, "child")
    tracer.wrap(parent, "parent")()
    spans = tracer.spans
    assert [(n, s, e, p) for n, s, e, p in spans] == [
        ("parent", 0.0, 6.0, -1), ("child", 1.0, 3.0, 0)]
    assert self_times(spans) == [4.0, 2.0]


def test_nested_grandchildren_are_not_subtracted_twice(tracer, clock):
    def leaf():
        clock.t += 1.0

    def middle():
        clock.t += 1.0
        traced_leaf()
        clock.t += 1.0

    def top():
        traced_middle()
        clock.t += 5.0

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(top, "top")()
    rows = summarize(tracer.spans)
    assert rows["top"]["total_s"] == 8.0
    assert rows["top"]["self_s"] == 5.0
    assert rows["middle"]["self_s"] == 2.0
    assert rows["leaf"]["self_s"] == 1.0


def test_repeated_children_add_up(tracer, clock):
    def child(dt):
        clock.t += dt

    def parent():
        for dt in (1.0, 2.0, 3.0):
            traced_child(dt)
            clock.t += 0.5

    traced_child = tracer.wrap(child, "child")
    tracer.wrap(parent, "parent")()
    rows = summarize(tracer.spans)
    assert rows["child"] == {"calls": 3, "total_s": 6.0, "max_s": 3.0,
                             "self_s": 6.0}
    assert rows["parent"]["total_s"] == 7.5
    assert rows["parent"]["self_s"] == 1.5


def test_overlapping_children_are_covered_once():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((5.0, 6.0), [(0.0, 1.0)]) == 0.0


def test_generator_is_timed_over_iteration_not_creation(tracer, clock):
    def read(n):
        for i in range(n):
            clock.t += 1.0
            yield i

    seen = []
    traced_read = tracer.wrap(
        read, "read", lambda t, args, kwargs, n: seen.append(n))
    gen = traced_read(3)
    clock.t += 100.0           # creating the generator does no work
    assert tracer.spans == []
    assert list(gen) == [0, 1, 2]
    clock.t += 50.0            # nor does anything after exhaustion
    assert tracer.spans == [("read", 100.0, 103.0, -1)]
    assert seen == [3]


def test_generator_span_is_a_sibling_of_work_between_items(tracer, clock):
    def read():
        for i in range(2):
            clock.t += 1.0
            yield i

    def consume(item):
        clock.t += 10.0

    traced_read = tracer.wrap(read, "read")
    traced_consume = tracer.wrap(consume, "consume")

    def stage():
        for item in traced_read():
            traced_consume(item)

    tracer.wrap(stage, "stage")()
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names == ["stage", "read", "consume", "consume"]
    assert all(parent == 0 for _, _, _, parent in spans[1:])
    # the read interval (0..22) encloses both consume spans: the stage
    # self time counts that interval once
    assert self_times(spans)[0] == 0.0


def test_span_closes_when_the_call_raises(tracer, clock):
    def boom():
        clock.t += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans == [("boom", 0.0, 1.0, -1)]

    def after():
        clock.t += 1.0

    tracer.wrap(after, "after")()
    assert tracer.spans[1][3] == -1   # the stack was unwound


def test_counters_add_and_peak(tracer):
    tracer.count("a")
    tracer.count("a", 4)
    tracer.peak("m", 3)
    tracer.peak("m", 2)
    assert tracer.counters == {"a": 5, "m": 3}


@pytest.mark.skipif(not os.path.isdir(os.path.join(SRC, "atrellis")),
                    reason="needs the atrellis source tree")
def test_traced_stage_runner_reaches_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    trace = str(tmp_path / "t.jsonl")

    results = []

    def stage(*args, traced="1"):
        out = str(tmp_path / f"result{len(results)}.json")
        results.append(out)
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "stage.py"),
                        out, traced, "--", *args], env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return json.load(fh)

    sim = stage("simulate", "--fixture", "plug", "--duration", "600",
                "--seed", "1", "-o", trace)
    prof = stage("profile", trace, "-o", str(tmp_path / "p.json"))
    plain = stage("profile", trace, "-o", str(tmp_path / "p2.json"),
                  traced="0")

    assert [r["rc"] for r in sim["runs"] + prof["runs"]] == [0, 0]
    assert {"cli.simulate", "synth_traffic.generate",
            "traffic_model.write"} <= set(sim["spans"])
    spans = prof["spans"]
    # read_packets_jsonl is bound in cli by a from-import: still traced
    assert spans["traffic_model.parse"]["calls"] == 1
    assert prof["counters"]["traffic_model.parse_pkts"] > 0
    assert spans["clustering_tree.insert"]["calls"] == \
        prof["counters"]["traffic_model.parse_pkts"]
    assert spans["clustering_tree.merge"]["calls"] == \
        prof["counters"]["clustering_tree.leaves"]
    stage_row = spans["cli.profile"]
    assert 0.0 <= stage_row["self_s"] <= stage_row["total_s"]
    assert stage_row["total_s"] == pytest.approx(prof["runs"][0]["wall_s"])
    assert "spans" not in plain
    with open(tmp_path / "p.json") as a, open(tmp_path / "p2.json") as b:
        assert a.read() == b.read()
