"""Unit tests of the ledger's own arithmetic (no workload is run here).

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json

import pytest

from . import compare, metrics, stats, streams
from .trace import Recorder, Span


# -- span recorder: self time = busy - child cover --------------------------------------

def _recorder(*spans: Span) -> Recorder:
    recorder = Recorder("test")
    recorder.spans.extend(spans)
    return recorder


def test_self_time_of_nested_spans():
    recorder = _recorder(
        Span("root", 0.0, 10.0, None),
        Span("child", 2.0, 7.0, 0),
        Span("grandchild", 3.0, 4.0, 1),
    )
    assert recorder.self_times() == {"root": 5.0, "child": 4.0, "grandchild": 1.0}
    assert sum(recorder.self_times().values()) == 10.0


def test_self_time_of_sibling_spans():
    recorder = _recorder(
        Span("root", 0.0, 10.0, None),
        Span("layer", 1.0, 3.0, 0),
        Span("layer", 5.0, 6.0, 0),
        Span("other", 6.0, 9.0, 0),
    )
    assert recorder.self_times() == {"root": 4.0, "layer": 3.0, "other": 3.0}


def test_overlapping_siblings_cover_their_union_once():
    recorder = _recorder(
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 8.0, 0),
    )
    assert recorder.self_times()["root"] == pytest.approx(3.0)


def test_hot_span_covers_the_sum_of_its_calls_not_its_interval():
    recorder = Recorder("test")
    root = recorder.begin("chunk")
    recorder.spans[root].start = 0.0
    for start in (1.0, 3.0, 5.0):
        recorder.hot("execute", start, start + 0.5)
        recorder.hot("classify", start + 0.5, start + 1.5)
    recorder._stack.pop()
    recorder.spans[root].end = 10.0
    times = recorder.self_times()
    assert times == {"chunk": pytest.approx(5.5), "execute": pytest.approx(1.5),
                     "classify": pytest.approx(3.0)}
    assert recorder.totals()["execute"] == (pytest.approx(1.5), 3)
    assert len(recorder.spans) == 3         # one aggregate per (chunk, layer)


def test_sampled_hot_calls_are_scaled_by_their_weight():
    recorder = Recorder("test")
    recorder.hot("pickle", 0.0, 0.25, weight=8)
    assert recorder.totals()["pickle"] == (2.0, 8)


def test_self_times_can_be_restricted_to_one_phase():
    recorder = _recorder(
        Span("cold", 0.0, 4.0, None),
        Span("commit", 1.0, 2.0, 0),
        Span("rerun", 4.0, 6.0, None),
        Span("load", 4.5, 5.5, 2),
    )
    assert recorder.self_times(0) == {"cold": 3.0, "commit": 1.0}
    assert recorder.self_times(2) == {"rerun": 1.0, "load": 1.0}


def test_spans_round_trip_to_jsonl(tmp_path):
    recorder = Recorder("workload/seed7")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert rows[1]["parent"] == 0 and rows[0]["parent"] is None
    assert {row["trace"] for row in rows} == {"workload/seed7"}
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]


# -- stream generator -------------------------------------------------------------------

def test_streams_are_a_pure_function_of_seed_and_index():
    assert streams.zipf_tokens(42, 3) == streams.zipf_tokens(42, 3)
    assert streams.zipf_tokens(42, 3) != streams.zipf_tokens(43, 3)
    assert streams.zipf_tokens(42, 3) != streams.zipf_tokens(42, 4)


def test_stream_shape():
    shape = streams.StreamShape()
    tokens = streams.zipf_tokens(7, 0, shape)
    data = [token for token in tokens if token[0] in "rw"]
    terminals = [token for token in tokens if token[0] in "ac"]
    assert len(data) == shape.transactions * shape.ops_per_transaction
    assert len(terminals) <= shape.transactions      # stalled ones never end
    assert len(set(terminals)) == len(terminals)     # one terminal each


def test_endless_stream_continues_the_same_law():
    source = streams.endless_tokens(7, 1)
    first = [next(source) for _ in range(500)]
    again = streams.endless_tokens(7, 1)
    assert first == [next(again) for _ in range(500)]


def test_multiplex_keeps_each_stream_in_order_on_one_connection():
    requests = [streams.stream_requests(f"s{i}", streams.zipf_tokens(1, i), 8)
                for i in range(7)]
    plans = streams.multiplex(requests, connections=2, window=3)
    assert sum(map(len, plans)) == sum(map(len, requests))
    for index, stream in enumerate(requests):
        plan = plans[index % 2]
        assert [r for r in plan if r.stream == f"s{index}"] == stream
    # Round-robin: the first turn sends one request of each open stream.
    assert [r.stream for r in plans[0][:3]] == ["s0", "s2", "s4"]


# -- percentile rule --------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5, 0.5), (19, 0.5), (20, 0.5), (100, 0.9), (999, 0.9), (1000, 0.99),
    (9_999, 0.99), (10_000, 0.999), (100_000, 0.9999),
])
def test_highest_percentile_with_ten_samples_beyond_it(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    series = list(range(1, 1001))
    assert stats.percentile(series, 0.5) == 500
    assert stats.percentile(series, 0.99) == 990
    assert stats.percentile(series, 0.999) == 999
    assert stats.samples_beyond(1000, 0.99) == 10


def test_an_unsupported_tail_falls_back_to_the_highest_supported_one():
    series = list(range(1, 1001))
    assert stats.tail(series, 0.99) == 990          # 10 samples beyond: supported
    assert stats.tail(series, 0.999) == 990         # 1 beyond: reported at p99
    assert stats.tail(series[:50], 0.99) == 25      # nothing but the median


def test_spread_is_the_drivers_rule():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    import statistics
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((third - first) / statistics.median(values))
    assert stats.spread([5.0]) == 0.0


# -- compare ----------------------------------------------------------------------------

def _result_set(wall, failed=0, fingerprint="abc", seed=42, workload="explore_sparse"):
    return {"seed": seed, "workloads": {workload: {
        "attempted": 100, "failed": failed, "fingerprint": fingerprint,
        "samples": {"wall_s": list(wall),
                    "throughput_per_s": [1000.0 / value for value in wall]}}}}


def _overall(baseline, candidate):
    return compare.worst(row["verdict"] for row in compare.judge(baseline, candidate))


BOUND = metrics.bound_for("wall_s")
STEADY = [10.0, 10.1, 9.9, 10.0]


def _scaled(series, factor):
    return [value * factor for value in series]


def test_compare_clear_within_the_bound():
    assert _overall(_result_set(STEADY),
                    _result_set(_scaled(STEADY, 1 + BOUND / 4))) == compare.CLEAR


def test_compare_suspicious_when_the_spread_exceeds_the_bound():
    noisy = _result_set([10.0, 10.0 * (1 + BOUND), 10.0 * (1 - BOUND), 10.4])
    assert _overall(_result_set(STEADY), noisy) == compare.SUSPICIOUS
    # ... unless every candidate run beats every baseline run.
    assert _overall(noisy, _result_set(_scaled(STEADY, 0.5))) == compare.CLEAR


def test_compare_anomaly_when_worse_than_the_bound():
    rows = compare.judge(_result_set(STEADY),
                         _result_set(_scaled(STEADY, 1 + 2 * BOUND)))
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["wall_s"] == compare.ANOMALY
    assert verdicts["throughput_per_s"] == compare.ANOMALY


def test_compare_anomaly_on_failed_checks_or_changed_fingerprint():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert _overall(_result_set(steady), _result_set(steady, failed=1)) == compare.ANOMALY
    assert _overall(_result_set(steady),
                    _result_set(steady, fingerprint="xyz")) == compare.ANOMALY
    # Another seed is another input: its fingerprint is expected to differ.
    assert _overall(_result_set(steady),
                    _result_set(steady, fingerprint="xyz", seed=43)) == compare.CLEAR


def test_compare_any_drop_of_max_rate_ok_is_a_regression():
    def rates(*values):
        return {"seed": 1, "workloads": {"certify_tcp": {
            "attempted": 1, "failed": 0, "fingerprint": None,
            "samples": {"max_rate_ok": list(values)}}}}
    assert _overall(rates(2000, 2000, 2000), rates(2000, 2000, 2000)) == compare.CLEAR
    assert _overall(rates(2000, 2000, 2000), rates(1000, 1000, 1000)) == compare.ANOMALY


def test_compare_anomaly_when_the_candidate_lacks_a_workload_or_a_metric():
    both = _result_set(STEADY)
    both["workloads"]["certify_tcp"] = _result_set(STEADY)["workloads"]["explore_sparse"]
    rows = compare.judge(both, _result_set(STEADY))
    assert [(row["workload"], row["verdict"]) for row in rows
            if "missing" in row["metric"]] == [("certify_tcp", compare.ANOMALY)]
    lacking = _result_set(STEADY)
    del lacking["workloads"]["explore_sparse"]["samples"]["throughput_per_s"]
    assert _overall(_result_set(STEADY), lacking) == compare.ANOMALY
    assert _overall(lacking, _result_set(STEADY)) == compare.CLEAR


# -- every layer metric of the manifest says what it should move ------------------------

def test_every_per_layer_metric_names_what_it_should_move():
    assert set(metrics.SHOULD_MOVE) == set(metrics.PER_LAYER)
    assert set(metrics.WORKLOAD_END_TO_END) <= set(metrics.PER_LAYER)
    assert metrics.MANIFEST["paths"] == ["benchmarks/ledger"]
