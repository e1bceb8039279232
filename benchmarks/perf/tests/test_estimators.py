"""The estimators must return the clean value from a contaminated series."""

import numpy as np
import pytest

import estimators as est


def contaminated(rng, n: int, clean_ms: float, burst_ms: float) -> np.ndarray:
    """Latencies around ``clean_ms`` with the middle third hit by a burst."""
    values = clean_ms * (1.0 + 0.05 * rng.standard_normal(n))
    values[n // 3: 2 * n // 3] += burst_ms * rng.random(n // 3)
    return values


@pytest.mark.parametrize("q", [50, 95])
def test_block_percentile_ignores_a_contaminated_third(q):
    n = 12 * 200
    series = contaminated(np.random.default_rng(0), n, clean_ms=5.5, burst_ms=60.0)
    clean = contaminated(np.random.default_rng(0), n, clean_ms=5.5, burst_ms=0.0)
    want = est.block_percentile(clean, q, n_blocks=12)
    got = est.block_percentile(series, q, n_blocks=12)
    assert abs(got - want) / want < 0.02
    assert abs(want - np.percentile(clean, q)) / want < 0.02  # and it estimates the percentile
    # The whole-window percentile is what the burst ruins.
    assert np.percentile(series, 95) > 2 * want


@pytest.mark.parametrize("q", [50, 95])
def test_block_percentile_holds_where_the_median_over_blocks_breaks(q):
    # Bursts over 60 % of the run: more than half the blocks are hit, so the
    # median over blocks reads the burst; the quiet quartile still does not.
    n = 40 * 100
    rng = np.random.default_rng(2)
    clean = 5.5 * (1.0 + 0.05 * rng.standard_normal(n))
    series = clean.copy()
    hit = (np.arange(n) // 100) % 5 < 3  # blocks 0-2 of every five
    series[hit] += 60.0 * rng.random(hit.sum())
    want = est.block_percentile(clean, q, n_blocks=40)
    assert abs(est.block_percentile(series, q, n_blocks=40) - want) / want < 0.02
    assert np.median(est.block_percentiles(series, q, 40)) > 2 * want


def test_quiet_quartile_reads_one_mode_of_blocks_that_alternate():
    # Index-build blocks alternate between two allocator states from round
    # to round; whether 10 or 12 of 22 are fast, the quartile reads the same
    # mode, where the median flips between them.
    fast, slow = 37_500.0, 28_500.0
    mostly_fast = [fast] * 12 + [slow] * 10
    mostly_slow = [fast] * 10 + [slow] * 12
    assert est.quiet_quartile(mostly_fast, "higher") == est.quiet_quartile(mostly_slow, "higher") == fast
    assert np.median(mostly_fast) != np.median(mostly_slow)
    assert est.quiet_quartile([3.0, 1.0, 2.0, 4.0, 5.0]) == 2.0  # a time: the lower quartile


def test_block_share_ignores_a_contaminated_third():
    flags = np.ones(1200, dtype=bool)
    flags[400:800] = np.random.default_rng(1).random(400) > 0.6
    assert est.block_share(flags, 12) == 1.0


def test_split_blocks_equal_counts_and_remainder_dropped():
    blocks = est.split_blocks(np.arange(103), 10)
    assert [len(b) for b in blocks] == [10] * 10
    assert blocks[-1][-1] == 99
    with pytest.raises(ValueError):
        est.split_blocks(np.arange(5), 10)


def test_due_latency_counts_the_wait_a_stall_imposes():
    due = est.due_times(10.0, rate=100.0, n=5)
    assert np.allclose(np.diff(due), 0.01)
    # A 50 ms stall: every request is sent late but served in 1 ms.
    sent = np.full(5, 10.05)
    finished = sent + 0.001
    latency = est.due_latency(finished, due)
    assert latency[0] == pytest.approx(0.051)
    assert latency[-1] == pytest.approx(0.011)
    assert np.all(latency > finished - sent)  # send-time latency hides it
    assert est.generator_lag(sent, due, q=100) == pytest.approx(0.05)
    assert est.generator_lag(due - 0.001, due) == 0.0  # early is not late


def test_run_interleaved_is_round_robin():
    order = []
    tasks = {
        "a": lambda r: order.append(("a", r)) or 1.0,
        "b": lambda r: order.append(("b", r)) or 2.0,
    }
    rounds_seen = []
    values = est.run_interleaved(tasks, 3, before_round=rounds_seen.append)
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert values == {"a": [1.0] * 3, "b": [2.0] * 3}
    assert rounds_seen == [0, 1, 2]


def test_spread_matches_the_driver_formula():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert est.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_span_self_time_is_duration_minus_children():
    from spans import SpanRecorder

    recorder = SpanRecorder()
    with recorder.span("ignored"):  # disabled: nothing is kept
        pass
    assert recorder.spans == []
    recorder.enabled = True
    step = recorder.add("step", 0.0, 10.0, rid="r0")
    recorder.add("forward", 1.0, 4.0, parent=step, rid="r0")
    recorder.add("backward", 4.0, 9.0, parent=step, rid="r0")
    assert recorder.self_times() == {"step": 2.0, "forward": 3.0, "backward": 5.0}
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans[-2:]
    assert inner["parent"] == outer["id"] and outer["end"] >= inner["end"]
