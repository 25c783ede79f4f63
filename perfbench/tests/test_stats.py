import pytest

from perfbench.stats import percentile, samples_beyond, spread, tail


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([3.0], 0.99) == 3.0
    assert percentile(list(reversed(values)), 0.9) == 90
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert tail(list(range(100)), 0.9) == 89
    assert tail(list(range(99)), 0.9) is None
    assert samples_beyond(1000, 0.99) == 10
    assert tail(list(range(1000)), 0.99) == 989
    assert tail(list(range(999)), 0.99) is None
    assert tail(list(range(20)), 0.5) == 9
    assert tail(list(range(19)), 0.5) is None


def test_spread_is_interquartile_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


def test_end_to_end_takes_medians_over_repetitions():
    from perfbench.harness import Phase, Sample
    from perfbench.report import end_to_end
    from perfbench.run import repetitions

    assert repetitions(40) == [10.0] * 4
    assert repetitions(5) == [5.0]

    def rep(n, latency, wall):
        return Phase([Sample("insert", latency, None, 1) for _ in range(n)], wall)

    reps = [(rep(100, 0.002, 1.0), 40.0), (rep(300, 0.001, 1.0), 50.0),
            (rep(200, 0.004, 2.0), 45.0)]
    metrics = end_to_end([0.5, 0.7, 0.6], reps)
    assert metrics["setup_s"][0] == 0.6
    assert metrics["throughput_rps"] == (100.0, "req/s", 600)
    assert metrics["records_per_s"][0] == 100.0
    assert metrics["latency_p50_ms"][0] == pytest.approx(2.0)
    assert metrics["server_rss_mb"] == (45.0, "MB", 3)
