"""The one nearest-rank percentile helper behind every report."""

from repro.obs import percentile


def test_empty_samples_read_zero():
    assert percentile([], 0.5) == 0.0


def test_single_sample_is_every_percentile():
    assert percentile([7.5], 0.0) == 7.5
    assert percentile([7.5], 0.5) == 7.5
    assert percentile([7.5], 0.99) == 7.5


def test_nearest_rank_p50_and_p99():
    samples = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    assert percentile(samples, 0.50) == 51.0
    assert percentile(samples, 0.99) == 99.0
    assert percentile(samples, 1.0) == 100.0
