"""The counter-based seeded random stream."""
import numpy as np
import pytest

from gdakit.core import ParameterError, RngStream


def test_same_key_same_stream():
    a = RngStream(123, stream_id=5).gauss(32, 1.0)
    b = RngStream(123, stream_id=5).gauss(32, 1.0)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(123, stream_id=0).gauss(32, 1.0)
    b = RngStream(123, stream_id=1).gauss(32, 1.0)
    assert not np.array_equal(a, b)


def test_gauss_std_zero_is_free():
    # zero-noise draws must not consume stream state
    rng = RngStream(11, stream_id=0)
    z = rng.gauss(5, 0.0)
    assert np.array_equal(z, np.zeros(5))
    after = rng.gauss(5, 1.0)
    assert np.array_equal(after, RngStream(11, stream_id=0).gauss(5, 1.0))


def test_gauss_second_moment_within_3_se():
    rng = RngStream(42, stream_id=1)
    dim, n, std = 8, 10**5, 1.7
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        v = rng.gauss(dim, std)
        s = float(v @ v) / dim
        total += s
        total_sq += s * s
    mean = total / n
    se = np.sqrt(max(total_sq / n - mean**2, 0.0) / n)
    assert abs(mean - std**2) <= 3 * se


def test_bernoulli_rate_within_3_se():
    rng = RngStream(3, stream_id=2)
    n, p = 10**5, 0.25
    hits = sum(rng.bernoulli(p) for _ in range(n))
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_gauss_rejects_negative_std():
    rng = RngStream(0)
    with pytest.raises(ParameterError):
        rng.gauss(3, -1.0)
