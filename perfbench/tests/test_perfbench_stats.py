import pytest

from perfbench.stats import median, percentile, tail_percentile, worsened_by


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 50.0
    assert median(values) == 30.0
    assert percentile(values, 90) == pytest.approx(46.0)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # sorts its input
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (2400, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_worsening_follows_the_metric_direction():
    assert worsened_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsened_by(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert worsened_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worsened_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        worsened_by(1.0, 2.0, "sideways")


def test_an_improvement_is_never_a_regression():
    bound = 0.10
    assert worsened_by(100.0, 109.0, "lower") <= bound < worsened_by(100.0, 111.0, "lower")
    assert worsened_by(100.0, 50.0, "lower") <= bound
    assert worsened_by(100.0, 91.0, "higher") <= bound < worsened_by(100.0, 89.0, "higher")
    assert worsened_by(100.0, 500.0, "higher") <= bound
    assert worsened_by(0.0, 0.0, "lower") == 0.0
    assert worsened_by(0.0, 1.0, "lower") == float("inf")
