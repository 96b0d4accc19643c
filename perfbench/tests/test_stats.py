import random

import pytest

import stats


def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(1, 31))
    random.Random(0).shuffle(xs)
    value, pct = stats.tail(xs)
    assert value == 20
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_is_the_highest_such_percentile():
    xs = [float(x) for x in range(100)]
    value, pct = stats.tail(xs)
    # the next sample up would leave only nine beyond it
    assert sum(x > value for x in xs) == 10
    assert value == 89.0 and pct == pytest.approx(90.0)


def test_tail_at_eleven_samples_uses_the_smallest():
    value, pct = stats.tail([5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11])
    assert value == 1
    assert pct == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.tail(list(range(10))) == (9, 100.0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_spearman_with_ties_and_centering():
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert stats.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert stats.spearman([1, 2, 3], [5, 5, 5]) == 0.0
    # average ranks for the tie: x ranks 1, 2.5, 2.5, 4
    assert stats.spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
        0.9486832980505138)
    # two histories with a large speed offset: centring per history
    # leaves the within-history trend
    cs = [0.1, 0.3, 0.5, 0.2, 0.4, 0.6]
    values = [10.0, 9.0, 8.0, 1.0, 0.5, 0.0]
    groups = ["a", "a", "a", "b", "b", "b"]
    centred = stats.centered_by_group(values, groups)
    assert centred.tolist() == [1.0, 0.0, -1.0, 0.5, 0.0, -0.5]
    raw = stats.spearman(cs, values)
    assert raw == pytest.approx(-5 / 7)
    assert stats.spearman(cs, centred) < -0.9 < raw
