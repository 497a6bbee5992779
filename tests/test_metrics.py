import math
import random

import pytest
from hypothesis import given, strategies as st

from fastmis.metrics import (
    ConvergenceLog,
    max_speedup,
    read_log,
    time_to_size,
    write_log,
)


def make_log(points, instance="g", algorithm="a", seed=0):
    log = ConvergenceLog(algorithm=algorithm, seed=seed, instance=instance)
    for t, s in points:
        log.append(t, s)
    return log


def random_log(rng, instance="g"):
    points = []
    t, s = 0.0, 0
    for _ in range(rng.randrange(1, 8)):
        t += rng.uniform(0.0, 3.0)
        s += rng.randrange(1, 5)
        points.append((t, s))
    return make_log(points, instance=instance)


def test_append_enforces_monotonicity():
    log = ConvergenceLog()
    log.append(1.0, 5)
    with pytest.raises(ValueError):
        log.append(0.5, 6)
    with pytest.raises(ValueError):
        log.append(2.0, 5)
    log.append(2.0, 6)


def test_time_to_size_examples():
    log = make_log([(1.0, 5), (3.0, 9)])
    assert time_to_size(log, 9) == 3.0
    assert time_to_size(log, 10) is None
    assert time_to_size(log, 0) == 1.0


def test_max_speedup_worked_examples():
    base = make_log([(1.0, 10)])
    other = make_log([(5.0, 10)])
    assert max_speedup(base, other) == 5.0
    never = make_log([(2.0, 9)])
    assert math.isinf(max_speedup(base, never))
    assert max_speedup(base, base) == 1.0


def test_max_speedup_mismatched_instances_rejected():
    with pytest.raises(ValueError):
        max_speedup(make_log([(1, 1)], instance="x"),
                    make_log([(1, 1)], instance="y"))


def test_max_speedup_self_is_one_on_randoms():
    rng = random.Random(13)
    for _ in range(100):
        log = random_log(rng)
        assert max_speedup(log, log) == 1.0


def test_max_speedup_zero_time_base():
    base = make_log([(0.0, 4)])
    slower = make_log([(2.0, 4)])
    assert math.isinf(max_speedup(base, slower))
    assert max_speedup(base, make_log([(0.0, 4)])) == 1.0


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8))
def test_time_to_size_monotone_in_target(targets):
    log = make_log([(1.0, 3), (2.0, 7), (4.0, 11)])
    times = [time_to_size(log, t) for t in sorted(targets)]
    cleaned = [t if t is not None else math.inf for t in times]
    assert cleaned == sorted(cleaned)


def test_csv_round_trip(tmp_path):
    rng = random.Random(21)
    for i in range(20):
        log = random_log(rng, instance=f"inst{i}")
        log.algorithm = "kermis"
        log.seed = i
        path = tmp_path / f"log{i}.csv"
        write_log(log, path)
        back = read_log(path)
        assert [s for _, s in back.points] == [s for _, s in log.points]
        for (got_t, _), (want_t, _) in zip(back.points, log.points):
            assert got_t == pytest.approx(want_t, abs=1e-6)
        assert (back.instance, back.algorithm, back.seed) == (
            log.instance, log.algorithm, log.seed)
