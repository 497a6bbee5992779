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


def test_append_rejects_negative_and_nan_elapsed(tmp_path):
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceLog().append(bad, 3)
        log = make_log([(1.0, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            log.append(bad, 3)
        assert log.points == [(1.0, 2)]
    # a NaN line in a log file is refused on read, rather than loaded
    # into a log whose time_to_size would answer NaN
    path = tmp_path / "log.csv"
    path.write_text("# instance=g algorithm=a seed=0\nnan,3\n")
    with pytest.raises(ValueError, match="nonnegative"):
        read_log(path)


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


HEADER = "# instance=g algorithm=a seed=0\n"

LOG_ERRORS = [
    ("bad-elapsed", HEADER + "abc,3\n", ":2: bad elapsed time 'abc'"),
    ("missing-comma", "0.5\n", ":1: expected 'elapsed,size', got '0.5'"),
    ("empty-size", HEADER + "0.5,\n", ":2: bad size ''"),
    ("fractional-size", HEADER + "0.5,3.5\n", ":2: bad size '3.5'"),
    ("bad-seed", "# instance=g algorithm=a seed=x\n1.0,3\n", ":1: bad seed 'x'"),
    ("negative-elapsed", HEADER + "-1.0,3\n", ":2: elapsed must be nonnegative"),
    ("nan-elapsed", HEADER + "nan,3\n", ":2: elapsed must be nonnegative"),
    ("time-goes-back", HEADER + "1.0,3\n0.5,4\n", ":3: elapsed times must be nondecreasing"),
    ("size-repeats", HEADER + "1.0,3\n2.0,3\n", ":3: sizes must be strictly increasing"),
    ("counts-blank-and-comment-lines", "# c\n\n1.0,3\n  \nx,4\n", ":5: bad elapsed time 'x'"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in LOG_ERRORS],
                         ids=[case[0] for case in LOG_ERRORS])
def test_read_log_error_contract(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_log(path)
    assert str(info.value) == f"{path}{message}"


def test_csv_header_keeps_names_with_whitespace(tmp_path):
    log = ConvergenceLog(algorithm="online mis", seed=3, instance="my graph.metis")
    log.append(0.5, 7)
    path = tmp_path / "log.csv"
    write_log(log, path)
    back = read_log(path)
    assert (back.instance, back.algorithm, back.seed) == ("my graph.metis", "online mis", 3)
    # plain names are written as they are
    log = ConvergenceLog(algorithm="kermis", seed=1, instance="pa100k")
    write_log(log, path)
    assert path.read_text().splitlines()[0] == "# instance=pa100k algorithm=kermis seed=1"
