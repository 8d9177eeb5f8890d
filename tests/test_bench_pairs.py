"""The summary and verdict of ``tests/bench_pairs.py`` on synthetic runs."""

import pytest

from bench_pairs import quartiles, summary

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]


def test_quartiles_are_the_inclusive_ones():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_nine_wins_and_a_gap_past_the_parents_spread_are_a_gain():
    # the parent's quartiles are 11 and 13, so its spread is 2; the gap is 3
    change = [p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    s = summary(PARENT, change, "lower", 0.2)
    assert s["parent"] == (11.0, 12.0, 13.0)
    assert s["wins"] == 9
    assert s["verdict"] == "gain"


def test_eight_wins_are_no_gain():
    # the change's quartiles are 8 and 10.75: a spread of 23% of 12
    change = [p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    s = summary(PARENT, change, "lower", 0.25)
    assert (s["change"], s["wins"], s["verdict"]) == ((8.0, 9.0, 10.75), 8, "within bound")


def test_every_win_within_the_parents_spread_is_no_gain():
    s = summary(PARENT, [p - 1.0 for p in PARENT], "lower", 0.2)
    assert (s["wins"], s["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    assert summary(PARENT, list(PARENT), "lower", 0.2)["wins"] == 0


@pytest.mark.parametrize("shift, verdict", [(2.0, "within bound"), (3.0, "regression")])
def test_a_median_worse_by_more_than_the_bound_is_a_regression(shift, verdict):
    # the bound is relative: 20% of the parent's median 12 is 2.4
    s = summary(PARENT, [p + shift for p in PARENT], "lower", 0.2)
    assert s["verdict"] == verdict


@pytest.mark.parametrize(
    "parent, change",
    [
        (PARENT, list(PARENT)),
        # a tight parent does not resolve a change whose own runs spread wide
        ([12.0] * 10, PARENT),
    ],
)
def test_a_spread_wider_than_the_bound_is_unresolved(parent, change):
    # either side's spread, 2, is 17% of the parent's median 12
    assert summary(parent, change, "lower", 0.2)["verdict"] == "within bound"
    assert summary(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_a_wide_spread_resolves_when_every_change_run_beats_every_parent_run():
    # quartiles 10 and 13 around a median of 10: a spread of 30%, but every
    # change run is below every parent run; the gap 0.5 is no gain
    parent = [10.0] * 7 + [14.0] * 3
    s = summary(parent, [9.5] * 10, "lower", 0.2)
    assert (s["parent"], s["wins"], s["verdict"]) == ((10.0, 10.0, 13.0), 10, "within bound")


@pytest.mark.parametrize("shift, verdict", [(-0.02, "regression"), (0.0, "within bound")])
def test_higher_is_better_turns_the_comparison(shift, verdict):
    parent = [1.0] * 10
    s = summary(parent, [p + shift for p in parent], "higher", 0.01)
    assert s["verdict"] == verdict
    assert s["wins"] == 0


def test_higher_is_better_counts_higher_values_as_wins():
    parent = [0.9, 0.95, 0.9, 0.95, 0.9, 0.95, 0.9, 0.95, 0.9, 0.95]
    s = summary(parent, [1.0] * 10, "higher", 0.01)
    assert (s["wins"], s["verdict"]) == (10, "gain")
