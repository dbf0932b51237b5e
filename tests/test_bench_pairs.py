"""The verdict lines of ``tools/bench_pairs.py`` on hand-made samples."""

import pytest

from bench_pairs import quartiles, verdict

# ten base runs: median 100, quartiles 98 and 102, a spread of 4
BASE = [96.0, 97.0, 98.0, 98.0, 99.0, 101.0, 102.0, 102.0, 103.0, 104.0]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles(BASE) == (98.0, 100.0, 102.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("shift, won, holds", [
    (-5.0, 9, True),    # nine tenths of the pairs, median past the spread of 4
    (-5.0, 8, False),   # too few pairs won
    (-3.0, 10, False),  # every pair won, but the median moves within the spread
    (-4.0, 10, False),  # a move of exactly the spread is not past it
])
def test_gain_rule_needs_nine_tenths_and_a_move_past_the_spread(shift, won, holds):
    line = verdict("wall_s", BASE, [v + shift for v in BASE], won, "lower")
    assert line.endswith("gain rule holds" if holds else "gain rule fails")
    assert f"change better in {won} of 10 pairs" in line


def test_gain_rule_reads_the_direction():
    # a count that should rise: the same numbers, mirrored
    assert verdict("agent_slots", BASE, [v + 5.0 for v in BASE], 10, "higher").endswith(
        "gain rule holds")
    assert verdict("agent_slots", BASE, [v - 5.0 for v in BASE], 10, "lower").endswith(
        "gain rule holds")
    assert verdict("agent_slots", BASE, [v - 5.0 for v in BASE], 10, "higher").endswith(
        "gain rule fails")


def test_fewer_than_ten_pairs_claim_no_gain():
    base = BASE[1:]
    line = verdict("wall_s", base, [v - 50.0 for v in base], 9, "lower")
    assert line.endswith("gain rule holds on 9 pairs, too few to claim a gain")
    assert "too few" not in verdict("wall_s", BASE, [v - 50.0 for v in BASE], 10, "lower")


@pytest.mark.parametrize("better, shift, word", [
    ("lower", 9.0, "within"), ("lower", 11.0, "past"), ("lower", -30.0, "within"),
    ("higher", -9.0, "within"), ("higher", -11.0, "past"), ("higher", 30.0, "within"),
])
def test_bound_line_in_both_directions(better, shift, word):
    # the bound is a fraction of the base's median, 10% of 100 here
    line = verdict("wall_s", BASE, [v + shift for v in BASE], 0, better, 0.1)
    assert line.endswith(f", {word} the 10% bound")
    assert "bound" not in verdict("wall_s", BASE, [v + shift for v in BASE], 0, better)
