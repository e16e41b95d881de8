"""The verdict rule of tools/bench_pairs.py on hand-made paired values."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# parent values with median 100 and inclusive quartiles 99.25 and 100.75
# (IQR 1.5)
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("change, better, pairs, expected", [
    # wins all 10 pairs and gains far more than the IQR; either direction
    ([2 * v for v in PARENT], "higher", 10, "claimed"),
    ([v / 2 for v in PARENT], "lower", 10, "claimed"),
    # gains 3 > IQR 1.5 on every pair but one: 9 of 10 still claims
    ([v + 3 for v in PARENT[:9]] + [90.0], "higher", 10, "claimed"),
    # 8 of 10 wins is not a claim, however large the gain
    ([2 * v for v in PARENT[:8]] + [50.0, 50.0], "higher", 10, "within bound"),
    # wins every pair but by less than the parent's IQR
    ([v + 1 for v in PARENT], "higher", 10, "within bound"),
    # 9 pairs are too few to claim
    ([2 * v for v in PARENT[:9]], "higher", 9, "within bound"),
    # 30% fewer per second, or 30% more seconds, against a 25% bound
    ([0.7 * v for v in PARENT], "higher", 10, "worse than bound"),
    ([1.3 * v for v in PARENT], "lower", 10, "worse than bound"),
    # 20% worse stays within the bound
    ([0.8 * v for v in PARENT], "higher", 10, "within bound"),
    # the change's own runs spread over more than the bound
    ([60.0, 140.0] * 5, "higher", 10, "unresolved"),
    ([103.0, 170.0] * 4 + [50.0, 50.0], "higher", 10, "unresolved"),
    # a wide spread does not stop a claim that meets the rule
    ([103.0, 170.0] * 5, "higher", 10, "claimed"),
])
def test_verdict_rule(change, better, pairs, expected):
    tool = load_tool()
    out = tool.verdict(PARENT[:pairs], change, better, 0.25)
    assert out["verdict"] == expected
    assert out["pairs"] == pairs


def test_spread_of_a_change_better_on_every_run_is_resolved():
    # the parent spreads over twice the bound and the gain of 51 is below its
    # IQR of 100, so no claim; but every change run reads above every parent
    # run, so the spread leaves nothing unresolved
    parent = [50.0] * 5 + [150.0] * 5
    tool = load_tool()
    assert tool.verdict(parent, [151.0] * 10, "higher", 0.25)["verdict"] == "within bound"
    assert tool.verdict(parent, [149.0] * 10, "higher", 0.25)["verdict"] == "unresolved"


def test_more_failures_forbid_a_claim():
    out = load_tool().verdict(PARENT, [2 * v for v in PARENT], "higher", 0.25, fails_more=True)
    assert out["verdict"] == "within bound"


def test_verdict_summary_fields():
    out = load_tool().verdict(PARENT, [v + 1 for v in PARENT], "higher", 0.25)
    parent = out["parent"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (99.25, 100, 100.75)
    assert out["parent_iqr_rel"] == 0.015
    assert out["change_wins"] == 10
    assert out["change"]["median"] == 101
