"""Smoke test of tools/bitwise_digest.py: its digests repeat run to run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitwise_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitwise_digest", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digests_repeat_and_diff_finds_a_change(tmp_path):
    tool = load_tool()
    rounds = [{"lr": 1e-2, "steps": 20, "omega": 3}, {"lr": 5e-3, "steps": 20, "omega": 5}]
    runs = []
    for i in range(2):
        digests = tool.collect(["ood", "modes", "passes"], tmp_path / str(i))
        digests.update(tool.regression_digests("manual", [2, 3, 1], rounds, 64, 1, "manual"))
        runs.append(digests)
    assert tool.diff(*runs) == []
    assert {"ood/flat/7/fit/flat_7.json", "ood/gauss/200/score/gauss_200_scores.csv",
            "ood/ties/1/score_hist_msp", "modes/edge/relative/greville/L0/a",
            "modes/max/fixed/exact_lsq/adapt_events", "passes/kan_wide/backward_jvp/gXdot",
            "passes/linear/backward_sparse/L0/coef", "manual/params",
            "manual/L1/counts"} <= runs[0].keys()
    changed = {**runs[1], "manual/params": "0" * 64}
    del changed["manual/history"]
    assert tool.diff(runs[0], changed) == ["manual/history", "manual/params"]
