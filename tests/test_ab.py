"""scripts/ab.py's summary of parent/change pairs, on made-up run results."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = [{"name": "time_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.1}]


def _result(time_s, rate, failed=0, attempted=10, correct=None):
    correct = failed == 0 if correct is None else correct
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"time_s": {"value": time_s, "unit": "s"},
                        "rate": {"value": rate, "unit": "1"}}}


def _pairs(parent, change, failed=(0, 0), correct=(None, None)):
    """One pair per (parent, change) value, the same value for both metrics."""
    return [{"parent": _result(p, p, failed[0], correct=correct[0]),
             "change": _result(c, c, failed[1], correct=correct[1])}
            for p, c in zip(parent, change)]


def test_medians_quartiles_and_counts():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    out = ab.summarize(_pairs(parent, [0.5, 2.5, 2.0, 4.0, 4.5], failed=(1, 0)), SPEC)
    assert out["pairs"] == 5
    t = out["time_s"]
    assert t["parent_median"] == 3.0 and t["parent_quartiles"] == [2.0, 4.0]
    assert t["change_median"] == 2.5
    # lower is better: the change won pairs 0, 2 and 4; pair 3 is a tie
    assert t["change_better"] == 3
    # higher is better: only pair 1 goes the change's way
    assert out["rate"]["change_better"] == 1
    assert t["values"]["parent"] == parent
    assert out["failed"] == {"parent": 5, "change": 0}
    assert out["attempted"] == {"parent": 50, "change": 50}
    assert out["incorrect"] == {"parent": 5, "change": 0}


@pytest.mark.parametrize("parent, change, time_verdict, rate_verdict", [
    # a tight spread and equal medians
    ([1.0, 1.01, 0.99, 1.0], [1.0, 1.0, 1.01, 0.99], "same", "same"),
    # 40% slower: worse for lower-is-better, better for higher-is-better
    ([1.0, 1.01, 0.99, 1.0], [1.4, 1.41, 1.39, 1.4], "worse", "better"),
    # a spread wider than either bound: unresolved
    ([0.5, 1.0, 1.5, 2.0], [0.6, 1.1, 1.4, 2.1], "unresolved", "unresolved"),
    # just as wide, but every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.9], "better", "unresolved"),
])
def test_verdicts(parent, change, time_verdict, rate_verdict):
    out = ab.summarize(_pairs(parent, change), SPEC)
    assert out["time_s"]["verdict"] == time_verdict
    assert out["rate"]["verdict"] == rate_verdict


def test_better_needs_nine_pairs_in_ten():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5, 1.5]
    t = ab.summarize(_pairs(parent, change), SPEC)["time_s"]
    assert t["change_better"] == 8 and t["verdict"] == "same"
    t = ab.summarize(_pairs(parent, [0.5] * 9 + [1.5]), SPEC)["time_s"]
    assert t["change_better"] == 9 and t["verdict"] == "better"


@pytest.mark.parametrize("side", [0, 1])
def test_an_incorrect_run_leaves_every_metric_unresolved(side):
    # the change is clearly faster, but one side's runs were marked incorrect
    # (a failed solve or nondeterministic exact counts)
    correct = [None, None]
    correct[side] = False
    out = ab.summarize(_pairs([1.0] * 10, [0.5] * 10, correct=tuple(correct)), SPEC)
    assert out["incorrect"][ab.SIDES[side]] == 10
    assert out["time_s"]["verdict"] == "unresolved"
    assert out["rate"]["verdict"] == "unresolved"


def test_better_needs_no_more_failed_solves():
    # counts alone, with every run marked correct, to isolate the failed rule
    runs = _pairs([1.0] * 10, [0.5] * 10, failed=(0, 1), correct=(True, True))
    out = ab.summarize(runs, SPEC)
    assert out["failed"] == {"parent": 0, "change": 10}
    assert out["time_s"]["change_better"] == 10 and out["time_s"]["verdict"] == "same"
    runs = _pairs([1.0] * 10, [0.5] * 10, failed=(1, 1), correct=(True, True))
    assert ab.summarize(runs, SPEC)["time_s"]["verdict"] == "better"


def _layers(**values):
    units = {"factor.attempts": "count", "krylov.iterations": "count",
             "factor.attempt_s": "s", "factor.alpha": "1"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def test_layer_summary_names_the_counts_that_differ():
    parent = _layers(**{"factor.attempts": 13, "krylov.iterations": 80,
                        "factor.attempt_s": 0.5, "factor.alpha": 0.1})
    # times and ratios may move; only count metrics are compared
    change = _layers(**{"factor.attempts": 13, "krylov.iterations": 81,
                        "factor.attempt_s": 0.4, "factor.alpha": 0.2})
    out = ab.layer_summary(parent, change)
    assert out["count_diffs"] == ["krylov.iterations"]
    assert out["parent"]["krylov.iterations"] == 80 and out["change"]["krylov.iterations"] == 81
    assert out["units"]["factor.attempt_s"] == "s"
    assert ab.layer_summary(parent, parent)["count_diffs"] == []


def test_layer_summary_counts_a_metric_one_side_lacks():
    parent = _layers(**{"factor.attempts": 13, "factor.attempt_s": 0.5})
    change = _layers(**{"factor.attempts": 13, "krylov.iterations": 0})
    out = ab.layer_summary(parent, change)
    assert out["count_diffs"] == ["krylov.iterations"]
    assert "krylov.iterations" not in out["parent"]


def test_first_seed_moves_with_the_base_commit():
    a, b = "2e1ba81071005731074de411940e636c0cbc81e9", "b6c11a8" + "0" * 33
    # reproducible, and another base draws another block of seeds
    assert ab.first_seed(a) == ab.first_seed(a) == 451_620_001
    assert ab.first_seed(b) != ab.first_seed(a)
    # blocks of 10,000 seeds (100 workloads of 10 pairs), clear of the fixed
    # 9001-9310 that the earlier files ran
    for rev in (a, b, "0" * 40, "f" * 40):
        first = ab.first_seed(rev)
        assert 10_001 <= first <= 10**9 + 1 and first % 10_000 == 1
