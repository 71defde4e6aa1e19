import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from pairs import claim_met, failed_of_attempted, quartiles, summarize  # noqa: E402

METRICS = [
    {"name": "train_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    {"name": "test_acc", "better": "higher", "bound": 0.2},
]


def result(train_s, peak_rss_mb, test_acc, failed=0):
    values = {"train_s": train_s, "peak_rss_mb": peak_rss_mb, "test_acc": test_acc}
    return {"correct": True, "attempted": 3, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


PAIRS = [
    {"parent": result(2.0, 100.0, 0.8), "change": result(1.2, 106.0, 0.8)},
    {"parent": result(2.2, 100.0, 0.8), "change": result(1.3, 106.0, 0.7)},
    {"parent": result(2.4, 100.0, 0.8), "change": result(2.5, 106.0, 0.8)},
    {"parent": result(2.6, 100.0, 0.8), "change": result(1.1, 106.0, 0.9)},
    {"parent": result(2.5, 100.0, 0.8), "change": {"error": "exited 1"}},  # a pair, but no win
]


def train_pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": result(a, 100.0, 0.8), "change": result(b, 100.0, 0.8)} for a, b in zip(parent, change)]


def test_quartiles_interpolate_linearly():
    assert quartiles([2.6, 2.0, 2.4, 2.2]) == pytest.approx([2.15, 2.3, 2.45])
    assert quartiles([5.0]) == [5.0, 5.0, 5.0]


def test_summary_arithmetic_on_fixed_pairs():
    summary = summarize(PAIRS, METRICS)
    train = summary["train_s"]
    # each side over its own runs; the errored change run reports nothing
    assert train["parent_q1_median_q3"] == pytest.approx([2.2, 2.4, 2.5])
    assert train["change_q1_median_q3"] == pytest.approx([1.175, 1.25, 1.6])
    assert (train["change_wins"], train["ties"], train["pairs"]) == (3, 0, 5)
    assert train["parent_iqr"] == pytest.approx(0.3)
    assert train["median_change_vs_parent"] == pytest.approx(-1.15 / 2.4)
    assert train["bound_check"] == "within"
    # higher is better: one win, two ties, the medians equal
    acc = summary["test_acc"]
    assert (acc["change_wins"], acc["ties"], acc["median_change_vs_parent"]) == (1, 2, 0.0)
    assert acc["bound_check"] == "within"
    # +6 % against a 5 % bound
    rss = summary["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["median_change_vs_parent"] == pytest.approx(0.06)
    assert rss["bound_check"] == "worse"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 2.0, 2.5]  # IQR 0.75 on a 1.75 median: 43 % against a 0.25 bound
    moved = summarize(train_pairs(parent, [2.0, 2.1, 2.1, 2.2]), METRICS)["train_s"]
    assert moved["median_change_vs_parent"] == pytest.approx(0.2)
    assert moved["bound_check"] == "unresolved"
    worse = summarize(train_pairs(parent, [2.4, 2.6, 2.6, 2.7]), METRICS)["train_s"]
    assert worse["bound_check"] == "unresolved"
    # every change run better than every parent run: resolved whatever the spread
    apart = summarize(train_pairs(parent, [0.5, 0.6, 0.7, 0.8]), METRICS)["train_s"]
    assert apart["bound_check"] == "within"
    # the same for a metric whose better is higher: IQR 0.15 on a 0.65 median against a 0.2 bound
    acc = [0.5, 0.6, 0.7, 0.8]

    def acc_pairs(change):
        return [{"parent": result(2.0, 100.0, a), "change": result(2.0, 100.0, b)} for a, b in zip(acc, change)]

    assert summarize(acc_pairs([0.6] * 4), METRICS)["test_acc"]["bound_check"] == "unresolved"
    assert summarize(acc_pairs([0.9, 0.95, 0.9, 0.95]), METRICS)["test_acc"]["bound_check"] == "within"


def test_claim_needs_nine_tenths_of_all_pairs_a_gap_past_the_parent_iqr_and_no_more_failures():
    train = summarize(PAIRS, METRICS)["train_s"]
    assert not claim_met(train, failed_of_attempted(PAIRS), "lower")  # 3 wins of 5

    ten = train_pairs([2.0 + 0.01 * i for i in range(10)], [1.0 + 0.01 * i for i in range(10)])
    summary = summarize(ten, METRICS)["train_s"]
    assert summary["change_wins"] == 10
    assert claim_met(summary, failed_of_attempted(ten), "lower")
    assert not claim_met({**summary, "parent_iqr": 1.1}, failed_of_attempted(ten), "lower")  # gap 1.0
    # the same gain read as a metric whose better is higher is no gain
    assert not claim_met(summary, failed_of_attempted(ten), "higher")

    # nine wins of ten, the tenth change run errored: nine tenths are won, but
    # the errored run is a failed operation the parent does not have
    errored = ten[:9] + [{"parent": ten[9]["parent"], "change": {"error": "exited 1"}}]
    summary = summarize(errored, METRICS)["train_s"]
    assert (summary["change_wins"], summary["pairs"]) == (9, 10)
    assert failed_of_attempted(errored) == {"parent": [0, 30], "change": [1, 28]}
    assert not claim_met(summary, failed_of_attempted(errored), "lower")

    # ten wins of ten, but one change operation fails where none of the parent's does
    failing = ten[:9] + [{"parent": ten[9]["parent"], "change": result(1.09, 100.0, 0.8, failed=1)}]
    assert not claim_met(summarize(failing, METRICS)["train_s"], failed_of_attempted(failing), "lower")
