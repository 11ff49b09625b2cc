"""The summary of scripts/bench_pairs.py on fixed rows, without running the benchmark."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
END_TO_END = [{"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(side, pair, cpu_s, rss=40.0, failed=0, correct=True):
    metrics = {"cpu_s": {"value": cpu_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "noise", "pair": pair, "seed": pair, "side": side,
            "result": {"correct": correct, "attempted": 648, "failed": failed, "metrics": metrics}}


def test_summary_of_fixed_rows(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 3.0]  # lower in pairs 1 and 4, tied in pair 2
    rows = [row("parent", k + 1, v) for k, v in enumerate(parent)]
    rows += [row("change", k + 1, v, failed=6 if k == 0 else 0, correct=k != 3) for k, v in enumerate(change)]
    rows.append({"workload": "noise", "pair": 5, "seed": 5, "side": "parent",
                 "result": {"returncode": 2, "stderr": "boom"}})
    summary = bench_pairs.summarize(rows, END_TO_END)["noise"]
    cpu = summary["metrics"]["cpu_s"]
    assert cpu["pairs"] == 4 and cpu["change_lower"] == 2
    assert cpu["parent_median"] == 2.5 and cpu["change_median"] == 2.5 and cpu["change_pct"] == 0.0
    assert cpu["parent_iqr_pct"] == pytest.approx(100 * (3.25 - 1.75) / 2.5)
    assert cpu["bound_pct"] == 25.0 and cpu["verdict"] == "within"
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_lower"] == 0 and rss["parent_iqr_pct"] == 0.0 and rss["bound_pct"] == 10.0
    assert summary["sides"]["parent"] == {"runs": 5, "correct": 4, "failed": [0], "attempted": [648]}
    assert summary["sides"]["change"] == {"runs": 4, "correct": 3, "failed": [0, 6], "attempted": [648]}
    lines = bench_pairs.report(bench_pairs.summarize(rows, END_TO_END))
    assert any(line.startswith("noise    cpu_s") and "2/4" in line and "25%" in line for line in lines)


@pytest.mark.parametrize("offsets, expected", [
    # lower in 9 of 10 pairs (a tie in the last), the median by 0.2 against the parent's quartile distance of 0.1
    ([-0.2] * 9 + [0.0], "gain"),
    # lower in 9 of 10, but the median by no more than the quartile distance
    ([-0.05] * 9 + [0.0], "within"),
    # the median lower by 0.2, but in 8 of 10 pairs
    ([-0.2] * 8 + [0.0] * 2, "within"),
    # the median higher by 30% against the bound's 25%, and by 20%
    ([0.3] * 10, "regression"),
    ([0.2] * 10, "within"),
    # lower in each of four pairs by far more than the quartile distance, but from fewer than ten pairs
    ([-0.5] * 4, "within"),
], ids=["gain", "within-quartiles", "within-pairs", "regression", "within-bound", "within-four-pairs"])
def test_verdicts_follow_the_claim_rule(bench_pairs, offsets, expected):
    # the first len(offsets) of ten values of median 1.0 and quartiles 0.95 and 1.05
    parent = [0.9, 0.9, 0.95, 0.95, 1.0, 1.0, 1.05, 1.05, 1.1, 1.1][:len(offsets)]
    rows = [row("parent", k + 1, v) for k, v in enumerate(parent)]
    rows += [row("change", k + 1, v + d) for k, (v, d) in enumerate(zip(parent, offsets))]
    summary = bench_pairs.summarize(rows, END_TO_END)
    assert summary["noise"]["metrics"]["cpu_s"]["verdict"] == expected
    lines = bench_pairs.report(summary)
    assert any(line.startswith("noise    cpu_s") and line.endswith(f"% {expected}") for line in lines)
