#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and print each end-to-end metric side by side.

    python scripts/bench_pairs.py [--parent HEAD] [--pairs 10] [--workload noise ...] [--out pairs.jsonl]

Both sides run from fresh temporary directories, prepared the same way: the
parent side is ``git archive`` of ``--parent``, and the change side a copy of
this working tree's files as they are on disk, those ``git ls-files --cached
--others --exclude-standard`` lists that exist.  So neither side carries
what running leaves behind (``.hypothesis/``, ``.pytest_cache/``,
``perfbench/out/``, ``__pycache__``).  Both run ``BENCHMARK.json``'s
``command`` as written (its ``env`` thread variables included) with
``--seconds`` set to its ``run_seconds``, one process at a time.  Pair ``i``
(from 1) runs seed ``i`` on both sides, and the side that runs first
alternates from pair to pair.  The runs get ``PYTHONDONTWRITEBYTECODE=1``:
warm bytecode lowers ``setup_s`` and moves ``peak_rss_mb``, so both sides
compile their sources on every run.

For each workload and end-to-end metric it prints the parent's and the
change's median, the change in percent, in how many pairs the change read
lower (ties count for neither), the spread of the parent's runs (distance
between their quartiles over their median), the metric's bound and a verdict,
then each side's ``correct``, ``failed`` and ``attempted``.  The verdict
reads lower as better, as every end-to-end metric of ``BENCHMARK.json`` does:

- ``gain``: at least ten pairs ran, the change read lower in at least 9/10
  of them, and its median is lower than the parent's by more than the
  distance between the parent's quartiles.  Fewer pairs never read ``gain``:
  four pairs of the same code on both sides can read lower in every pair;
- ``regression``: the change's median is higher than the parent's by more
  than the metric's bound;
- ``within``: anything else.

Every run's result is written to ``--out`` as one JSON line.  The script
changes no file of the checkout but ``--out``.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="commit the change is compared against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="a workload of BENCHMARK.json (default: all)")
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("bench_pairs.jsonl"))
    return parser.parse_args(argv)


def export(commit: str, into: pathlib.Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def copy_worktree(into: pathlib.Path) -> None:
    """Copy the working tree's tracked and untracked files that are not ignored, those that exist, as on disk."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def run_once(tree: pathlib.Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result object, or its exit status and the end of its error output."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


GAIN_SHARE = 0.9  # a gain reads lower in at least this share of the pairs
GAIN_MIN_PAIRS = 10  # and from at least this many pairs


def verdict(change_lower: int, pairs: int, parent_median: float, change_median: float, parent_iqr: float,
            bound: float) -> str:
    """``gain``, ``regression`` or ``within`` by the rule of the module docstring; ``bound`` is relative."""
    if pairs >= GAIN_MIN_PAIRS and change_lower >= GAIN_SHARE * pairs and parent_median - change_median > parent_iqr:
        return "gain"
    if change_median > parent_median * (1 + bound):
        return "regression"
    return "within"


def summarize(rows: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: for each end-to-end metric the two medians, the change, the pairs read lower, the
    parent's spread, the bound and the verdict; and each side's correct, failed and attempted over its runs."""
    summary = {}
    for workload in dict.fromkeys(row["workload"] for row in rows):
        runs = {(row["side"], row["pair"]): row["result"] for row in rows if row["workload"] == workload}
        pairs = sorted({pair for _, pair in runs})
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            values = {side: {pair: runs[side, pair]["metrics"][name]["value"] for pair in pairs
                             if "metrics" in runs.get((side, pair), {})} for side in SIDES}
            both = [pair for pair in pairs if all(pair in values[side] for side in SIDES)]
            if not both:
                continue
            parent = np.array([values["parent"][pair] for pair in both])
            change = np.array([values["change"][pair] for pair in both])
            p25, parent_median, p75 = np.percentile(parent, [25, 50, 75])
            change_median = float(np.median(change))
            change_lower = int(np.sum(change < parent))
            metrics[name] = {
                "unit": spec["unit"],
                "parent_median": float(parent_median),
                "change_median": change_median,
                "change_pct": 100.0 * (change_median - parent_median) / parent_median,
                "change_lower": change_lower,
                "pairs": len(both),
                "parent_iqr_pct": 100.0 * (p75 - p25) / parent_median,
                "bound_pct": 100.0 * spec["bound"],
                "verdict": verdict(change_lower, len(both), parent_median, change_median, p75 - p25, spec["bound"]),
            }
        sides = {}
        for side in SIDES:
            results = [runs[key] for key in sorted(runs) if key[0] == side]
            sides[side] = {
                "runs": len(results),
                "correct": sum(result.get("correct") is True for result in results),
                "failed": sorted({result["failed"] for result in results if "failed" in result}),
                "attempted": sorted({result["attempted"] for result in results if "attempted" in result}),
            }
        summary[workload] = {"metrics": metrics, "sides": sides}
    return summary


def report(summary: dict) -> list[str]:
    lines = [f"{'workload':8s} {'metric':12s} {'parent':>11s} {'change':>11s} {'delta':>7s} "
             f"{'lower':>7s} {'p.IQR':>6s} {'bound':>6s} verdict"]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            lines.append(
                f"{workload:8s} {name:12s} {m['parent_median']:11.6g} {m['change_median']:11.6g} "
                f"{m['change_pct']:+6.1f}% {m['change_lower']:>3d}/{m['pairs']:<3d} "
                f"{m['parent_iqr_pct']:5.1f}% {m['bound_pct']:5.0f}% {m['verdict']}")
        for side, s in entry["sides"].items():
            lines.append(f"{workload:8s} {side}: correct {s['correct']}/{s['runs']}, "
                         f"failed {s['failed']}, attempted {s['attempted']}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    rows = []
    with tempfile.TemporaryDirectory() as tmp, args.out.open("w") as out:
        trees = {side: pathlib.Path(tmp, side) for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        export(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], bench["command"], workload, pair, bench["run_seconds"])
                    row = {"workload": workload, "pair": pair, "seed": pair, "side": side,
                           "first": order[0], "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    rows.append(row)
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr, flush=True)
    print("\n".join(report(summarize(rows, bench["end_to_end"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
