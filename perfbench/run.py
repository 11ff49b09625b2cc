#!/usr/bin/env python3
"""Fixed-work benchmark of upbkit's CLI layer: certify, hunt and noise workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One run builds the seeded job list of one workload (see ``workloads.py``) and
repeats it whole, one job at a time, for a number of passes fixed by
``--seconds`` alone (one per ``PASS_SECONDS``, at least one), so every run with
the same ``--seconds`` does the same work however fast the machine is.  Each
job goes through ``cli.parse_config`` + ``cli.run_command`` and the rendered
report.  Jobs are timed in CPU seconds of this process: the program runs on
one thread and does no I/O, so on an unshared core that is its wall time,
while on a shared virtual machine it leaves out the time other processes and
the host hold the core.  After every job the run times a fixed slice of
reference work (``reference.py``) and scales each pass by how fast the slices
ran, so that a slow or fast spell of the host does not count as the
program's.  A job's time is its median over the passes.  The
first pass is checked against numpy references (``checks.py``); later passes
must reproduce its payloads.  With ``--trace 1`` every pass runs under
``tracing.Tracer`` and the run reports per-layer figures instead of the
end-to-end ones; an untraced run installs no wrappers.  The last line of
standard output is one JSON object.

The program is imported from ``src/`` of the checkout that holds this file;
without it the run exits with status 2 and prints no result.
"""

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PASS_SECONDS = 10          # nominal length of one pass; a pass takes 3-11 CPU s, with the host's load
TAIL_JOBS = 10

import numpy as np

import checks
import reference
import workloads
from tracing import Tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_job(cli, raw: dict) -> tuple[int, str]:
    """Exit status as ``upbkit --config`` gives it, and the rendered report or the error."""
    try:
        return 0, cli.run_command(cli.parse_config(raw)).render()
    except ValueError:  # an invalid config, cli.ConfigError included
        return 1, traceback.format_exc()
    except (cli.ConvergenceError, cli.PositivityError, AssertionError):
        return 2, traceback.format_exc()
    except cli.CertificationError as exc:
        return 3, str(exc)
    except Exception:  # a crash of the CLI; record it and let the run finish
        return 1, traceback.format_exc()


def set_up(workload: str, seed: int):
    """Import the program, build the job list and run the warm-up job."""
    sys.path.insert(0, str(SRC))
    import upbkit.cli as cli

    if SRC not in pathlib.Path(cli.__file__).resolve().parents:
        raise ImportError(f"upbkit came from {cli.__file__}, not from {SRC}")
    jobs = workloads.job_list(workload, seed)
    status, text = run_job(cli, workloads.WARMUP[workload])
    if status != 0:
        raise RuntimeError(f"warm-up job failed:\n{text}")
    reference.run_slice()
    return cli, jobs


def run_pass(cli, jobs, tracer=None):
    """One pass over the job list, a reference slice after each job.

    Returns the outcomes, each job's CPU seconds, the speed factor of the pass
    (``SLICE_S`` over the mean CPU seconds of its slices) and its wall seconds.
    """
    outcomes, job_times, slices = [], [], 0.0
    wall = time.perf_counter()
    for raw in jobs:
        started = time.process_time()
        if tracer is None:
            outcome = run_job(cli, raw)
        else:
            with tracer.job():
                outcome = run_job(cli, raw)
        job_times.append(time.process_time() - started)
        outcomes.append(outcome)
        slices += reference.run_slice()
    return outcomes, job_times, reference.SLICE_S * len(jobs) / slices, time.perf_counter() - wall


def payload_of(status: int, text: str):
    return json.loads(text)["payload"] if status == 0 else None


def check_first_pass(jobs, outcomes) -> tuple[list, list[str]]:
    payloads, problems = [], []
    for k, (raw, (status, text)) in enumerate(zip(jobs, outcomes)):
        payload = payload_of(status, text)
        payloads.append((status, payload))
        problems += [f"job {k} ({raw['command']}): {p}" for p in checks.check_job(raw, status, payload)]
        if status == 1:
            problems.append(f"job {k}: {text}")
    return payloads, problems


def check_repeat(first, outcomes) -> list[str]:
    return [f"job {k}: outcome differs from the first pass"
            for k, ((status, payload), (new_status, text)) in enumerate(zip(first, outcomes))
            if (status, payload) != (new_status, payload_of(new_status, text))]


def tail_s(per_job: np.ndarray) -> float:
    """The highest percentile with TAIL_JOBS jobs beyond it."""
    return float(np.percentile(per_job, 100.0 * (1 - TAIL_JOBS / len(per_job))))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, jobs = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import upbkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_cpu_s = time.process_time()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    passes = max(1, round(args.seconds / PASS_SECONDS))
    job_times, speeds, walls = [], [], []
    for k in range(passes):
        outcomes, times, speed, wall = run_pass(cli, jobs, tracer)
        job_times.append(np.multiply(times, speed))
        speeds.append(speed)
        walls.append(wall)
        if k == 0:
            first, problems = check_first_pass(jobs, outcomes)
        else:
            problems += check_repeat(first, outcomes)

    failed = sum(status != 0 for status, _ in first) * passes
    cpu_s = float(np.median(np.sum(job_times, axis=1)))
    per_job = np.median(job_times, axis=0)
    if args.trace:
        metrics = {"trace.cpu_s": (cpu_s, "s")}
        metrics.update(tracer.layer_metrics(passes))
    else:
        metrics = {
            "setup_s": (setup_cpu_s * statistics.median(speeds), "s"),
            "cpu_s": (cpu_s, "s"),
            "job_s.p50": (float(np.median(per_job)), "s"),
            "job_s.tail": (tail_s(per_job), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(jobs) * passes,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        np.savez_compressed(OUT / f"{stem}.spans.npz", **tracer.arrays())
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    # for information, not metrics: on a shared machine these move with the host's load
    print(f"{args.workload:8s} {'speed factor per pass (not a metric)':40s} {' '.join(f'{v:.4f}' for v in speeds)}")
    print(f"{args.workload:8s} {'wall jobs_per_s (not a metric)':40s} {len(jobs) * passes / sum(walls):14.6g} 1/s")
    print(f"{args.workload:8s} attempted {result['attempted']}  failed {failed}  passes {passes}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
