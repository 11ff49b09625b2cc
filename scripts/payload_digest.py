#!/usr/bin/env python3
"""Print a sha256 of every benchmark job's and sample config's report, so two checkouts compare by ``diff``.

The jobs are the passes ``perfbench/workloads.job_list`` builds for the
certify, hunt and noise workloads at benchmark seeds 1-3, then every
``scripts/configs/*.json``, then the drawn hunts: a ``subspace-hunt`` of 4
samples and 12 restarts for each ``subspace_kind`` random and planted, each
``subspace_dim`` 1-8 and each seed 1-3.  They come last, so that the earlier
lines keep their place, and they reach the partial acceptance of the
three-qubit dimension <= 5 solve (planted dimensions 1-4), which no benchmark
job or sample config runs.  Each runs in this process through
``cli.parse_config`` and ``cli.run_command``, and prints one line: its name,
its exit status (0, or 3 for a ``CertificationError``) and the sha256 of
``json.dumps({"config": echo, "payload": payload}, indent=2)`` and a newline,
with the certification error's text as the payload of a job that exits 3.  Run
metadata (the elapsed time) is left out.  The last line digests all others.

The hashed text is this script's own fixed rendering, not the report layout
of ``reporting.dumps_canonical``: a change of report whitespace moves no
digest, and any change of a value or of its spelling moves one.

    python scripts/payload_digest.py > digests.txt

It imports upbkit from ``src/`` and the job lists from ``perfbench/`` of the
checkout that holds it, and writes no bytecode there.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from upbkit import cli  # noqa: E402

SEEDS = (1, 2, 3)


def jobs():
    """(name, raw config) of every job, in a fixed order."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for k, raw in enumerate(workloads.job_list(workload, seed)):
                yield f"{workload}:{seed}:{k}", raw
    for path in sorted((ROOT / "scripts" / "configs").glob("*.json")):
        yield f"configs/{path.name}", json.loads(path.read_text(encoding="utf-8"))
    for kind in ("random", "planted"):
        for dim in range(1, 9):
            for seed in SEEDS:
                yield f"drawn:{kind}:{dim}:{seed}", {"command": "subspace-hunt", "seed": seed, "subspace_kind": kind,
                                                     "subspace_dim": dim, "samples": 4, "restarts": 12}


def digest(raw: dict) -> tuple[int, str]:
    """Exit status and sha256 of one job's config echo and payload."""
    config = cli.parse_config(raw)
    try:
        status, payload = 0, cli.run_command(config).payload
    except cli.CertificationError as exc:
        status, payload = 3, str(exc)
    text = json.dumps({"config": config, "payload": payload}, indent=2) + "\n"
    return status, hashlib.sha256(text.encode("utf-8")).hexdigest()


def run() -> int:
    total = hashlib.sha256()
    count = 0
    for name, raw in jobs():
        status, sha = digest(raw)
        line = f"{name} {status} {sha}"
        print(line)
        total.update(line.encode("utf-8") + b"\n")
        count += 1
    print(f"all {count} jobs {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
