"""Seeded job lists for the three benchmark workloads.

A job is a plain config dict, exactly what ``upbkit --config`` would read from
a file.  ``job_list(workload, seed)`` returns one pass: the fixed list every
run repeats whole, so every run does the same mix of work.  The benchmark seed
decides the angles and the config seeds; the program sees only the configs.

Angles that must certify are drawn from the core cube [0.4, pi/2 - 0.4]^3.
Its worst corners, (0.4, pi/2 - 0.4, 0.4) and its mirror, leave a gap of
3.27e-3 below overlap 1, three times the program's fixed 1e-3 margin, so no
seed can make a core angle set fail.  Near a face the gap shrinks below 1e-3
and ``certify`` exits 3 although every interior angle set is a UPB; about half
of the uniform draws from the whole cube do.  That fault stays in the
workload as ``FAILING_ANGLES``: fixed angle sets with fixed config seeds,
which fail on every run whatever the benchmark seed, so the failed share of a
run never moves.

The cost of a certify or hunt job is set almost wholly by its angles: the
log times of the certify and witness-radius jobs at one angle set correlate
at 0.92 over the core, while their own config seeds differ.  The slowest jobs,
which set ``job_s.tail``, are the few angle sets nearest the cost peaks, so
angles drawn anew by each seed (even on a grid shifted as a whole) made the
tail move by about 10% from seed to seed.  The angle sets are therefore the
centres of a fixed 4 x 4 x 4 grid of cells over the core, the same in every
run; the seed draws every config seed (the seesaw's starting points, the
witness directions, the random subspaces) and the job order, which it
shuffles so that a slow spell of the machine does not fall on one kind of job.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

HALF_PI = math.pi / 2
CORE_MARGIN = 0.4
RESTARTS = 12

# (angles, config seed): interior angle sets within 0.1 of a face, where the
# seesaw finds overlaps above 1 - 1e-3 (the smallest gap here is 4.2e-4).
FAILING_ANGLES = (
    ((0.05, 0.05, 0.05), 1),
    ((0.05, math.pi / 4, math.pi / 4), 2),
    ((math.pi / 4, HALF_PI - 0.05, math.pi / 4), 3),
    ((math.pi / 4, math.pi / 4, 0.05), 4),
    ((0.1, HALF_PI - 0.1, 0.1), 5),
)
CERTIFY_GRID = 4                     # 4^3 core angle sets
HUNT_GRID = 4                        # 4^3 UPB complements
HUNT_RANDOM = ((6, 44), (7, 26))     # (subspace_dim, jobs per pass)

EPSILON_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
CUTS = ((0,), (1,), (2,))
NOISE_PER_CUT = (("random", 30), ("local", 34), ("white", 4), ("npt_projector", 4))
RANDOM_NOISE_COUNT = 3
LOCAL_NOISE_TERMS = 4
LABELS = ("0", "1", "phi1", "phi2")

WORKLOADS = ("certify", "hunt", "noise")
_WORKLOAD_IDS = {name: k for k, name in enumerate(WORKLOADS)}


def _latin_hypercube(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """n points in [low, high)^3, one in each of n equal slabs along every axis."""
    slabs = np.stack([rng.permutation(n) for _ in range(3)], axis=1)
    return low + (high - low) * (slabs + rng.random((n, 3))) / n


def _cell_centres(k: int, low: float, high: float) -> np.ndarray:
    """The k^3 centres of a k x k x k grid of cells over [low, high]^3."""
    cells = np.array(list(itertools.product(range(k), repeat=3)))
    return low + (high - low) * (cells + 0.5) / k


def _angles(point) -> list[float]:
    return [float(x) for x in point]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _certify_jobs(rng: np.random.Generator) -> list[dict]:
    core = _cell_centres(CERTIFY_GRID, CORE_MARGIN, HALF_PI - CORE_MARGIN)
    sets = [(_angles(p), _seed(rng), _seed(rng)) for p in core]
    sets += [(list(angles), seed, seed) for angles, seed in FAILING_ANGLES]
    jobs = []
    for angles, certify_seed, radius_seed in sets:
        jobs.append({"command": "certify", "seed": certify_seed, "angles": angles,
                     "restarts": RESTARTS})
        jobs.append({"command": "witness-radius", "seed": radius_seed, "angles": angles,
                     "restarts": RESTARTS, "direction": "uniform"})
    return jobs


def _hunt_jobs(rng: np.random.Generator) -> list[dict]:
    jobs = []
    for p in _cell_centres(HUNT_GRID, CORE_MARGIN, HALF_PI - CORE_MARGIN):
        jobs.append({"command": "subspace-hunt", "seed": _seed(rng), "subspace_kind": "upb_complement",
                     "angles": _angles(p), "restarts": RESTARTS})
    for dim, count in HUNT_RANDOM:
        for _ in range(count):
            jobs.append({"command": "subspace-hunt", "seed": _seed(rng), "subspace_kind": "random",
                         "subspace_dim": dim, "samples": 1, "restarts": RESTARTS})
    return jobs


def _noise_spec(kind: str, rng: np.random.Generator) -> dict:
    if kind == "random":
        return {"kind": "random", "count": RANDOM_NOISE_COUNT}
    if kind == "local":
        picks = rng.choice(len(LABELS) ** 3, size=LOCAL_NOISE_TERMS, replace=False)
        coefficients = {}
        for index in sorted(int(i) for i in picks):
            labels = (LABELS[index // 16], LABELS[index // 4 % 4], LABELS[index % 4])
            coefficients[",".join(labels)] = float(rng.uniform(0.1, 1.0))
        return {"kind": "local", "coefficients": coefficients}
    return {"kind": kind}


def _noise_jobs(rng: np.random.Generator) -> list[dict]:
    per_cut = sum(n for _, n in NOISE_PER_CUT)
    points = _latin_hypercube(rng, per_cut * len(CUTS), 0.0, HALF_PI)
    jobs = []
    for cut in CUTS:
        for kind, count in NOISE_PER_CUT:
            for _ in range(count):
                angles = _angles(points[len(jobs)])
                jobs.append({"command": "perturb-scan", "seed": _seed(rng),
                             "angles": angles, "noise": _noise_spec(kind, rng),
                             "epsilon_grid": list(EPSILON_GRID), "cut": list(cut)})
    return jobs


PI4 = [math.pi / 4] * 3
# One untimed job before timing starts, the same in every run.
WARMUP = {
    "certify": {"command": "certify", "seed": 0, "angles": PI4, "restarts": RESTARTS},
    "hunt": {"command": "subspace-hunt", "seed": 0, "subspace_kind": "random", "subspace_dim": 6,
             "samples": 1, "restarts": RESTARTS},
    "noise": {"command": "perturb-scan", "seed": 0, "angles": PI4, "noise": {"kind": "white"},
              "epsilon_grid": list(EPSILON_GRID), "cut": [0]},
}

_BUILDERS = {"certify": _certify_jobs, "hunt": _hunt_jobs, "noise": _noise_jobs}


def job_list(workload: str, seed: int) -> list[dict]:
    """The pass of configs one run of ``workload`` repeats, fixed by ``seed``."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload]])
    jobs = _BUILDERS[workload](rng)
    return [jobs[k] for k in rng.permutation(len(jobs))]
