"""Every sample config in scripts/configs reproduces its committed report payload.

Integers, strings, booleans and nulls must match exactly and lists must keep
their lengths; floats must agree to ``FLOAT_TOL``.  The local vectors of a
product vector are eigenvectors, whose phase is the eigensolver's choice, so
each one is compared up to a global phase.

A stable payload can still be wrong, so every committed report whose command
the benchmark's checker (``perfbench/checks.py``, numpy apart from upbkit)
covers must also pass that checker, and a doctored copy must fail it.  That
checker does not check the rank of a dimension-5 hunt, so every sample of a
committed random dimension-5 hunt is checked here for rank
``min(dim, distinct_count)``: generic draws hold six product vectors of
independence rank five.
"""

import copy
import json
import pathlib

import numpy as np
import pytest

from upbkit.cli import parse_config, run_command

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
CONFIGS = sorted((SCRIPTS / "configs").glob("*.json"))
REPORTS = sorted((SCRIPTS / "out").glob("*.report.json"))
FLOAT_TOL = 1e-12
PRODUCT_VECTOR_FIELDS = ("best_product_vector", "members")


def local_vectors(value) -> np.ndarray:
    """Rows of local vectors from nested [re, im] pairs (one product vector or a list)."""
    pairs = np.asarray(value, dtype=float)
    vecs = pairs[..., 0] + 1j * pairs[..., 1]
    return vecs.reshape(-1, vecs.shape[-1])


def assert_close(old, new, path="payload"):
    assert type(old) is type(new), f"{path}: {type(old).__name__} != {type(new).__name__}"
    if isinstance(old, dict):
        assert list(old) == list(new), f"{path}: keys differ"
        for key in old:
            sub = f"{path}.{key}"
            if key in PRODUCT_VECTOR_FIELDS:
                a, b = local_vectors(old[key]), local_vectors(new[key])
                assert a.shape == b.shape, f"{sub}: shape {a.shape} != {b.shape}"
                fidelity = np.abs(np.sum(a.conj() * b, axis=1))
                assert np.all(fidelity >= 1.0 - FLOAT_TOL), f"{sub}: |<old|new>| = {fidelity}"
            else:
                assert_close(old[key], new[key], sub)
    elif isinstance(old, list):
        assert len(old) == len(new), f"{path}: length {len(old)} != {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            assert_close(a, b, f"{path}[{i}]")
    elif isinstance(old, float):
        assert old == new or abs(old - new) <= FLOAT_TOL, f"{path}: {old!r} != {new!r}"
    else:
        assert old == new, f"{path}: {old!r} != {new!r}"


def test_every_sample_config_has_a_report():
    assert CONFIGS
    for config in CONFIGS:
        assert (SCRIPTS / "out" / f"{config.stem}.report.json").is_file(), config.name


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_payload_matches_committed_report(config):
    committed = json.loads((SCRIPTS / "out" / f"{config.stem}.report.json").read_text())
    report = run_command(parse_config(json.loads(config.read_text())))
    assert_close(committed["payload"], json.loads(report.render())["payload"])


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_committed_config_echo_parses_back(config):
    committed = json.loads((SCRIPTS / "out" / f"{config.stem}.report.json").read_text())
    assert parse_config(committed["config"]) == parse_config(json.loads(config.read_text()))


def _doctor_hunt(payload):
    next(row for row in payload["samples"] if row["overlaps"])["overlaps"].pop()


def _doctor_perturb_scan(payload):
    payload["samples"][0]["per_epsilon"][0]["exact_min"] += 1e-6


# one small error per checked command, each of which the checker must catch
DOCTORINGS = {
    "certify": lambda payload: payload.update(max_overlap=payload["max_overlap"] + 1e-3),
    "witness-radius": lambda payload: payload.update(radius=payload["radius"] * 1.01),
    "subspace-hunt": _doctor_hunt,
    "perturb-scan": _doctor_perturb_scan,
}


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks

    return checks


def test_every_checked_command_has_a_doctoring(checks):
    assert set(checks.CHECKS) == set(DOCTORINGS)


@pytest.mark.parametrize(
    "path",
    [p for p in REPORTS if json.loads(p.read_text())["config"]["command"] in DOCTORINGS],
    ids=lambda p: p.name.removesuffix(".report.json"),
)
def test_committed_report_passes_the_benchmark_checker(checks, path):
    report = json.loads(path.read_text())
    assert checks.check_job(report["config"], 0, report["payload"]) == []
    doctored = copy.deepcopy(report["payload"])
    DOCTORINGS[report["config"]["command"]](doctored)
    assert checks.check_job(report["config"], 0, doctored)


def rank_errors(payload) -> list[int]:
    """Indices of the hunt samples whose rank is not ``min(dim, distinct_count)``."""
    return [row["index"] for row in payload["samples"] if row["rank"] != min(payload["dim"], row["distinct_count"])]


def test_random_dimension_five_hunts_have_full_rank():
    payloads = [
        report["payload"] for report in (json.loads(p.read_text()) for p in REPORTS)
        if report["config"]["command"] == "subspace-hunt"
        and report["config"]["subspace_kind"] == "random" and report["config"]["subspace_dim"] == 5
    ]
    assert payloads
    for payload in payloads:
        assert rank_errors(payload) == []
        doctored = copy.deepcopy(payload)
        doctored["samples"][-1]["rank"] = 3
        assert rank_errors(doctored) == [doctored["samples"][-1]["index"]]
