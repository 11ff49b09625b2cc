"""Every sample config in scripts/configs reproduces its committed report payload.

Integers, strings, booleans and nulls must match exactly and lists must keep
their lengths; floats must agree to ``FLOAT_TOL``.  A product vector's local
vectors are compared by ``|<old|new>|``, one per party: the certificate fixes
``max_overlap`` to about 1e-12, but ``best_product_vector`` only to about
``sqrt(SEESAW_IMPROVEMENT_TOL)``, about 1e-6, where the objective is flat to
second order, and ``|<old|new>|`` moves by the square of such a change.

A stable payload can still be wrong, so every committed report whose command
the benchmark's checker (``perfbench/checks.py``, numpy apart from upbkit)
covers must also pass that checker, and a doctored copy must fail it.  That
checker does not check the rank of a dimension-5 hunt, so every sample of a
committed random dimension-5 hunt is checked here for rank
``min(dim, distinct_count)``: generic draws hold six product vectors of
independence rank five.  Nor does it cover ``build`` or ``rank-mixtures``, so
their committed reports are re-checked here from their JSON alone: numpy
builds the family's members from the formula of the ``upb`` module docstring
at the config's angles, the UPB states and mixtures from those members, and
their spectra, ranks and partial-transpose minima from ``np.linalg.eigvalsh``.
"""

import copy
import json
import pathlib

import numpy as np
import pytest

from upbkit.cli import parse_config, run_command
from upbkit.reporting import validate_report

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


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.stem)
def test_committed_report_validates_as_read(path):
    validate_report(json.loads(path.read_text()))


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
    # drop a hit's overlap, or claim one in a hunt that found none
    row = next((row for row in payload["samples"] if row["overlaps"]), None)
    if row is None:
        payload["samples"][0].update(distinct_count=1, rank=1, overlaps=[1.0])
    else:
        row["overlaps"].pop()


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


RANK_TOL = 1e-9  # an eigenvalue counts toward a rank, and a PT minimum is PPT, at |value| >= this
CUTS = [([0], [1, 2]), ([0, 1], [2]), ([0, 2], [1])]  # (side_a, side_b) of every three-party cut, in payload order


def shifts_members(angles) -> np.ndarray:
    """The family's members as (member, party, 2) local vectors: |0>|0>|0>, |1>|B>|C>, |A>|1>|C~>, |A~>|B~>|1>."""
    cos, sin = np.cos(np.array(angles)), np.sin(np.array(angles))
    ket, tilde = np.stack([cos, sin], axis=1), np.stack([sin, -cos], axis=1)  # |T> and |T~> of each party's angle t
    zero, one = np.eye(2)
    return np.array([[zero, zero, zero], [one, ket[1], ket[2]], [ket[0], one, tilde[2]], [tilde[0], tilde[1], one]])


def member_kets(members: np.ndarray) -> np.ndarray:
    """Each member's 8-entry ket, one per row."""
    return np.array([np.kron(np.kron(a, b), c) for a, b, c in members])


def upb_state_matrix(members: np.ndarray) -> np.ndarray:
    """The normalized projector onto the complement of the members' span."""
    kets = member_kets(members)
    return (np.eye(8) - kets.T @ kets.conj()) / (8 - len(kets))


def numpy_rank(matrix: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(np.linalg.eigvalsh(matrix)) >= RANK_TOL))


def min_pt_eigenvalue(rho: np.ndarray, side: list[int]) -> float:
    """Least eigenvalue of ``rho`` with the row and column indices of the ``side`` parties swapped."""
    perm = list(range(6))
    for k in side:
        perm[k], perm[3 + k] = 3 + k, k
    return float(np.linalg.eigvalsh(rho.reshape((2,) * 6).transpose(perm).reshape(8, 8))[0])


def build_errors(config, payload) -> list[str]:
    """The fields of a build payload that disagree with numpy at the config's angles."""
    members = shifts_members(config["angles"])
    rho = upb_state_matrix(members)
    spectrum = np.linalg.eigvalsh(rho)
    errors = []
    if not np.allclose(local_vectors(payload["members"]).reshape(members.shape), members, rtol=0, atol=1e-15):
        errors.append("members")
    if not np.allclose(payload["spectrum"], spectrum, rtol=0, atol=FLOAT_TOL):
        errors.append("spectrum")
    if payload["rank"] != numpy_rank(rho):
        errors.append("rank")
    if [(row["side_a"], row["side_b"]) for row in payload["ppt"]] != CUTS:
        errors.append("cuts")
    for i, row in enumerate(payload["ppt"]):
        if abs(row["min_eigenvalue"] - min_pt_eigenvalue(rho, row["side_a"])) > FLOAT_TOL:
            errors.append(f"ppt[{i}].min_eigenvalue")
        if row["ppt"] != (row["min_eigenvalue"] >= -RANK_TOL):
            errors.append(f"ppt[{i}].ppt")
    return errors


def rank_mixture_errors(config, payload) -> list[str]:
    """The ranks of a rank-mixtures payload that disagree with numpy at the config's angles."""
    members = shifts_members(config["angles"])
    first, second = upb_state_matrix(members), upb_state_matrix(shifts_members(config["angles_second"]))
    member = member_kets(members)[0]
    ranks = {
        "rank_first": numpy_rank(first),
        "rank_second": numpy_rank(second),
        "rank_equal_mixture": numpy_rank((first + second) / 2),
        "rank_state_plus_member": numpy_rank((first + np.outer(member, member.conj())) / 2),
    }
    errors = [key for key, rank in ranks.items() if payload[key] != rank]
    return errors + ([] if payload["rank_tol"] == RANK_TOL else ["rank_tol"])


def _shift_spectrum(payload):
    payload["spectrum"][-1] += 1e-6


def _flip_ppt(payload):
    payload["ppt"][0]["ppt"] = not payload["ppt"][0]["ppt"]


def _move_member(payload):
    payload["members"][1][1][0][0] += 1e-3


# command -> (its numpy re-check, one small error per field, with the error it must raise)
NUMPY_RECHECKS = {
    "build": (build_errors, [(_shift_spectrum, "spectrum"), (_flip_ppt, "ppt[0].ppt"), (_move_member, "members")]),
    "rank-mixtures": (rank_mixture_errors, [(lambda payload: payload.update(rank_equal_mixture=6), "rank_equal_mixture")]),
}


@pytest.mark.parametrize("command", NUMPY_RECHECKS)
def test_committed_report_agrees_with_numpy(command):
    reports = [r for r in (json.loads(p.read_text()) for p in REPORTS) if r["config"]["command"] == command]
    assert reports
    recheck, doctorings = NUMPY_RECHECKS[command]
    for report in reports:
        assert recheck(report["config"], report["payload"]) == []
        for doctor, error in doctorings:
            doctored = copy.deepcopy(report["payload"])
            doctor(doctored)
            assert error in recheck(report["config"], doctored), error
