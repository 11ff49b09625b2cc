import importlib
import inspect
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upbkit import (
    ConvergenceError,
    basis_labels,
    mixing_scan,
    random_density_matrix,
    random_product_vector,
    shifts_family,
    span_projector,
    subspace_product_hunt,
)
from upbkit import cli, reporting, upb
from upbkit.cli import ConfigError, parse_config, run_command
from upbkit.reporting import SchemaError, dumps_canonical, validate_report
from upbkit.states import expand_locals

from conftest import lower_top_eigenvalue
from test_upb import tiles_upb

PI4 = [math.pi / 4, math.pi / 4, math.pi / 4]
ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def make_config(**overrides):
    raw = {"command": "build", "seed": 42, "angles": PI4}
    raw.update(overrides)
    return raw


class TestFloatFormat:
    def test_shortest_round_trip(self):
        for x in (0.25, 1 / 3, 1e-9, math.pi, 123456.789, 5e-324, -0.0, np.float64(1 / 3)):
            text = dumps_canonical(x)
            assert text == repr(float(x)) + "\n"
            assert json.loads(text) == x
        assert dumps_canonical(1e-9) == "1e-09\n"
        assert math.copysign(1.0, json.loads(dumps_canonical(-0.0))) == -1.0
        assert math.isnan(json.loads(dumps_canonical(math.nan)))

    def test_infinities(self):
        assert dumps_canonical(math.inf) == "Infinity\n"
        assert dumps_canonical(-math.inf) == "-Infinity\n"
        assert json.loads(dumps_canonical({"x": math.inf}))["x"] == math.inf
        assert json.loads(dumps_canonical({"x": -math.inf}))["x"] == -math.inf

    def test_integral_floats_keep_a_point(self):
        assert dumps_canonical(1.0) == "1.0\n"
        assert json.loads(dumps_canonical(1.0)) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.sampled_from([-0.0, 5e-324, math.inf, -math.inf]) | st.floats(allow_nan=False),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=12,
    ))
    def test_round_trip(self, value):
        text = dumps_canonical(value)
        assert json.loads(text) == value
        assert text.count("\n") == 1 and text.endswith("\n")


SCAN = {"command": "perturb-scan", "seed": 1, "angles": PI4, "noise": {"kind": "white"},
        "epsilon_grid": [0.01]}
HUNT = {"command": "subspace-hunt", "seed": 1, "subspace_kind": "random", "subspace_dim": 5,
        "samples": 1}
UPB_HUNT = {"command": "subspace-hunt", "seed": 1, "subspace_kind": "upb_complement", "angles": PI4}
RADIUS = {"command": "witness-radius", "seed": 1, "angles": PI4}
RANK = {"command": "rank-mixtures", "seed": 1, "angles": PI4, "angles_second": [0.3, 0.7, 1.1]}


def local_noise(coefficients):
    return {**SCAN, "noise": {"kind": "local", "coefficients": coefficients}}


def named(key, *row):
    """A table row whose test id is ``key`` and the row's message, its last entry.

    The keys keep the ids pytest gave the rows by their position before the
    ids were written out; a new row takes a key of its own, anywhere, and
    renames no other test.
    """
    return pytest.param(*row, id=f"{key}-{row[-1]}")


# (raw config, message the ConfigError must match)
REJECTED = [
    named("raw0", make_config(angles=[0.3, 0.7]), "angles must be a list of three angles"),
    named("raw1", make_config(angles=0.3), "angles must be a list of three angles"),
    named("raw2", {**RADIUS, "direction": {"0,0,2": 1.0}}, r"bad label key '0,0,2': unknown label '2'"),
    named("raw3", make_config(seed=2**64), r"seed must be an integer in \[0, 18446744073709551615\], got"),
    named("raw4", make_config(seed=-1), "seed must be an integer in"),
    named("raw5", make_config(seed=True), "seed must be an integer in"),
    named("raw6", {"command": "certify", "seed": 1, "angles": PI4, "restarts": 0},
          r"restarts must be an integer in \[1, 1024\], got 0"),
    named("raw7", {"command": "build", "seed": 1}, "build requires angles"),
    named("raw8", {k: v for k, v in RANK.items() if k != "angles_second"}, "rank-mixtures requires angles_second"),
    named("raw9", {**SCAN, "epsilon_grid": []}, "perturb-scan requires a nonempty epsilon_grid"),
    named("raw10", {**SCAN, "cut": 0}, "cut must be a nonempty list of party indices"),
    named("raw11", {**HUNT, "subspace_kind": "tiles"}, "unknown subspace_kind 'tiles'"),
    named("raw12", {**UPB_HUNT, "subspace_dim": 4}, "drop subspace_dim/samples"),
    named("raw13", {**UPB_HUNT, "samples": 1}, "drop subspace_dim/samples"),
    named("raw14", {**HUNT, "subspace_dim": 0}, r"subspace_dim must be an integer in \[1, 8\], got 0"),
    named("raw15", {**HUNT, "subspace_dim": 9}, r"subspace_dim must be an integer in \[1, 8\], got 9"),
    named("raw16", {**HUNT, "samples": 0}, "samples must be an integer in"),
    named("raw17", {**SCAN, "noise": "white"}, 'noise must be an object with a "kind" field'),
    named("raw18", {**SCAN, "noise": {"kind": ["white"]}}, r"unknown noise kind \['white'\]"),
    named("raw19", {**SCAN, "noise": {"kind": "white", "count": 1}},
          r"white noise takes exactly the fields \['kind'\]"),
    named("raw20", {**SCAN, "noise": {"kind": "random"}}, r"random noise takes exactly the fields \['count', 'kind'\]"),
    named("raw21", {**SCAN, "noise": {"kind": "random", "count": 0}}, "noise count must be an integer in"),
    named("raw22", {**SCAN, "noise": {"kind": "local", "coefficients": {"0,0,0": 1.0}, "count": 1}},
          "local noise takes exactly the fields"),
    named("raw23", local_noise({}), "noise coefficients must be a nonempty label->weight object, got {}"),
    named("raw24", local_noise({"0,0,0": 0.5, "1,1,1": -0.5}), "noise coefficients must have positive total weight"),
    # each weight is finite, but their sum overflows
    named("raw41", local_noise({"0,0,0": 1e308, "1,1,1": 1e308}),
          r"^noise coefficients must have positive total weight, got inf$"),
    named("raw25", {**RADIUS, "direction": "gaussian"},
          "direction must be a nonempty label->weight object, got 'gaussian'"),
    named("raw26", {**RADIUS, "direction": [1.0]}, r"direction must be a nonempty label->weight object, got \[1.0\]"),
    named("raw27", {**RADIUS, "direction": {"0,0,0": 1.5, "1,1,1": -0.5}}, "direction weights must be nonnegative"),
    named("raw28", local_noise({"0,0,0": 1, "1,1,1": -0.5}), "local noise operator is not a state"),
    # JSON values of the wrong type that a lenient float() or int() would accept
    named("raw29", {**SCAN, "cut": [1.9]}, r"cut index must be an integer in \[0, 2\], got 1.9"),
    named("raw30", {**SCAN, "cut": [True]}, "cut index must be an integer in"),
    named("raw31", {**SCAN, "cut": ["2"]}, "cut index must be an integer in"),
    named("raw32", make_config(angles=[True, 0.7, 1.1]), "angles value must be a number, got True"),
    named("raw33", {**SCAN, "epsilon_grid": ["0.01"]}, "epsilon_grid value must be a number, got '0.01'"),
    named("raw34", {**RADIUS, "direction": {"0,0,0": True}}, r"direction\['0,0,0'\] must be a number, got True"),
    named("raw35", local_noise({"0,0,0": "1"}), r"noise coefficients\['0,0,0'\] must be a number, got '1'"),
    # integers beyond float range, and two keys that name one label
    named("raw36", make_config(angles=[0.3, 0.7, 10**400]), "angles value is out of float range"),
    named("raw37", {**SCAN, "epsilon_grid": [10**400]}, "epsilon_grid value is out of float range"),
    named("raw38", {**RADIUS, "direction": {"0,0,0": 10**400}}, r"direction\['0,0,0'\] is out of float range"),
    named("raw39", local_noise({"0,0,0": 0.5, " 0,0,0": 0.25, "1,1,1": 0.25}),
          "noise coefficients keys '0,0,0' and ' 0,0,0' both name the label '0,0,0'"),
    named("raw40", {**RADIUS, "direction": {"0,phi1,1": 0.5, "0, phi1, 1": 0.5}},
          "direction keys '0,phi1,1' and '0, phi1, 1' both name the label '0,phi1,1'"),
    # label keys and cut indices are bounded by the party count of the angles
    named("raw42", {**RADIUS, "direction": {"0,1": 1.0}}, r"^bad label key '0,1': expected 3 labels, got 2$"),
    named("raw43", local_noise({"0,0,0,0": 1.0}), "expected 3 labels, got 4$"),
    named("raw44", {**SCAN, "cut": [3]}, r"cut index must be an integer in \[0, 2\], got 3"),
    # a dict config, unlike one read from JSON, may have keys that are not strings
    named("raw45", {**RADIUS, "direction": {1: 1.0}}, "^bad label key 1: must be a string$"),
    named("raw46", local_noise({("0", "0", "0"): 1.0}), r"^bad label key \('0', '0', '0'\): must be a string$"),
    named("raw47", make_config(extra_knob=1), r"^unknown config fields for build: \['extra_knob'\]$"),
    # a field the command reads is parsed before what is left over is reported
    named("raw48", make_config(extra_knob=1, angles=[0.0, 0.7, 1.1]), "^invalid angles: angle a=0.0"),
    named("raw49", {"command": "build", "angles": PI4}, "^seed is required; runs must be reproducible$"),
    named("raw50", make_config(angles=[0.0, 0.7, 1.1]), r"is at or outside \(0, pi/2\); the family degenerates there"),
    named("raw51", make_config(command="summon"), r"^command must be one of \('build', .*\), got 'summon'$"),
    named("raw52", {**RANK, "angles_second": PI4}, "^angles and angles_second must be distinct parameter sets$"),
    named("raw53", {**SCAN, "epsilon_grid": [0.5]}, r"^epsilon_grid values must lie in \(0, 0.1\]$"),
    named("raw54", {**SCAN, "noise": {"kind": "thermal"}}, "^unknown noise kind 'thermal'$"),
    named("raw55", local_noise({"0,phi1,1": math.nan}), "^noise coefficients weights must be finite$"),
    named("raw56", local_noise({"0,phi1,1": math.inf}), "^noise coefficients weights must be finite$"),
    named("raw57", local_noise({"0,1,0": 1.0, "phi1,phi2": 0.0}),
          "^bad label key 'phi1,phi2': expected 3 labels, got 2$"),
    named("raw58", {**RADIUS, "direction": {"0,0,0": 0.7}}, "^direction weights must sum to 1$"),
    named("raw59", {**RADIUS, "direction": {"0,0,0": math.nan}}, "^direction weights must be finite$"),
    named("raw60", {**RADIUS, "direction": {"0,0,0": math.inf}}, "^direction weights must be finite$"),
    named("raw61", {**RADIUS, "direction": {"0,0,0": None}}, r"^direction\['0,0,0'\] must be a number, got None$"),
    named("raw62", {**RADIUS, "direction": {"0,0,0": 0.5, "0,1,0,1": 0.5}},
          "^bad label key '0,1,0,1': expected 3 labels, got 4$"),
    named("raw63", {**SCAN, "cut": [0, 1, 2]},
          r"^invalid cut: cut parties \[0, 1, 2\] must be a nonempty proper subset of 0..2$"),
]


class TestConfigParsing:
    @pytest.mark.parametrize("raw, message", REJECTED)
    def test_rejected(self, raw, message):
        # the local-noise operator is checked when the command builds it, every other row on parsing
        with pytest.raises(ConfigError, match=message):
            run_command(parse_config(raw))

    def test_minimal_build(self):
        # the parsed config is JSON data, echoed as is: no field the command does not take
        assert parse_config(make_config()) == {"command": "build", "seed": 42, "angles": PI4}

    def test_label_keys_are_echoed_canonically(self):
        config = parse_config({**RADIUS, "direction": {" 0, phi1 ,1": 1}})
        assert config["direction"] == {"0,phi1,1": 1.0}
        assert parse_config(config) == config

    def test_nan_angle_exits_1(self, tmp_path, capsys):
        # json reads the bare NaN token; the family's one angle check rejects it
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(make_config(angles=[math.nan, 0.7, 1.1])))
        assert "NaN" in cfg.read_text()
        assert cli.main(["--config", str(cfg)]) == 1
        assert "invalid angles: angle a=nan is at or outside" in capsys.readouterr().err

    def test_tolerances_rejected(self):
        # every tolerance is fixed at its library default; there is no config knob for one
        with pytest.raises(ConfigError, match=r"unknown config fields for build: \['tolerances'\]"):
            parse_config(make_config(tolerances={"rank_tol": 1e-8}))
        # each command takes exactly the fields it reads: a field only other commands read is unknown to it
        # (restarts included, which only the commands that run the seesaw take).  Left out: angles on a
        # drawn hunt, which has its own message (test_angles_rejected_on_drawn_hunts)
        fields = {field: value for raw in ALL_COMMAND_CONFIGS.values() for field, value in raw.items()}
        for name, raw in ALL_COMMAND_CONFIGS.items():
            for field, value in fields.items():
                if field in raw or (name, field) == ("subspace-hunt", "angles"):
                    continue
                with pytest.raises(ConfigError, match=rf"unknown config fields for {name}: \['{field}'\]"):
                    parse_config({**raw, field: value})
        for name in ("certify", "subspace-hunt", "witness-radius"):
            raw = {k: v for k, v in ALL_COMMAND_CONFIGS[name].items() if k != "restarts"}
            assert parse_config(raw)["restarts"] == 64

    def test_counts_are_bounded(self):
        # parsing alone rejects a count above the bound, so no command starts the work it asks for
        bound = cli.MAX_COUNT
        counts = [(ALL_COMMAND_CONFIGS[name], "restarts") for name in ("certify", "subspace-hunt", "witness-radius")]
        counts.append((HUNT, "samples"))
        for raw, field in counts:
            assert parse_config({**raw, field: bound})[field] == bound
            with pytest.raises(ConfigError, match=rf"^{field} must be an integer in \[1, {bound}\], got {bound + 1}$"):
                parse_config({**raw, field: bound + 1})
        assert parse_config({**SCAN, "noise": {"kind": "random", "count": bound}})["noise"]["count"] == bound
        with pytest.raises(ConfigError, match=rf"^noise count must be an integer in \[1, {bound}\], got {bound + 1}$"):
            parse_config({**SCAN, "noise": {"kind": "random", "count": bound + 1}})
        grid = [0.01] * bound
        assert parse_config({**SCAN, "epsilon_grid": grid})["epsilon_grid"] == grid
        with pytest.raises(ConfigError, match=rf"^epsilon_grid must hold at most {bound} values, got {bound + 1}$"):
            parse_config({**SCAN, "epsilon_grid": [*grid, 0.01]})
        # every sample config parses, the largest counts among them included
        for path in sorted((SCRIPTS / "configs").glob("*.json")):
            parse_config(json.loads(path.read_text()))

    def test_angles_rejected_on_drawn_hunts(self):
        # random and planted hunts draw their subspaces from the seed and never read angles
        for kind in ("random", "planted"):
            raw = {"command": "subspace-hunt", "seed": 1, "subspace_kind": kind,
                   "subspace_dim": 5, "samples": 1}
            assert "angles" not in parse_config(dict(raw))
            with pytest.raises(ConfigError, match="drop angles"):
                parse_config({**raw, "angles": [0.3, 0.7, 1.1]})
        upb_hunt = {"command": "subspace-hunt", "seed": 1, "subspace_kind": "upb_complement",
                    "angles": [0.3, 0.7, 1.1]}
        assert parse_config(upb_hunt)["angles"] == [0.3, 0.7, 1.1]


ALL_COMMAND_CONFIGS = {
    "build": make_config(),
    "certify": {"command": "certify", "seed": 7, "angles": PI4, "restarts": 32},
    "perturb-scan": {
        "command": "perturb-scan",
        "seed": 3,
        "angles": PI4,
        "noise": {"kind": "random", "count": 2},
        "epsilon_grid": [0.01, 0.005],
        "cut": [0],
    },
    "rank-mixtures": {
        "command": "rank-mixtures",
        "seed": 1,
        "angles": PI4,
        "angles_second": [0.3, 0.7, 1.1],
    },
    "subspace-hunt": {
        "command": "subspace-hunt",
        "seed": 11,
        "subspace_kind": "random",
        "subspace_dim": 5,
        "samples": 1,
        "restarts": 64,
    },
    "witness-radius": {
        "command": "witness-radius",
        "seed": 7,
        "angles": PI4,
        "direction": "uniform",
        "restarts": 32,
    },
}


class TestCommands:
    def test_report_is_rendered_once(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(None)
            return dumps_canonical(value)

        monkeypatch.setattr(cli, "dumps_canonical", counting)
        report = run_command(parse_config(make_config()))
        assert not calls
        assert report.render() == dumps_canonical(
            {"config": report.config, "payload": report.payload, "meta": report.meta}
        )
        assert len(calls) == 1

    def test_random_noise_sample_s_draws_from_its_counter_seed(self):
        # sample s draws from default_rng([seed, s]), so a short batch is a prefix of a long one
        configs = [parse_config({**SCAN, "noise": {"kind": "random", "count": count}}) for count in (2, 5)]
        short, long = (run_command(config).payload for config in configs)
        assert [row["noise"] for row in short["samples"]] == ["random[0]", "random[1]"]
        assert short["samples"] == long["samples"][:2]
        noises = [random_density_matrix((2, 2, 2), np.random.default_rng([SCAN["seed"], s])) for s in range(5)]
        scan = mixing_scan(shifts_family(PI4), noises, configs[1]["cut"], SCAN["epsilon_grid"])
        assert [row["compression_eigenvalues"] for row in long["samples"]] == scan.compression_eigenvalues.tolist()

    # random dim 5 and planted dim 3 take the exact solve, random and planted dim 6 one exact hit per restart
    @pytest.mark.parametrize("kind, dim", [("random", 5), ("planted", 3), ("random", 6), ("planted", 6)])
    def test_hunt_sample_s_draws_from_its_counter_seed(self, kind, dim):
        raw = {**HUNT, "subspace_kind": kind, "subspace_dim": dim, "restarts": 8}
        one, three = (run_command(parse_config({**raw, "samples": n})).payload for n in (1, 3))
        assert [row["index"] for row in three["samples"]] == [0, 1, 2]
        assert one["samples"] == three["samples"][:1]
        # sample s hunts the span drawn from default_rng([seed, s]), with seed [seed, s]
        for s, row in enumerate(three["samples"]):
            rng = np.random.default_rng([HUNT["seed"], s])
            if kind == "planted":
                vecs = [expand_locals(random_product_vector((2, 2, 2), rng)) for _ in range(dim)]
            else:
                vecs = list((rng.standard_normal((8, dim)) + 1j * rng.standard_normal((8, dim))).T)
            result = subspace_product_hunt(span_projector(vecs), (2, 2, 2), restarts=8, seed=[HUNT["seed"], s])
            assert (row["distinct_count"], row["rank"]) == (result.distinct_count, result.rank)
            assert row["overlaps"] == list(result.overlaps)

    def test_subspace_hunt_overlaps_are_at_most_one(self):
        # the exact solve's overlaps <phi|P|phi> of hits in the span round to either side of 1
        raw = json.loads((SCRIPTS / "configs" / "subspace_hunt_dim5.json").read_text())
        overlaps = [x for row in run_command(parse_config(raw)).payload["samples"] for x in row["overlaps"]]
        assert len(overlaps) == 48
        assert max(overlaps) <= 1.0

    def test_commands_take_their_parties_from_their_upb(self, monkeypatch):
        # a two-qutrit UPB of five members in place of the family: the cut sides, the noise state and the
        # hunt's parties and dimension are its own
        monkeypatch.setattr(cli, "shifts_family", lambda angles: tiles_upb())
        build = run_command(parse_config(make_config())).payload
        assert [(row["side_a"], row["side_b"]) for row in build["ppt"]] == [([0], [1])]
        scan = run_command(parse_config({**SCAN, "cut": [0]})).payload
        assert scan["cut"] == {"side_a": [0], "side_b": [1]}
        assert scan["verdict_counts"]["PPT_PRESERVING"] == 1
        hunt = run_command(parse_config({**UPB_HUNT, "restarts": 8})).payload
        assert hunt["dim"] == 4

    def test_witness_radius_check_lies_on_the_ray(self):
        # with q = tr(W sigma) = |d| / r, tr(W (rho + t sigma) / (1 + t)) = (d + t q) / (1 + t), so
        # the checks at t = r / 2 and t = 2 r read 0.5 d / (1 + 0.5 r) and -d / (1 + 2 r)
        rng = np.random.default_rng(2121)
        labels = [",".join(mu) for mu in basis_labels(3)]
        raws = [json.loads((SCRIPTS / "configs" / f"witness_radius_{name}.json").read_text())
                for name in ("direction", "uniform")]
        for seed in range(20):
            weights = rng.random(64)
            weights /= weights.sum()
            raws.append({**RADIUS, "seed": seed, "restarts": 16, "direction": dict(zip(labels, weights.tolist()))})
        # one label: radius ~1.87, so the outside check puts weight ~3.7 on one projector
        raws.append({**RADIUS, "angles": [0.785, 0.785, 0.785], "direction": {"0,1,phi1": 1.0}, "restarts": 16})
        for raw in raws:
            payload = run_command(parse_config(raw)).payload
            d, r, check = payload["detected_value"], payload["radius"], payload["check"]
            assert r == abs(d) / payload["denominator"]
            assert check["inside_value"] < 0 <= check["outside_value"]
            assert abs(check["inside_value"] - 0.5 * d / (1 + 0.5 * r)) <= 1e-15
            assert abs(check["outside_value"] + d / (1 + 2 * r)) <= 1e-15


SCHEMA_CONFIGS = {"build": make_config(), "certify": ALL_COMMAND_CONFIGS["certify"], "subspace-hunt": HUNT,
                  "witness-radius": RADIUS}
DELETE = object()

# (command, path to the value a row replaces or deletes, its new value, message the SchemaError must
# match); the empty path replaces the whole report
SCHEMA_REJECTED = [
    named("build-path0-x", "build", ("payload", "spectrum", 0), "x",
          r"payload.spectrum\[0\]: expected number, got str"),
    named("build-path1-1", "build", ("payload", "ppt", 0, "ppt"), 1, r"payload.ppt\[0\].ppt: expected bool, got int"),
    named("build-path2-value2", "build", ("payload", "ppt", 0), [], r"payload.ppt\[0\]: expected object, got list"),
    named("build-path3-1.0", "build", ("payload", "spectrum"), 1.0, "payload.spectrum: expected array, got float"),
    named("build-path4-value4", "build", ("payload", "members", 0, 0, 0), [1.0],
          r"payload.members\[0\]\[0\]\[0\]: expected \[re, im\] pair"),
    named("subspace-hunt-path5-value5", "subspace-hunt", ("payload", "histogram"), [],
          "payload.histogram: expected object, got list"),
    named("subspace-hunt-path6-value6", "subspace-hunt", ("payload", "histogram"), {1: 1},
          "payload.histogram: non-string key 1"),
    named("witness-radius-path7-5", "witness-radius", ("payload", "direction"), 5,
          "payload.direction: no schema alternative matched"),
    named("build-path8-value8", "build", (), [], "report must be an object"),
    named("build-path9-value9", "build", ("meta",), DELETE, "report: missing top-level field 'meta'"),
    named("build-path10-value10", "build", ("config", "command"), DELETE, "config: missing command"),
    named("build-path11-summon", "build", ("config", "command"), "summon", "config.command: unknown command 'summon'"),
    # a bool is no number; the open histogram object checks its values; a pair's entry carries its whole
    # path; an alternative's own failure gives way to the alternatives' message; meta is checked too
    named("build-path12-True", "build", ("payload", "rank"), True, "payload.rank: expected int, got bool"),
    named("build-path13-False", "build", ("payload", "spectrum", 0), False,
          r"payload.spectrum\[0\]: expected number, got bool"),
    named("subspace-hunt-path14-1.5", "subspace-hunt", ("payload", "histogram", "6"), 1.5,
          "payload.histogram.6: expected int, got float"),
    named("build-path15-0", "build", ("payload", "members", 2, 1, 0, 1), "0",
          r"payload.members\[2\]\[1\]\[0\]\[1\]: expected number, got str"),
    named("witness-radius-path16-null", "witness-radius", ("payload", "check"), "null",
          "payload.check: no schema alternative matched"),
    named("witness-radius-path17-None", "witness-radius", ("payload", "check", "inside_value"), None,
          "payload.check: no schema alternative matched"),
    named("build-path18-0.1", "build", ("meta", "elapsed_seconds"), "0.1",
          "meta.elapsed_seconds: expected number, got str"),
    # unknown keys of mixed types, which an in-memory dict may hold, are named strings first in their own
    # order (which repr would reverse here), then the others by repr
    named("build-path19-value19", "build", (), {"z'": 0, "a": 0, 1: 0, "config": {}, "payload": {}, "meta": {}},
          r"""report: unknown top-level fields \['a', "z'", 1\]"""),
    named("build-path20-value20", "build", ("payload",), {1: 0, "z": 0, (2,): 0},
          r"payload: unknown fields \['z', \(2,\), 1\]"),
    # an unhashable command is an unknown one; a Python complex is no [re, im] pair, though its type is
    # exactly the spec's
    named("build-path21-value21", "build", ("config", "command"), [], r"config.command: unknown command \[\]"),
    named("build-path22-value22", "build", ("config", "command"), {"a": 1},
          r"config.command: unknown command \{'a': 1\}"),
    named("build-path23-1j", "build", ("payload", "members", 0, 0, 0), 1j,
          r"payload.members\[0\]\[0\]\[0\]: expected \[re, im\] pair"),
    # one field too many or too few in an otherwise whole report
    named("build-path24-1", "build", ("payload", "surprise"), 1, r"^payload: unknown fields \['surprise'\]$"),
    named("build-path25-value25", "build", ("debug",), {}, r"^report: unknown top-level fields \['debug'\]$"),
    named("build-path26-value26", "build", ("payload", "rank"), DELETE, r"^payload: missing fields \['rank'\]$"),
]


@pytest.fixture(scope="module")
def rendered_reports():
    return {command: run_command(parse_config(raw)).render() for command, raw in SCHEMA_CONFIGS.items()}


class TestSchema:
    @pytest.mark.parametrize("command, path, value, message", SCHEMA_REJECTED)
    def test_rejected(self, rendered_reports, command, path, value, message):
        report = json.loads(rendered_reports[command])
        validate_report(report)
        if not path:
            report = value
        else:
            *head, last = path
            target = report
            for key in head:
                target = target[key]
            if value is DELETE:
                del target[last]
            else:
                target[last] = value
        with pytest.raises(SchemaError, match=message):
            validate_report(report)

    def test_numbers_of_other_types_pass(self, rendered_reports):
        # a number slot takes a float subclass and an int, not only an exact float
        build = json.loads(rendered_reports["build"])
        build["payload"]["spectrum"][:2] = [np.float64(0.5), 1]
        validate_report(build)
        certify = json.loads(rendered_reports["certify"])
        certify["payload"]["max_overlap"] = np.float64(certify["payload"]["max_overlap"])
        validate_report(certify)

    def test_null_check_is_an_alternative(self, rendered_reports):
        report = json.loads(rendered_reports["witness-radius"])
        report["payload"]["check"] = None
        validate_report(report)


def run_cli(tmp_path, raw, *extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "upbkit", "--config", str(cfg), *extra],
        capture_output=True,
        text=True,
    )
    return proc


class TestEndToEnd:
    def test_run_all_script_imports_the_checkout(self, tmp_path):
        # loaded under another name, so its main block, which writes scripts/out, does not run
        root = pathlib.Path(__file__).resolve().parent.parent
        code = "import runpy, sys; runpy.run_path(sys.argv[1]); print(sys.modules['upbkit'].__file__)"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(root / "scripts" / "run_all.py")],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert (root / "src") in pathlib.Path(proc.stdout.strip()).resolve().parents

    def test_importing_the_cli_builds_no_state(self):
        # the noise and direction states are built on first use, not at import: no projector basis
        # (the uniform direction state's) and no NPT fixture
        code = (
            "from upbkit import cli, states\n"
            "from upbkit.perturbation import entangled_pair_noise\n"
            "print(states.projector_basis.cache_info().currsize, flush=True)\n"
            "print(entangled_pair_noise.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "0"], proc.stderr

    def test_report_is_one_line(self, tmp_path):
        rendered = run_command(parse_config(make_config())).render()
        stdout = run_cli(tmp_path, make_config()).stdout
        for text in (rendered, stdout):
            assert text.endswith("}\n") and text.count("\n") == 1

    def test_out_flag_writes_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "report.json"
        proc = run_cli(tmp_path, make_config(), "--out", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        validate_report(json.loads(out.read_text()))
        # in process too: without --out the report goes to stdout, and python -m upbkit
        # runs the package's __main__, which exits with main's status
        cfg = tmp_path / "config.json"
        assert cli.main(["--config", str(cfg)]) == 0
        validate_report(json.loads(capsys.readouterr().out))
        out.unlink()
        monkeypatch.setattr(sys, "argv", ["upbkit", "--config", str(cfg), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("upbkit", run_name="__main__")
        assert exit_info.value.code == 0 and capsys.readouterr().out == ""
        validate_report(json.loads(out.read_text()))

    def test_invalid_config_exit_code(self, tmp_path):
        proc = run_cli(tmp_path, make_config(angles=[0.0, 0.7, 1.1]))
        assert proc.returncode == 1
        assert "invalid config" in proc.stderr

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{nope")
        proc = subprocess.run(
            [sys.executable, "-m", "upbkit", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        # a JSON value that is not an object, a missing config and an unwritable --out exit 1 too
        cfg.write_text("[1, 2]")
        assert cli.main(["--config", str(cfg)]) == 1
        assert "invalid config: config must be a JSON object" in capsys.readouterr().err
        assert cli.main(["--config", str(tmp_path / "missing.json")]) == 1
        cfg.write_text(json.dumps(make_config()))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "invalid config" in capsys.readouterr().err
        # an integer beyond float range is an invalid config, not a traceback
        cfg.write_text(json.dumps(make_config(angles=[0.3, 0.7, 10**400])))
        assert cli.main(["--config", str(cfg)]) == 1
        assert "invalid config: angles value is out of float range" in capsys.readouterr().err
        # so is a key repeated within one object, whose last value json would keep, and nesting too deep to read
        scan = json.dumps(local_noise({"0,0,0": 0.4}))
        for text, message in (
            (scan.replace('"seed": 1', '"seed": 1, "seed": 2'), "key 'seed' appears twice in one JSON object"),
            (scan.replace('"0,0,0": 0.4', '"0,0,0": 0.4, "0,0,0": 0.6'), "key '0,0,0' appears twice"),
            ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
        ):
            cfg.write_text(text)
            assert cli.main(["--config", str(cfg)]) == 1
            assert f"invalid config: {message}" in capsys.readouterr().err

    def test_programming_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        # exit 1 means an invalid config: a ValueError raised inside a command is a bug, not one
        def buggy(config):
            raise ValueError("bug inside a command")

        monkeypatch.setitem(cli._RUNNERS, "build", buggy)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(make_config()))
        with pytest.raises(ValueError, match="bug inside a command"):
            cli.main(["--config", str(cfg)])

    def test_certification_failure_exit_code(self, tmp_path, capsys):
        # valid angles near a face: a proven UPB (margin 7.1e-5), but the seesaw finds a
        # product vector within ~1e-9 of the complement, so no floor survives the safety margin
        raw = {
            "command": "certify",
            "seed": 3,
            "angles": [1e-4, math.pi / 4, math.pi / 4],
            "restarts": 32,
        }
        proc = run_cli(tmp_path, raw)
        assert proc.returncode == 3
        assert "certification failure: seesaw overlap" in proc.stderr
        assert "floor vanished after the safety margin" in proc.stderr
        cfg = tmp_path / "config.json"
        assert cli.main(["--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "certification failure: seesaw overlap" in captured.err
        assert "floor vanished after the safety margin" in captured.err

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # a command-line usage error is an invalid invocation (1), not a numerical guard trip (2)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(make_config()))
        for argv, message in (
            (["--config", str(cfg), "--bogus"], "unrecognized arguments: --bogus"),
            (["--config", str(cfg), "--seed", "99"], "unrecognized arguments: --seed 99"),
            (["--config", str(cfg), "--restarts", "8"], "unrecognized arguments: --restarts 8"),
            ([], "the following arguments are required: --config"),
            (["--config", str(cfg), "--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
        ):
            assert cli.main(argv) == 1
            assert message in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: upbkit")
        proc = run_cli(tmp_path, make_config(), "--tol", "1e-6")
        assert proc.returncode == 1 and proc.stdout == ""

    def test_numerical_guard_exit_code(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise ConvergenceError("sweeps exhausted")

        monkeypatch.setitem(cli._RUNNERS, "build", explode)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(make_config()))
        assert cli.main(["--config", str(cfg)]) == 2

        # a seesaw whose objective drops is a numerical guard trip that names its restart
        lower_top_eigenvalue(monkeypatch, at_call=4, restart=1)
        cfg.write_text(json.dumps(ALL_COMMAND_CONFIGS["certify"]))
        assert cli.main(["--config", str(cfg)]) == 2
        assert "restart 1" in capsys.readouterr().err

        # a bare AssertionError is a programming error and keeps its traceback
        def buggy(config):
            raise AssertionError("invariant broken")

        monkeypatch.setitem(cli._RUNNERS, "build", buggy)
        cfg.write_text(json.dumps(make_config()))
        with pytest.raises(AssertionError, match="invariant broken"):
            cli.main(["--config", str(cfg)])

        # so is a payload that breaks the report schema, whether by an extra field or a
        # numpy integer that is not a JSON int
        def extra_field(config):
            return {**cli.cmd_rank_mixtures(config), "extra": 1}

        def numpy_rank(config):
            return {**cli.cmd_rank_mixtures(config), "rank_first": np.int64(4)}

        cfg.write_text(json.dumps(ALL_COMMAND_CONFIGS["rank-mixtures"]))
        for runner, message in ((extra_field, "unknown fields"), (numpy_rank, "expected int")):
            monkeypatch.setitem(cli._RUNNERS, "rank-mixtures", runner)
            with pytest.raises(SchemaError, match=message):
                cli.main(["--config", str(cfg)])


class TestBenchmarkHarness:
    """The package names ``perfbench/`` binds, so that deleting one fails the suite and not only the benchmark.

    No test here calls ``Tracer.install()``: it rewrites the package's module
    attributes for the rest of the session.
    """

    @pytest.fixture
    def perfbench(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import run
        import tracing
        import workloads

        return run, tracing, workloads

    def test_run_job_statuses_on_certify_jobs(self, perfbench):
        # a core job and a near-face job certify and pass the benchmark's check; the job at
        # (0.1, pi/2 - 0.1, 0.1), whose seesaw floor does not survive the safety margin, exits 3
        # through run_job's except clauses, which evaluate cli.ConvergenceError and
        # cli.PositivityError on the way
        run, _, workloads = perfbench
        checks = importlib.import_module("checks")
        near_face = {tuple(angles) for angles, _ in workloads.FAILING_ANGLES}
        certify = [job for job in workloads.job_list("certify", 1) if job["command"] == "certify"]
        core = next(job for job in certify if tuple(job["angles"]) not in near_face)
        passing = next(job for job in certify if tuple(job["angles"]) == (0.05, 0.05, 0.05))
        failing = next(job for job in certify if tuple(job["angles"]) == (0.1, math.pi / 2 - 0.1, 0.1))
        for job in (core, passing):
            status, text = run.run_job(cli, job)
            assert status == 0
            assert checks.check_job(job, status, json.loads(text)["payload"]) == []
        assert run.run_job(cli, failing)[0] == 3

    def test_no_hunt_job_reaches_the_seesaw(self, perfbench, seesaw_calls, polish_calls):
        # the benchmark's hunt jobs and the sample hunt configs are answered by proof or by the exact three-qubit
        # solves, every exact point within the residual rule as solved, so no change to the seesaw fallback or to
        # the polish moves their payloads
        run, _, workloads = perfbench
        configs = sorted((SCRIPTS / "configs").glob("subspace_hunt_*.json"))
        assert len(configs) == 2
        for job in workloads.job_list("hunt", 1) + [json.loads(path.read_text()) for path in configs]:
            assert run.run_job(cli, job)[0] == 0
        assert seesaw_calls == []
        assert polish_calls == []

    def test_bound_names(self, perfbench):
        _, tracing, _ = perfbench
        for name in ("run_command", "parse_config", "ConvergenceError", "PositivityError", "CertificationError"):
            assert hasattr(cli, name), name
        assert callable(cli.Report.render)
        for entry in tracing.SEESAW_ENTRIES:
            module, name = entry.split(".")
            assert module == "upb", entry
            assert "restarts" in inspect.signature(getattr(upb, name)).parameters, entry
        assert isinstance(upb.HuntResult.vectors, property)
        # install() reads each traced module from sys.modules and wraps its public functions, the
        # runners in cli._RUNNERS included; its report_bytes counter keys on reporting.dumps_canonical
        for short in tracing.TRACED_MODULES:
            assert importlib.import_module(f"upbkit.{short}") is sys.modules[f"upbkit.{short}"], short
        assert isinstance(reporting.dumps_canonical, types.FunctionType)
        assert reporting.dumps_canonical.__module__ == "upbkit.reporting"
        # parse_config accepts exactly the commands of cli._RUNNERS
        assert set(cli._RUNNERS) == set(ALL_COMMAND_CONFIGS)
        for name, runner in cli._RUNNERS.items():
            assert isinstance(runner, types.FunctionType) and getattr(cli, runner.__name__) is runner, name
