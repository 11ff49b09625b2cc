import json
import math
import subprocess
import sys

import numpy as np
import pytest

from upbkit import ConvergenceError
from upbkit import cli
from upbkit.cli import ConfigError, parse_config, run_command
from upbkit.reporting import SchemaError, dumps_canonical, validate_report

from conftest import lower_top_eigenvalue

PI4 = [math.pi / 4, math.pi / 4, math.pi / 4]


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


SCAN = {"command": "perturb-scan", "seed": 1, "angles": PI4, "noise": {"kind": "white"},
        "epsilon_grid": [0.01]}
HUNT = {"command": "subspace-hunt", "seed": 1, "subspace_kind": "random", "subspace_dim": 5,
        "samples": 1}
UPB_HUNT = {"command": "subspace-hunt", "seed": 1, "subspace_kind": "upb_complement", "angles": PI4}
RADIUS = {"command": "witness-radius", "seed": 1, "angles": PI4}
RANK = {"command": "rank-mixtures", "seed": 1, "angles": PI4, "angles_second": [0.3, 0.7, 1.1]}


def local_noise(coefficients):
    return {**SCAN, "noise": {"kind": "local", "coefficients": coefficients}}


# (raw config, message the ConfigError must match)
REJECTED = [
    (make_config(angles=[0.3, 0.7]), "angles must be a list of three angles"),
    (make_config(angles=0.3), "angles must be a list of three angles"),
    ({**RADIUS, "direction": {"0,0,2": 1.0}}, r"bad label key '0,0,2': unknown label '2'"),
    (make_config(seed=2**64), r"seed must be an integer in \[0, 18446744073709551615\], got"),
    (make_config(seed=-1), "seed must be an integer in"),
    (make_config(seed=True), "seed must be an integer in"),
    ({"command": "certify", "seed": 1, "angles": PI4, "restarts": 0},
     r"restarts must be an integer in \[1, inf\], got 0"),
    ({"command": "build", "seed": 1}, "build requires angles"),
    ({k: v for k, v in RANK.items() if k != "angles_second"}, "rank-mixtures requires angles_second"),
    ({**SCAN, "epsilon_grid": []}, "perturb-scan requires a nonempty epsilon_grid"),
    ({**SCAN, "cut": 0}, "cut must be a nonempty list of party indices"),
    ({**HUNT, "subspace_kind": "tiles"}, "unknown subspace_kind 'tiles'"),
    ({**UPB_HUNT, "subspace_dim": 4}, "drop subspace_dim/samples"),
    ({**UPB_HUNT, "samples": 1}, "drop subspace_dim/samples"),
    ({**HUNT, "subspace_dim": 0}, r"subspace_dim must be an integer in \[1, 8\], got 0"),
    ({**HUNT, "subspace_dim": 9}, r"subspace_dim must be an integer in \[1, 8\], got 9"),
    ({**HUNT, "samples": 0}, "samples must be an integer in"),
    ({**SCAN, "noise": "white"}, 'noise must be an object with a "kind" field'),
    ({**SCAN, "noise": {"kind": ["white"]}}, r"unknown noise kind \['white'\]"),
    ({**SCAN, "noise": {"kind": "white", "count": 1}}, r"white noise takes exactly the fields \['kind'\]"),
    ({**SCAN, "noise": {"kind": "random"}}, r"random noise takes exactly the fields \['count', 'kind'\]"),
    ({**SCAN, "noise": {"kind": "random", "count": 0}}, "noise count must be an integer in"),
    ({**SCAN, "noise": {"kind": "local", "coefficients": {"0,0,0": 1.0}, "count": 1}},
     "local noise takes exactly the fields"),
    (local_noise({}), "noise coefficients must be a nonempty label->weight object, got {}"),
    (local_noise({"0,0,0": 0.5, "1,1,1": -0.5}), "noise coefficients must have positive total weight"),
    ({**RADIUS, "direction": "gaussian"}, "direction must be a nonempty label->weight object, got 'gaussian'"),
    ({**RADIUS, "direction": [1.0]}, r"direction must be a nonempty label->weight object, got \[1.0\]"),
    ({**RADIUS, "direction": {"0,0,0": 1.5, "1,1,1": -0.5}}, "direction weights must be nonnegative"),
    (local_noise({"0,0,0": 1, "1,1,1": -0.5}), "local noise operator is not a state"),
    # JSON values of the wrong type that a lenient float() or int() would accept
    ({**SCAN, "cut": [1.9]}, r"cut index must be an integer in \[0, 2\], got 1.9"),
    ({**SCAN, "cut": [True]}, "cut index must be an integer in"),
    ({**SCAN, "cut": ["2"]}, "cut index must be an integer in"),
    (make_config(angles=[True, 0.7, 1.1]), "angles value must be a number, got True"),
    ({**SCAN, "epsilon_grid": ["0.01"]}, "epsilon_grid value must be a number, got '0.01'"),
    ({**RADIUS, "direction": {"0,0,0": True}}, r"direction\['0,0,0'\] must be a number, got True"),
    (local_noise({"0,0,0": "1"}), r"noise coefficients\['0,0,0'\] must be a number, got '1'"),
    # integers beyond float range, and two keys that name one label
    (make_config(angles=[0.3, 0.7, 10**400]), "angles value is out of float range"),
    ({**SCAN, "epsilon_grid": [10**400]}, "epsilon_grid value is out of float range"),
    ({**RADIUS, "direction": {"0,0,0": 10**400}}, r"direction\['0,0,0'\] is out of float range"),
    (local_noise({"0,0,0": 0.5, " 0,0,0": 0.25, "1,1,1": 0.25}),
     "noise coefficients keys '0,0,0' and ' 0,0,0' both name the label '0,0,0'"),
    ({**RADIUS, "direction": {"0,phi1,1": 0.5, "0, phi1, 1": 0.5}},
     "direction keys '0,phi1,1' and '0, phi1, 1' both name the label '0,phi1,1'"),
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

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(make_config(extra_knob=1))

    def test_missing_seed_rejected(self):
        raw = make_config()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(raw)

    def test_boundary_angle_rejected(self):
        with pytest.raises(ConfigError, match="degenerates"):
            parse_config(make_config(angles=[0.0, 0.7, 1.1]))

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(make_config(command="summon"))

    def test_identical_rank_mixture_params_rejected(self):
        raw = {
            "command": "rank-mixtures",
            "seed": 1,
            "angles": PI4,
            "angles_second": PI4,
        }
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(raw)

    def test_epsilon_grid_bounds(self):
        raw = {
            "command": "perturb-scan",
            "seed": 1,
            "angles": PI4,
            "noise": {"kind": "white"},
            "epsilon_grid": [0.5],
        }
        with pytest.raises(ConfigError, match="epsilon_grid"):
            parse_config(raw)

    def test_bad_noise_kind(self):
        raw = {
            "command": "perturb-scan",
            "seed": 1,
            "angles": PI4,
            "noise": {"kind": "thermal"},
            "epsilon_grid": [0.01],
        }
        with pytest.raises(ConfigError, match="noise kind"):
            parse_config(raw)
        for bad in (math.nan, math.inf):
            raw["noise"] = {"kind": "local", "coefficients": {"0,phi1,1": bad}}
            with pytest.raises(ConfigError, match="finite"):
                parse_config(raw)
        for bad in (None, [1], {"x": 1}):
            raw["noise"] = {"kind": "local", "coefficients": {"0,phi1,1": bad}}
            with pytest.raises(ConfigError, match="must be a number"):
                parse_config(raw)
        raw["noise"] = {"kind": "white"}
        raw["epsilon_grid"] = [0.01, None]
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(raw)
        for key in ("phi1,phi2", "0,1,0,1"):
            raw["noise"] = {"kind": "local", "coefficients": {"0,1,0": 1.0, key: 0.0}}
            with pytest.raises(ConfigError, match=key):
                parse_config(raw)

    def test_direction_must_sum_to_one(self):
        raw = {
            "command": "witness-radius",
            "seed": 1,
            "angles": PI4,
            "direction": {"0,0,0": 0.7},
        }
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(raw)
        for bad in (math.nan, math.inf):
            raw["direction"] = {"0,0,0": bad}
            with pytest.raises(ConfigError, match="finite"):
                parse_config(raw)
        for bad in (None, [1], {"x": 1}):
            raw["direction"] = {"0,0,0": bad}
            with pytest.raises(ConfigError, match="must be a number"):
                parse_config(raw)
        for key in ("phi1,phi2", "0,1,0,1"):
            raw["direction"] = {"0,0,0": 0.5, key: 0.5}
            with pytest.raises(ConfigError, match=key):
                parse_config(raw)

    def test_bad_cut_rejected(self):
        raw = {
            "command": "perturb-scan",
            "seed": 1,
            "angles": PI4,
            "noise": {"kind": "white"},
            "epsilon_grid": [0.01],
            "cut": [0, 1, 2],
        }
        with pytest.raises(ConfigError, match="cut"):
            parse_config(raw)

    def test_tolerances_rejected(self):
        # every tolerance is fixed at its library default; there is no config knob for one
        with pytest.raises(ConfigError, match=r"unknown config fields for build: \['tolerances'\]"):
            parse_config(make_config(tolerances={"rank_tol": 1e-8}))
        # only the commands that run the seesaw take restarts
        for name in ("build", "perturb-scan", "rank-mixtures"):
            raw = {**ALL_COMMAND_CONFIGS[name], "restarts": 64}
            with pytest.raises(ConfigError, match=rf"unknown config fields for {name}: \['restarts'\]"):
                parse_config(raw)
        for name in ("certify", "subspace-hunt", "witness-radius"):
            raw = {k: v for k, v in ALL_COMMAND_CONFIGS[name].items() if k != "restarts"}
            assert parse_config(raw)["restarts"] == 64

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
    @pytest.mark.parametrize("name", sorted(ALL_COMMAND_CONFIGS))
    def test_runs_validates_and_repeats_identically(self, name):
        config = parse_config(dict(ALL_COMMAND_CONFIGS[name]))
        first = run_command(config)
        second = run_command(config)
        assert dumps_canonical(first.payload) == dumps_canonical(second.payload)
        parsed = json.loads(first.render())
        assert parsed == {"config": first.config, "payload": first.payload, "meta": first.meta}
        validate_report(parsed)
        assert parse_config(first.config) == config

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

    def test_build_payload_values(self):
        report = run_command(parse_config(make_config()))
        payload = report.payload
        assert payload["rank"] == 4
        spectrum = np.array(payload["spectrum"])
        assert np.max(np.abs(spectrum - np.array([0] * 4 + [0.25] * 4))) < 1e-10
        assert [row["ppt"] for row in payload["ppt"]] == [True, True, True]
        assert len(payload["members"]) == 4

    def test_build_spectrum_is_angle_independent(self):
        other = run_command(parse_config(make_config(angles=[0.3, 0.7, 1.1])))
        spectrum = np.array(other.payload["spectrum"])
        assert np.max(np.abs(spectrum - np.array([0] * 4 + [0.25] * 4))) < 1e-10

    def test_certify_payload_values(self):
        report = run_command(parse_config(dict(ALL_COMMAND_CONFIGS["certify"])))
        payload = report.payload
        assert payload["certified"] is True
        assert payload["max_overlap"] < 1 - 1e-3
        assert abs(payload["witness_trace"] - 1.0) < 1e-12
        assert payload["witness_detected_value"] < -1e-6

    def test_scan_counts_and_error_columns(self):
        raw = {
            "command": "perturb-scan",
            "seed": 5,
            "angles": PI4,
            "noise": {"kind": "white"},
            "epsilon_grid": [0.01, 0.005, 0.0025],
        }
        payload = run_command(parse_config(raw)).payload
        assert payload["verdict_counts"]["PPT_PRESERVING"] == 1
        rows = payload["samples"][0]["per_epsilon"]
        errors = [row["abs_error"] for row in rows]
        # quadratic shrinkage along the grid
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)

    def test_scan_npt_fixture(self):
        raw = {
            "command": "perturb-scan",
            "seed": 5,
            "angles": PI4,
            "noise": {"kind": "npt_projector"},
            "epsilon_grid": [0.001],
        }
        payload = run_command(parse_config(raw)).payload
        sample = payload["samples"][0]
        assert sample["verdict"] == "NPT_INDUCING"
        assert sample["per_epsilon"][0]["exact_min"] < -1e-9

    def test_scan_local_noise(self):
        raw = {
            "command": "perturb-scan",
            "seed": 5,
            "angles": PI4,
            "noise": {"kind": "local", "coefficients": {"0,0,0": 0.5, "1,1,1": 0.5}},
            "epsilon_grid": [0.01],
        }
        payload = run_command(parse_config(raw)).payload
        assert payload["samples"][0]["noise"] == "local"

    def test_rank_mixture_payload(self):
        payload = run_command(parse_config(dict(ALL_COMMAND_CONFIGS["rank-mixtures"]))).payload
        assert payload["rank_first"] == 4
        assert payload["rank_second"] == 4
        assert payload["rank_equal_mixture"] >= 6
        assert payload["rank_state_plus_member"] == 5

    def test_subspace_hunt_planted(self):
        raw = {
            "command": "subspace-hunt",
            "seed": 2,
            "subspace_kind": "planted",
            "subspace_dim": 5,
            "samples": 1,
            "restarts": 128,
        }
        payload = run_command(parse_config(raw)).payload
        assert payload["samples"][0]["distinct_count"] == 6
        assert payload["samples"][0]["rank"] == 5

    def test_subspace_hunt_upb_complement(self):
        raw = {
            "command": "subspace-hunt",
            "seed": 2,
            "subspace_kind": "upb_complement",
            "angles": PI4,
            "restarts": 64,
        }
        payload = run_command(parse_config(raw)).payload
        assert payload["dim"] == 4
        assert payload["samples"][0]["distinct_count"] == 0
        assert payload["histogram"] == {"0": 1}

    def test_witness_radius_payload(self, tmp_path):
        single_label = {
            "command": "witness-radius",
            "seed": 1,
            "angles": [0.785, 0.785, 0.785],
            # radius ~1.87, so the outside check puts weight ~3.7 on one projector
            "direction": {"0,1,phi1": 1.0},
            "restarts": 16,
        }
        cfg = tmp_path / "config.json"
        out = tmp_path / "report.json"
        for raw in (ALL_COMMAND_CONFIGS["witness-radius"], single_label):
            cfg.write_text(json.dumps(raw))
            assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())["payload"]
            assert 0 < payload["radius"] < math.inf
            assert payload["check"]["inside_value"] < 0 <= payload["check"]["outside_value"]


SCHEMA_CONFIGS = {"build": make_config(), "subspace-hunt": HUNT, "witness-radius": RADIUS}
DELETE = object()

# (command, path to the value a row replaces or deletes, its new value, message the SchemaError must
# match); the empty path replaces the whole report
SCHEMA_REJECTED = [
    ("build", ("payload", "spectrum", 0), "x", r"payload.spectrum\[0\]: expected number, got str"),
    ("build", ("payload", "ppt", 0, "ppt"), 1, r"payload.ppt\[0\].ppt: expected bool, got int"),
    ("build", ("payload", "ppt", 0), [], r"payload.ppt\[0\]: expected object, got list"),
    ("build", ("payload", "spectrum"), 1.0, "payload.spectrum: expected array, got float"),
    ("build", ("payload", "members", 0, 0, 0), [1.0], r"payload.members\[0\]\[0\]\[0\]: expected \[re, im\] pair"),
    ("subspace-hunt", ("payload", "histogram"), [], "payload.histogram: expected object, got list"),
    ("subspace-hunt", ("payload", "histogram"), {1: 1}, "payload.histogram: non-string key 1"),
    ("witness-radius", ("payload", "direction"), 5, "payload.direction: no schema alternative matched"),
    ("build", (), [], "report must be an object"),
    ("build", ("meta",), DELETE, "report: missing top-level field 'meta'"),
    ("build", ("config", "command"), DELETE, "config: missing command"),
    ("build", ("config", "command"), "summon", "config.command: unknown command 'summon'"),
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

    def test_unknown_payload_field_rejected(self):
        report = json.loads(run_command(parse_config(make_config())).render())
        report["payload"]["surprise"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            validate_report(report)

    def test_unknown_top_level_field_rejected(self):
        report = json.loads(run_command(parse_config(make_config())).render())
        report["debug"] = {}
        with pytest.raises(SchemaError, match="top-level"):
            validate_report(report)

    def test_missing_payload_field_rejected(self):
        report = json.loads(run_command(parse_config(make_config())).render())
        del report["payload"]["rank"]
        with pytest.raises(SchemaError, match="missing fields"):
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
    def test_build_round_trip_and_determinism(self, tmp_path):
        first = run_cli(tmp_path, make_config())
        second = run_cli(tmp_path, make_config())
        assert first.returncode == 0
        report = json.loads(first.stdout)
        validate_report(report)
        payload_bytes = dumps_canonical(report["payload"]).encode()
        payload_bytes_again = dumps_canonical(json.loads(second.stdout)["payload"]).encode()
        assert payload_bytes == payload_bytes_again
        # the raw payload text region is itself identical between runs
        assert first.stdout.split('"payload"')[1].rsplit('"meta"')[0] == (
            second.stdout.split('"payload"')[1].rsplit('"meta"')[0]
        )

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(tmp_path, make_config(), "--out", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
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

    def test_certification_failure_exit_code(self, tmp_path):
        # valid but nearly degenerate angles: the complement contains a
        # product vector up to ~1e-9, so certification must refuse
        raw = {
            "command": "certify",
            "seed": 3,
            "angles": [1e-4, math.pi / 4, math.pi / 4],
            "restarts": 32,
        }
        proc = run_cli(tmp_path, raw)
        assert proc.returncode == 3
        assert "certification failure: seesaw found a product vector with overlap" in proc.stderr

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
