"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from loraguard.cli import (
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_READ_ERROR,
    main,
)
import loraguard
from loraguard.scenario import shipped_scenario_path

DEMO = str(shipped_scenario_path("demo_small"))
NOT_APPLICABLE = "validate: not applicable (no gateway sends control downlinks)\n"


@pytest.fixture()
def tiny_scenario(tmp_path):
    doc = {
        "name": "tiny",
        "seed": 3,
        "stop": {"ups": 3},
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1", "rp_period": None,
                     "assignment": {"channel": "867.1 MHz", "sf": 9}}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["ed1"], "times": ["10 s", "40 s", "70 s"]}],
    }
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestAirtime:
    def test_standard_frame(self, capsys):
        assert main(["airtime", "--sf", "9", "--payload", "37"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "airtime_ms=267.264" in out
        assert "exceeds" not in out

    def test_slow_frame_warns_about_the_latency_budget(self, capsys):
        assert main(["airtime", "--sf", "12", "--payload", "37"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "airtime_ms=1974.272" in out
        assert "ldro=on" in out
        assert "exceeds the 500 ms" in out

    def test_invalid_radio_parameters(self, capsys):
        assert main(["airtime", "--sf", "13", "--payload", "37"]) == EXIT_INVALID
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    ARGS = ["analyze", "--senders", "8", "--period-s", "70",
            "--dcp-s", "0.0822", "--up-s", "0.2673"]

    def test_all_methods(self, capsys):
        assert main(self.ARGS + ["--method", "all"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        methods = [line.split()[0] for line in lines]
        assert methods == ["approx", "exact", "marginal"]
        assert "plr=3.9943%" in lines[0]
        assert "[outside validity regime]" in lines[0]  # N*q > 2%
        assert "plr=3.9252%" in lines[1]
        assert "[outside validity regime]" not in lines[1]

    def test_single_method(self, capsys):
        assert main(self.ARGS + ["--method", "exact"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("exact")

    def test_mixture_distributions_are_accepted(self, capsys):
        args = ["analyze", "--senders", "8", "--period-s", "70",
                "--dcp-s", "0.0822:0.5,0.1439:0.5", "--up-s", "0.2673",
                "--method", "marginal"]
        assert main(args) == EXIT_OK
        assert "marginal" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["approx", "exact", "marginal"])
    def test_mixture_probabilities_must_sum_to_one(self, method, capsys):
        assert main(["analyze", "--senders", "8", "--period-s", "70",
                     "--dcp-s", "0.0822:0.5", "--up-s", "0.2673",
                     "--method", method]) == EXIT_INVALID
        assert "dcp probabilities sum to 0.5" in capsys.readouterr().err

    def test_bad_distribution_syntax(self, capsys):
        assert main(["analyze", "--senders", "8", "--period-s", "70",
                     "--dcp-s", "abc", "--up-s", "0.2673"]) == EXIT_INVALID
        assert "bad dcp entry" in capsys.readouterr().err

    def test_saturating_inputs(self, capsys):
        assert main(["analyze", "--senders", "8", "--period-s", "0.1",
                     "--dcp-s", "0.0822", "--up-s", "0.2673"]) == EXIT_INVALID
        assert "saturates" in capsys.readouterr().err


class TestRun:
    def test_json_report_on_stdout(self, tiny_scenario, capsys):
        assert main(["run", tiny_scenario]) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out[:out.rindex("}") + 1])
        assert report["scenario"] == "tiny"
        assert report["kinds"]["UP"]["generated"] == 3
        assert report["kinds"]["UP"]["delivered"] == 3
        assert "UP PLR" in out  # human summary line after the report

    def test_quiet_suppresses_the_summary(self, tiny_scenario, capsys):
        assert main(["--quiet", "run", tiny_scenario]) == EXIT_OK
        out = capsys.readouterr().out
        assert "UP PLR" not in out
        json.loads(out)  # nothing but the report

    def test_quiet_also_accepted_after_the_subcommand(self, tiny_scenario, capsys):
        assert main(["run", tiny_scenario, "--quiet"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "UP PLR" not in out
        json.loads(out)

    def test_csv_format(self, tiny_scenario, capsys):
        assert main(["--quiet", "run", tiny_scenario, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("kinds.UP.generated,") for line in lines)

    def test_out_file_and_seed_override(self, tiny_scenario, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["run", tiny_scenario, "--seed", "42",
                     "--out", str(out_file)]) == EXIT_OK
        assert "report written to" in capsys.readouterr().out
        report = json.loads(out_file.read_text())
        assert report["seed"] == 42

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_READ_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("just: a string\n")
        assert main(["run", str(bad)]) == EXIT_INVALID
        assert "invalid scenario" in capsys.readouterr().err


class TestValidate:
    def test_simulation_agrees_with_the_model(self, capsys):
        assert main(["validate", DEMO]) == EXIT_OK
        out = capsys.readouterr().out
        assert "validate: OK" in out
        assert "predicted" in out

    def test_impossible_tolerance_reports_a_mismatch(self, capsys):
        assert main(["validate", DEMO, "--rel-tolerance", "1e-9"]) == EXIT_MISMATCH
        assert "validate: MISMATCH" in capsys.readouterr().out

    def test_scenario_without_report_traffic_is_not_applicable(
            self, tiny_scenario, capsys):
        assert main(["validate", tiny_scenario]) == EXIT_OK
        assert capsys.readouterr().out == NOT_APPLICABLE

    @pytest.mark.parametrize("name", ["burst_cluster15", "calibration_pairs_sf7",
                                      "calibration_pairs_sf7_sf8"])
    def test_shipped_scenarios_without_reporters_are_not_simulated(
            self, name, monkeypatch, capsys):
        def no_run(*_args, **_kwargs):  # pragma: no cover - reaching this is the failure
            raise AssertionError("validate must decide before it simulates")

        monkeypatch.setattr(loraguard.cli, "Simulation", no_run)
        assert main(["validate", str(shipped_scenario_path(name))]) == EXIT_OK
        assert capsys.readouterr().out == NOT_APPLICABLE


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def write_doc(tmp_path, doc):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def two_device_doc():
    return {
        "name": "pair",
        "stop": {"ups": 2},
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1"}, {"id": "ed2", "cluster": "c1"}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["ed1"], "times": ["10 s", "40 s"]}],
    }


@pytest.mark.parametrize("device,message", [
    ({"rp_payload": -1}, "devices(ed2).rp_payload: -1 outside [0, 255]"),
    ({"assignment": {"channel": "867.1 MHz", "sf": 7}},
     "devices(ed1).assignment: automatic (867.1 MHz, SF7) collides with ed2"),
])
def test_run_rejects_an_invalid_scenario_before_simulating(tmp_path, capsys, device, message):
    doc = two_device_doc()
    doc["devices"][1].update(device)
    assert main(["run", write_doc(tmp_path, doc)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid scenario" in err and message in err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_empty_cluster_is_an_invalid_scenario(tmp_path, capsys, command):
    doc = two_device_doc()
    doc["clusters"].append({"id": "c2", "members": [], "dcp_gateway": "gw1"})
    assert main([command, write_doc(tmp_path, doc)]) == EXIT_INVALID
    assert "clusters(c2).members: empty" in capsys.readouterr().err


def test_validate_rejects_reporters_with_different_period_or_jitter(tmp_path, capsys):
    doc = two_device_doc()
    doc["devices"].append({"id": "ed3", "cluster": "c1", "clock_sigma": "10 ms"})
    doc["devices"][1]["rp_period"] = "30 s"
    doc["clusters"][0]["members"].append("ed3")
    assert main(["validate", write_doc(tmp_path, doc)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "reporters ed2, ed3 differ from ed1" in err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_out_of_range_seed_override_is_an_invalid_scenario(tiny_scenario, capsys, command):
    assert main([command, tiny_scenario, "--seed", "-1"]) == EXIT_INVALID
    assert "seed: -1 outside [0, 9223372036854775807]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_seed_beyond_63_bits_in_the_file_is_rejected(tmp_path, capsys, command):
    doc = two_device_doc()
    doc["seed"] = 2**63
    assert main([command, write_doc(tmp_path, doc)]) == EXIT_INVALID
    assert "seed: 9223372036854775808 outside" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; loading it would triple start-up cost.
    src = str(Path(loraguard.__file__).resolve().parent.parent)
    code = ("import sys, loraguard.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
