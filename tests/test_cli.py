"""Config parsing, scenario execution, artifacts, and exit codes."""
import configparser
import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim.cli import SCENARIOS, ConfigError, main, parse_config, run_scenario
from blochsim.evolve import (FIELD_SAMPLINGS, STEPPERS, initial_amplitudes, run,
                             write_trajectory_csv)

MINIMAL = "[run]\nscenario = single-trotter\n"


def _run_main(tmp_path, text, *extra):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    return main(["run", str(cfg), "--out", str(out), *extra]), out


class TestParsing:
    def test_minimal_config_gets_demo_defaults(self):
        config = parse_config(MINIMAL)
        assert config.scenario == "single-trotter"
        assert config.model.delta_a == 5.0
        assert config.model.delta_b == 1.0
        assert config.model.f_dc == 1.5
        assert config.model.n_sites == 4
        assert config.plan.dt == 0.02
        assert config.plan.stepper == "trotter1"
        assert config.initial == {"kind": "spike", "site": 2}

    def test_explicit_values_override_defaults(self):
        config = parse_config(
            "[run]\nscenario = single-exact\n"
            "[model]\ndelta_a = 2\ndelta_b = 2\nf_dc = 0.2\nn_sites = 128\n"
            "[plan]\ndt = 0.05\nn_steps = 10\n"
            "[initial]\nkind = gaussian\n"
        )
        assert config.model.n_sites == 128
        assert config.plan.dt == 0.05
        assert config.initial == {"kind": "gaussian"}

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match=r"run\.scenario"):
            parse_config("[run]\nlabel = x\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match=r"run\.scenario: unknown scenario"):
            parse_config("[run]\nscenario = warp\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
            parse_config(MINIMAL + "[extra]\nx = 1\n")

    def test_unknown_key_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"model\.hopping: unknown key"):
            parse_config(MINIMAL + "[model]\nhopping = 3\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match=r"model\.delta_a: not a number"):
            parse_config(MINIMAL + "[model]\ndelta_a = strong\n")

    def test_circuit_scenario_requires_power_of_two(self):
        with pytest.raises(ConfigError, match=r"model\.n_sites: must be a power of two"):
            parse_config(MINIMAL + "[model]\nn_sites = 6\n")

    def test_dense_scenario_accepts_any_even_chain(self):
        config = parse_config(
            "[run]\nscenario = single-exact\n[model]\nn_sites = 6\n"
        )
        assert config.model.n_sites == 6

    def test_power_of_two_rule_follows_the_stepper(self):
        # exact-dense takes any even chain; trotter1 and transpile-report lower circuits
        two = "[run]\nscenario = two-particle\n[model]\nn_sites = 6\n"
        assert parse_config(two + "[plan]\nstepper = exact-dense\n").model.n_sites == 6
        for text in (two, "[run]\nscenario = transpile-report\n[model]\nn_sites = 6\n"):
            with pytest.raises(ConfigError, match=r"model\.n_sites: must be a power of two"):
                parse_config(text)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match=r"^plan\.n_steps: must be >= 1, got 0$"):
            parse_config(MINIMAL + "[plan]\nn_steps = 0\n")

    def test_odd_chain_rejected(self):
        with pytest.raises(ConfigError, match=r"model\.n_sites: must be even"):
            parse_config("[run]\nscenario = single-exact\n[model]\nn_sites = 5\n")

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match=r"plan\.dt: must be > 0"):
            parse_config(MINIMAL + "[plan]\ndt = 0\n")

    def test_stepper_scenario_conflict(self):
        with pytest.raises(ConfigError, match=r"plan\.stepper: scenario single-exact"):
            parse_config("[run]\nscenario = single-exact\n[plan]\nstepper = trotter1\n")

    def test_plan_rejected_for_static_scenario(self):
        with pytest.raises(ConfigError, match=r"plan\.dt: scenario spectrum takes no \[plan\]"):
            parse_config("[run]\nscenario = spectrum\n[plan]\ndt = 0.1\n")

    def test_initial_rejected_for_static_scenario(self):
        with pytest.raises(ConfigError, match=r"initial\.kind: scenario ladder takes no \[initial\]"):
            parse_config("[run]\nscenario = ladder\n[initial]\nkind = spike\n")

    def test_two_particle_initial_kind(self):
        with pytest.raises(ConfigError, match=r"initial\.kind: two-particle takes spike2"):
            parse_config("[run]\nscenario = two-particle\n[initial]\nkind = spike\n")

    def test_scenario_extras_validated(self):
        with pytest.raises(ConfigError, match=r"scenario\.k_points"):
            parse_config("[run]\nscenario = dispersion\n[scenario]\nk_points = 1\n")
        with pytest.raises(ConfigError, match=r"scenario\.bands"):
            parse_config("[run]\nscenario = ladder\n[scenario]\nbands = up\n")
        with pytest.raises(ConfigError,
                           match=r"scenario\.t_end: scenario dim2 takes no \[scenario\]"):
            parse_config("[run]\nscenario = dim2\n[scenario]\nt_end = 0.5\n")

    def test_model_y_only_for_dim2(self):
        with pytest.raises(ConfigError,
                           match=r"^model_y\.delta_a: scenario single-trotter takes no \[model_y\]"):
            parse_config(MINIMAL + "[model_y]\ndelta_a = 1\n")

    def test_transpile_report_reads_sample_time_alone(self):
        text = "[run]\nscenario = transpile-report\n"
        assert parse_config(text).extras == {"sample_time": 0.02}
        with pytest.raises(ConfigError,
                           match=r"^plan\.dt: scenario transpile-report takes no \[plan\]$"):
            parse_config(text + "[plan]\ndt = 0.05\n")

    def test_empty_unread_sections_are_tolerated(self):
        config = parse_config("[run]\nscenario = spectrum\n[plan]\n[initial]\n[model_y]\n")
        assert config.plan is None and config.initial == {} and config.model_y is None

    def test_readme_config_block_parses_to_the_defaults(self):
        shown, default = parse_config(_readme_config_block()), parse_config(MINIMAL)
        assert (shown.model, shown.plan, shown.initial) == (
            default.model, default.plan, default.initial)


def _readme_config_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("All sections and keys, with defaults:", 1)[1]
    return after.split("```ini\n", 1)[1].split("```", 1)[0]


_RUN = {"run.label"}
_MODEL = {f"model.{key}" for key in
          ("delta_a", "delta_b", "f_dc", "f_ac", "omega", "v", "n_sites")}
_PLAN = {f"plan.{key}" for key in ("dt", "n_steps", "stepper", "field_sampling")}
_EVOLUTION = _RUN | _MODEL | _PLAN
#: the keys each scenario reads, out of the README block's keys, their
#: [model_y] copies, the keys of _PROBE_VALUES and one bogus key a section
_READS = {
    "single-exact": _EVOLUTION | {"initial.kind", "initial.site"},
    "single-trotter": _EVOLUTION | {"initial.kind", "initial.site"},
    "single-ode": _EVOLUTION | {"initial.kind", "initial.site"},
    "two-particle": _EVOLUTION | {"initial.kind", "initial.site1", "initial.site2"},
    "spectrum": _RUN | _MODEL | {"scenario.f_values"},
    "dispersion": _RUN | _MODEL | {"scenario.k_points"},
    "ladder": _RUN | _MODEL | {f"scenario.{key}" for key in
                               ("f_const", "alpha_min", "alpha_max", "bands")},
    "transpile-report": _RUN | _MODEL | {"scenario.sample_time"},
    "bessel-check": _RUN | _MODEL | {"scenario.n_max", "scenario.x_values"},
    "dim2": _RUN | _MODEL | {key.replace("model.", "model_y.") for key in _MODEL},
}
_PROBE_VALUES = {
    "initial.site1": "1", "initial.site2": "2", "scenario.f_values": "0, 1",
    "scenario.k_points": "11", "scenario.f_const": "1", "scenario.alpha_min": "-2",
    "scenario.alpha_max": "2", "scenario.bands": "+", "scenario.sample_time": "0.1",
    "scenario.n_max": "4", "scenario.x_values": "1.5",
}


def _probe_values() -> dict[str, str]:
    """section.key -> a valid value, for every key the read-set table probes."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_readme_config_block())
    values = {f"{section}.{key}": value for section in parser.sections()
              for key, value in parser.items(section) if (section, key) != ("run", "scenario")}
    values.update({key.replace("model.", "model_y.", 1): value for key, value in values.items()
                   if key.startswith("model.")})
    values.update(_PROBE_VALUES)
    values.update({f"{section}.bogus": "1" for section in
                   ("run", "model", "plan", "initial", "scenario", "model_y")})
    return values


def _accepted_keys(scenario: str) -> set[str]:
    """The probed section.key locations that a config of the scenario accepts."""
    base = parse_config(f"[run]\nscenario = {scenario}\n")
    # the scenario's own default where it has one, so only reading decides
    plan = vars(base.plan) if base.plan else {}
    own = {f"plan.{key}": str(value) for key, value in plan.items()}
    own.update({f"initial.{key}": str(value) for key, value in base.initial.items()})
    accepted = set()
    for location, value in _probe_values().items():
        section, key = location.split(".")
        sections = {"run": {"scenario": scenario}}
        sections.setdefault(section, {})[key] = own.get(location, value)
        try:
            parse_config(_config_text(sections))
        except ConfigError as exc:
            assert str(exc).startswith(f"{location}: "), exc
        else:
            accepted.add(location)
    return accepted


class TestReadSet:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_each_scenario_accepts_exactly_the_keys_it_reads(self, scenario):
        assert _accepted_keys(scenario) == _READS[scenario]


#: values to try for each [plan] and [scenario] key; the choice keys try every choice
_OTHER_VALUES = {
    "plan.dt": ("0.03",), "plan.n_steps": ("7",), "plan.stepper": STEPPERS,
    "plan.field_sampling": FIELD_SAMPLINGS, "scenario.f_values": ("0, 0.5",),
    "scenario.k_points": ("11",), "scenario.f_const": ("2",), "scenario.alpha_min": ("-2",),
    "scenario.alpha_max": ("2",), "scenario.bands": ("+",), "scenario.sample_time": ("0.1",),
    "scenario.n_max": ("4",), "scenario.x_values": ("1.5",),
}
#: the keys that have one legal value: a one-stepper scenario's stepper, RK4's sampling
_ONE_LEGAL_VALUE = {("single-exact", "plan.stepper"), ("single-trotter", "plan.stepper"),
                    ("single-ode", "plan.stepper"), ("single-ode", "plan.field_sampling")}


def _artifacts(config, out: Path) -> dict[str, bytes]:
    """The bytes of every artifact a run writes, but its manifest."""
    return {name: (out / name).read_bytes() for name in run_scenario(config, out)
            if name != "manifest.json"}


class TestEveryKeyCounts:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_each_plan_and_scenario_key_changes_an_artifact(self, tmp_path, scenario):
        # a driven model, so that the field's sample times matter
        base = {"run": {"scenario": scenario}, "model": {"f_ac": "0.5", "omega": "2"}}
        default = parse_config(_config_text(base))
        want = _artifacts(default, tmp_path / "default")
        keys = sorted(key for key in _accepted_keys(scenario)
                      if key.startswith(("plan.", "scenario.")))
        for location in keys:
            section, key = location.split(".")
            others = []
            for value in _OTHER_VALUES[location]:
                try:
                    config = parse_config(_config_text({**base, section: {key: value}}))
                except ConfigError as exc:
                    assert str(exc).startswith(f"{location}: "), exc
                    continue
                if (config.plan, config.extras) != (default.plan, default.extras):
                    others.append((value, config))
            one_legal = (scenario, location) in _ONE_LEGAL_VALUE
            assert bool(others) != one_legal, f"{location}: {len(others)} other legal values"
            for i, (value, config) in enumerate(others):
                got = _artifacts(config, tmp_path / f"{location}-{i}")
                assert got != want, f"{location} = {value} changed no artifact"


class TestScenarioArtifacts:
    def test_single_run_writes_trajectory_series_manifest(self, tmp_path):
        config = parse_config(MINIMAL + "[plan]\nn_steps = 5\n")
        artifacts = run_scenario(config, tmp_path)
        assert artifacts == ["trajectory.csv", "series.csv", "manifest.json"]
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,site,re,im,prob"
        assert len(lines) == 1 + 6 * 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["model"]["delta_a"] == 5.0
        assert manifest["plan"]["n_steps"] == 5
        assert manifest["initial"] == {"kind": "spike", "site": 2}
        assert manifest["outputs"] == ["trajectory.csv", "series.csv"]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_reruns_are_byte_identical(self, tmp_path, scenario):
        config = parse_config(f"[run]\nscenario = {scenario}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        names = run_scenario(config, a)
        assert run_scenario(config, b) == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_two_particle_trajectory(self, tmp_path):
        config = parse_config(
            "[run]\nscenario = two-particle\n[model]\nv = 10\n[plan]\nn_steps = 3\n"
        )
        run_scenario(config, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,site1,site2,prob"
        assert len(lines) == 1 + 4 * 16

    def test_two_particle_trajectory_is_a_stored_state_run(self, tmp_path):
        # the run keeps probabilities alone and writes what a full run writes
        config = parse_config("[run]\nscenario = two-particle\n"
                              "[model]\nf_ac = 0.5\nomega = 2\n[plan]\nn_steps = 20\n")
        assert not config.plan.store_states
        run_scenario(config, tmp_path / "cli")
        kind, *sites = config.initial.values()
        traj = run(initial_amplitudes(kind, config.model, *sites), config.model,
                   dataclasses.replace(config.plan, store_states=True))
        write_trajectory_csv(traj, tmp_path / "library.csv")
        assert ((tmp_path / "cli" / "trajectory.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes())

    def test_two_particle_exact_dense_on_a_six_site_chain(self, tmp_path):
        config = parse_config("[run]\nscenario = two-particle\n[model]\nn_sites = 6\n"
                              "[plan]\nstepper = exact-dense\nn_steps = 3\n")
        run_scenario(config, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 36

    def test_spectrum_csv(self, tmp_path):
        config = parse_config(
            "[run]\nscenario = spectrum\n[model]\nn_sites = 20\n"
            "[scenario]\nf_values = 0, 1\n"
        )
        run_scenario(config, tmp_path)
        data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert data.shape == (40, 3)
        assert set(np.unique(data[:, 0])) == {0.0, 1.0}

    def test_dispersion_csv(self, tmp_path):
        config = parse_config(
            "[run]\nscenario = dispersion\n[scenario]\nk_points = 11\n"
        )
        run_scenario(config, tmp_path)
        data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert data.shape == (11, 3)
        np.testing.assert_allclose(data[:, 1], -data[:, 2], atol=1e-14)

    def test_ladder_csv_and_offsets(self, tmp_path):
        config = parse_config(
            "[run]\nscenario = ladder\n[model]\nn_sites = 20\n"
            "[scenario]\nf_const = 1\nalpha_min = -3\nalpha_max = 3\n"
        )
        run_scenario(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "offset_minus" in manifest["notes"] and "offset_plus" in manifest["notes"]
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "band,alpha,energy"
        assert len(lines) == 1 + 2 * 7

    @pytest.mark.parametrize("delta_a, delta_b", [
        (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0), (0.0, 3.0), (0.0, 0.0), (3.0, 3.001),
    ])
    def test_ladder_runs_at_the_gap_closing(self, tmp_path, delta_a, delta_b):
        f = 0.75
        code, out = _run_main(tmp_path, "[run]\nscenario = ladder\n"
                              f"[model]\ndelta_a = {delta_a}\ndelta_b = {delta_b}\n"
                              f"[scenario]\nf_const = {f}\n")
        assert code == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        # both bands share the Zak term -F s / 2, and their band terms cancel
        s = np.sign(abs(delta_a) - abs(delta_b))
        total = notes["offset_minus"] + notes["offset_plus"]
        assert total == pytest.approx(f * (2 - s), abs=1e-12)

    def test_transpile_report(self, tmp_path):
        config = parse_config("[run]\nscenario = transpile-report\n[model]\nn_sites = 8\n")
        run_scenario(config, tmp_path)
        report = json.loads((tmp_path / "counts.json").read_text())
        assert report["qubits"] == 3
        assert report["counts"] == {"depth": 42, "u1": 15, "u3": 28, "cx": 18}
        assert report["reference_counts_3q"] == {"depth": 25, "u1": 4, "u3": 13, "cx": 14}
        qasm = (tmp_path / "circuit.qasm").read_text()
        assert qasm.startswith("OPENQASM 2.0;")

    def test_transpile_report_compares_only_three_qubits_to_reference(self, tmp_path):
        run_scenario(parse_config("[run]\nscenario = transpile-report\n"), tmp_path)
        report = json.loads((tmp_path / "counts.json").read_text())
        assert report["qubits"] == 2
        assert set(report) == {"qubits", "counts"}

    def test_bessel_check(self, tmp_path):
        config = parse_config("[run]\nscenario = bessel-check\n")
        run_scenario(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["notes"]["sum_rule_residual"] < 1e-12

    def test_dim2(self, tmp_path):
        config = parse_config(
            "[run]\nscenario = dim2\n[model]\nn_sites = 8\n"
            "[model_y]\ndelta_a = 2\ndelta_b = 0.5\nf_dc = 0.3\nn_sites = 8\n"
        )
        run_scenario(config, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["notes"]["kronecker_sum_residual"] < 1e-10
        assert manifest["model_y"]["delta_a"] == 2.0
        data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert data.shape == (64, 2)


class TestMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        code, out = _run_main(tmp_path, MINIMAL + "[plan]\nn_steps = 2\n")
        assert code == 0
        assert (out / "manifest.json").exists()
        assert "single-trotter" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        code, _ = _run_main(tmp_path, MINIMAL + "[model]\nn_sites = 6\n")
        assert code == 2
        assert "config error: model.n_sites" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.ini")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(MINIMAL.encode() + b"label = \xff\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: not UTF-8 text: ")

    def test_override_changes_values(self, tmp_path):
        code, out = _run_main(
            tmp_path, MINIMAL + "[plan]\nn_steps = 2\n",
            "--override", "model.delta_a=3.5", "--override", "plan.n_steps=4",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"]["delta_a"] == 3.5
        assert manifest["plan"]["n_steps"] == 4

    def test_override_is_validated_like_config(self, tmp_path, capsys):
        code, _ = _run_main(
            tmp_path, MINIMAL, "--override", "model.wrong_key=1"
        )
        assert code == 2
        assert "model.wrong_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, override", [
        (MINIMAL, "model.delta_a=nan"),
        (MINIMAL, "model.f_dc=inf"),
        (MINIMAL, "plan.dt=nan"),
        (MINIMAL, "plan.field_sampling=start"),
        # the scenario decides what a run keeps
        (MINIMAL, "plan.store_states=false"),
        ("[run]\nscenario = two-particle\n", "plan.store_states=false"),
        ("[run]\nscenario = spectrum\n", "scenario.f_values=0, inf"),
        (MINIMAL, "initial.site=99"),
        (MINIMAL, "initial.site=-1"),
        ("[run]\nscenario = two-particle\n", "initial.site2=4"),
        ("[run]\nscenario = single-exact\n[initial]\nkind = gaussian\n", "initial.site=99"),
        ("[run]\nscenario = two-particle\n", "initial.site=3"),
        ("[run]\nscenario = spectrum\n", "scenario.f_values="),
        ("[run]\nscenario = bessel-check\n", "scenario.x_values="),
        # trajectories past the 1 GiB budget: 101 * 2**20 * (16 + 8) bytes, and
        # 201 * 2**20 * 8 bytes of probabilities alone
        ("[run]\nscenario = single-trotter\n[model]\nn_sites = 1048576\n", "plan.n_steps=100"),
        ("[run]\nscenario = single-ode\n[model]\nn_sites = 1048576\n", "plan.n_steps=100"),
        ("[run]\nscenario = two-particle\n[model]\nn_sites = 1024\n", "plan.n_steps=200"),
        # scenario arrays past the same budget: 32 bytes a k point, 24 bytes a
        # rung per band plus 8, 16 bytes an order per x value
        ("[run]\nscenario = dispersion\n", "scenario.k_points=1000000000"),
        ("[run]\nscenario = ladder\n[scenario]\nalpha_min = -1000000000\n",
         "scenario.alpha_max=1000000000"),
        ("[run]\nscenario = bessel-check\n[scenario]\nn_max = 100000\n",
         "scenario.x_values=" + ", ".join(["1"] * 700)),
        # Bessel orders past the cap, from n_max or from |x| + 40
        ("[run]\nscenario = bessel-check\n", "scenario.n_max=3000000"),
        ("[run]\nscenario = bessel-check\n", "scenario.x_values=2, -1e9"),
        # transpile-report reads no [plan], and one particle's RK4 no sampling
        ("[run]\nscenario = transpile-report\n", "plan.n_steps=3"),
        ("[run]\nscenario = single-ode\n", "plan.field_sampling=midpoint"),
        # lowerings past 2**13 sites, or 2**12 with a second register
        ("[run]\nscenario = transpile-report\n", "model.n_sites=16384"),
        ("[run]\nscenario = transpile-report\n[model]\nv = 2\n", "model.n_sites=8192"),
        ("[run]\nscenario = transpile-report\n[model]\nv = 2\n", "model.n_sites=1048576"),
        # the report's step is as long as its sample time, like plan.dt
        ("[run]\nscenario = transpile-report\n", "scenario.sample_time=0"),
        ("[run]\nscenario = transpile-report\n", "scenario.sample_time=-0.5"),
    ])
    def test_bad_value_exits_two_with_section_key(self, tmp_path, capsys, text, override):
        code, _ = _run_main(tmp_path, text, "--override", override)
        assert code == 2
        location = override.split("=", 1)[0]
        assert capsys.readouterr().err.startswith(f"config error: {location}: ")

    def test_scenario_sizes_at_their_limits_parse(self):
        # 32 * 2**25 bytes is the budget itself; the cap order and |x| pass
        grid = parse_config("[run]\nscenario = dispersion\n[scenario]\nk_points = 33554432\n")
        assert grid.extras["k_points"] == 2 ** 25
        bessel = parse_config("[run]\nscenario = bessel-check\n"
                              "[scenario]\nn_max = 100000\nx_values = -99960, 0\n")
        assert bessel.extras == {"n_max": 100000, "x_values": [-99960.0, 0.0]}
        for n_sites, v in ((8192, 0), (4096, 2)):
            report = parse_config("[run]\nscenario = transpile-report\n"
                                  f"[model]\nn_sites = {n_sites}\nv = {v}\n")
            assert report.model.n_sites == n_sites

    def test_rk4_blow_up_exits_nonzero(self, tmp_path, capsys):
        code, _ = _run_main(
            tmp_path, "[run]\nscenario = single-ode\n[model]\nn_sites = 256\n"
            "[plan]\ndt = 0.01\nn_steps = 500\n[initial]\nkind = gaussian\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "norm drift" in err and "plan.dt" in err

    @pytest.mark.parametrize("text", [
        "[run]\nscenario = two-particle\n[model]\nn_sites = 128\n[plan]\nstepper = exact-dense\n",
        "[run]\nscenario = single-exact\n[model]\nn_sites = 8194\n",
        "[run]\nscenario = spectrum\n[model]\nn_sites = 8194\n",
        "[run]\nscenario = dim2\n[model]\nn_sites = 128\n[model_y]\nn_sites = 128\n",
    ])
    def test_dense_size_guard_exits_two(self, tmp_path, capsys, text):
        code, _ = _run_main(tmp_path, text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.n_sites: ") and "bytes" in err

    def test_dense_size_guard_spares_trotter(self):
        text = "[run]\nscenario = two-particle\n[model]\nn_sites = 128\n"
        assert parse_config(text).plan.stepper == "trotter1"

    def test_override_keeps_continuation_lines(self, tmp_path):
        text = "[run]\nscenario = spectrum\n[scenario]\nf_values = 0,\n  0.2, 1\n"
        code, out = _run_main(tmp_path, text, "--override", "model.f_dc=2")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario_extras"]["f_values"] == [0.0, 0.2, 1.0]
        assert manifest["model"]["f_dc"] == 2.0

    @pytest.mark.parametrize("text, extra", [
        (MINIMAL, ("--override", "DEFAULT.x=1")),
        # [DEFAULT] keys are copied into every section the file has
        ("[DEFAULT]\nlabel = hidden\n[run]\nscenario = spectrum\n", ()),
        ("[DEFAULT]\nlabel = hidden\n[run]\nscenario = spectrum\n[model]\nn_sites = 4\n", ()),
    ])
    def test_default_section_is_unknown(self, tmp_path, capsys, text, extra):
        code, _ = _run_main(tmp_path, text, *extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: unknown section [DEFAULT]")

    def test_malformed_override(self, tmp_path, capsys):
        code, _ = _run_main(tmp_path, MINIMAL, "--override", "delta_a=3")
        assert code == 2
        assert "section.key=value" in capsys.readouterr().err


@st.composite
def _valid_configs(draw):
    """A small valid config of any scenario, as {section: {key: value}}."""
    scenario = draw(st.sampled_from(SCENARIOS))
    base = parse_config(f"[run]\nscenario = {scenario}\n")
    n_sites = draw(st.sampled_from([2, 4, 8, 16]))
    model = {"n_sites": n_sites, "f_ac": draw(st.sampled_from([0.0, 0.5])), "omega": 2.0}
    hoppings = st.sampled_from([-3.0, 0.0, 1.0, 3.0])
    model |= {"delta_a": draw(hoppings), "delta_b": draw(hoppings)}
    sections = {"run": {"scenario": scenario}, "model": model, "scenario": {}}
    if base.plan is not None:
        sections["plan"] = {"n_steps": draw(st.integers(1, 10))}
    if base.initial:
        sections["initial"] = {key: draw(st.integers(0, n_sites - 1))
                               for key in base.initial if key != "kind"}
    if base.model_y is not None:
        sections["model_y"] = {"n_sites": draw(st.sampled_from([2, 4, 8, 16]))}
    return sections


def _config_text(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def _main_quietly(config: Path, out: Path) -> tuple[int, str]:
    """Exit code and stderr of ``blochsim run``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(config), "--out", str(out)])
    return code, err.getvalue()


class TestCliProperties:
    @settings(max_examples=60, deadline=None)
    @given(_valid_configs())
    def test_valid_configs_run_and_rerun_byte_identical(self, sections):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, outs = Path(tmp) / "run.ini", [Path(tmp) / "a", Path(tmp) / "b"]
            cfg.write_text(_config_text(sections))
            (code, err), rerun = [_main_quietly(cfg, out) for out in outs]
            assert rerun == (code, err)
            if code == 1 and sections["run"]["scenario"] == "single-ode":
                # explicit RK4 drifts past its norm bound on a long tilted chain
                # at the default dt; the run stops at that step and says so
                assert "norm drift" in err and "plan.dt" in err
                return
            assert code == 0, err
            names = sorted(path.name for path in outs[0].iterdir())
            assert names == sorted(path.name for path in outs[1].iterdir())
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(_valid_configs(), st.data())
    def test_one_bad_entry_exits_two_with_section_key(self, sections, data):
        faults = [(name, "bogus", "1") for name in sections]
        faults += [("model", key, bad) for key in ("delta_a", "f_dc", "n_sites")
                   for bad in ("nan", "inf", "strong")]
        if "plan" in sections:
            faults += [("plan", "dt", bad) for bad in ("nan", "-inf", "x")]
        n_sites = sections["model"]["n_sites"]
        faults += [("initial", key, bad) for key in sections.get("initial", ())
                   for bad in (n_sites, -1)]
        # a valid key in a section the scenario does not read
        unread = [("initial", "kind", "spike"), ("model_y", "delta_a", "1"),
                  ("plan", "n_steps", "3")]
        faults += [fault for fault in unread if fault[0] not in sections]
        section, key, value = data.draw(st.sampled_from(faults))
        sections = {**sections, section: {**sections.get(section, {}), key: value}}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.ini"
            cfg.write_text(_config_text(sections))
            code, err = _main_quietly(cfg, Path(tmp) / "out")
        assert code == 2
        assert err.startswith(f"config error: {section}.{key}:")
