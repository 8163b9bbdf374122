"""Config parsing, scenario execution, artifacts, and exit codes."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim.cli import SCENARIOS, ConfigError, main, parse_config, run_scenario

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
        with pytest.raises(ConfigError, match=r"plan\..*takes no evolution plan"):
            parse_config("[run]\nscenario = spectrum\n[plan]\ndt = 0.1\n")

    def test_initial_rejected_for_static_scenario(self):
        with pytest.raises(ConfigError, match=r"initial\..*takes no initial state"):
            parse_config("[run]\nscenario = ladder\n[initial]\nkind = spike\n")

    def test_two_particle_initial_kind(self):
        with pytest.raises(ConfigError, match=r"initial\.kind: two-particle takes spike2"):
            parse_config("[run]\nscenario = two-particle\n[initial]\nkind = spike\n")

    def test_scenario_extras_validated(self):
        with pytest.raises(ConfigError, match=r"scenario\.k_points"):
            parse_config("[run]\nscenario = dispersion\n[scenario]\nk_points = 1\n")
        with pytest.raises(ConfigError, match=r"scenario\.bands"):
            parse_config("[run]\nscenario = ladder\n[scenario]\nbands = up\n")
        with pytest.raises(ConfigError, match=r"scenario\.t_end: unknown key"):
            parse_config("[run]\nscenario = dim2\n[scenario]\nt_end = 0.5\n")

    def test_model_y_only_for_dim2(self):
        with pytest.raises(ConfigError, match=r"model_y"):
            parse_config(MINIMAL + "[model_y]\ndelta_a = 1\n")


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
        (MINIMAL, "plan.store_states=false"),
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
        ("[run]\nscenario = two-particle\n[model]\nn_sites = 1024\n"
         "[plan]\nstore_states = false\n", "plan.n_steps=200"),
    ])
    def test_bad_value_exits_two_with_section_key(self, tmp_path, capsys, text, override):
        code, _ = _run_main(tmp_path, text, "--override", override)
        assert code == 2
        location = override.split("=", 1)[0]
        assert capsys.readouterr().err.startswith(f"config error: {location}: ")

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
        section, key, value = data.draw(st.sampled_from(faults))
        sections = {**sections, section: {**sections[section], key: value}}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.ini"
            cfg.write_text(_config_text(sections))
            code, err = _main_quietly(cfg, Path(tmp) / "out")
        assert code == 2
        assert err.startswith(f"config error: {section}.{key}:")
