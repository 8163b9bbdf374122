"""Batch front-end: parse a run configuration, execute a scenario, write artifacts.

Configs are INI-style text with sections [run], [model], [plan], [initial],
[scenario] (scenario-specific extras) and, for the 2D scenario, [model_y].
Unset keys fall back to the demo defaults (4-site chain, delta_a=5,
delta_b=1, F=1.5, dt=0.02, spike at site 2), so a minimal config is just:

    [run]
    scenario = single-exact

Outputs land in --out (default: current directory): trajectory.csv,
series.csv, spectrum.csv, circuit.qasm, counts.json as the scenario
dictates, plus manifest.json recording every parameter. Outputs are
deterministic: the same config produces byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .model import ModelParams
from .evolve import EvolutionPlan, initial_amplitudes, run, write_trajectory_csv
from . import observables as obs
from .observables import write_csv
from .oracles import DENSE_DIM_MAX, bessel_jn_sequence, dense_2d_hamiltonian, dense_hamiltonian
from .circuits import build_trotter_step, build_two_particle_step
from .transpile import REFERENCE_STEP_COUNTS_3Q, count, decompose, emit_qasm

__all__ = ["ConfigError", "RunConfig", "parse_config", "run_scenario", "main"]

_SECTIONS = ("run", "model", "plan", "initial", "scenario", "model_y")
_MODEL_DEFAULTS = {
    "delta_a": 5.0, "delta_b": 1.0, "f_dc": 1.5, "f_ac": 0.0,
    "omega": 0.0, "v": 0.0, "n_sites": 4,
}
#: bytes a run may hold in a dense matrix, its trajectory or its scenario arrays
_MEMORY_BUDGET = DENSE_DIM_MAX ** 2 * 16
#: highest Bessel order bessel-check computes, far past the oracle's n <= 60;
#: the recurrence's time grows faster than linearly with the order
_BESSEL_ORDER_MAX = 100_000
#: largest gamma transpile-report lowers, one less when v != 0. On one BLAS
#: thread one particle took 0.11 s / 46 MiB at 1024 sites, 0.89 s / 159 MiB
#: at 4096 and 2.4-2.8 s / 425 MiB at 8192 (1.77 M CX, a 163 MB QASM file);
#: two particles took 1.1 s / 240 MiB at 2048 and 5.7 s / 800 MiB at 4096,
#: of which the dense 2^(2 gamma) contact diagonal alone took 4.1 s / 750 MiB
_REPORT_GAMMA_MAX = 13


class ConfigError(ValueError):
    """A configuration problem, reported with its section.key location."""


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario configuration."""

    scenario: str
    label: str
    model: ModelParams
    plan: EvolutionPlan | None
    initial: dict
    extras: dict
    model_y: ModelParams | None


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"{section}.{key}: {message}")


def _check_bytes(section: str, key: str, what: str, needed: int) -> None:
    """Refuse arrays that need more than the memory budget, blaming section.key."""
    if needed > _MEMORY_BUDGET:
        _fail(section, key, f"{what} needs {needed} bytes; the limit is {_MEMORY_BUDGET} bytes")


class _Section:
    """One config section with typed getters that record the keys asked for.

    Every getter goes through ``get``, which adds its key to ``read``;
    ``parse_config`` then refuses any key of the section that nothing read.
    """

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser.items(name)) if parser.has_section(name) else {}
        self.read: set[str] = set()

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.raw.get(key, default)

    def get_float(self, key: str, default: float) -> float:
        value = self.get(key)
        if value is None:
            return float(default)
        try:
            number = float(value)
        except ValueError:
            _fail(self.name, key, f"not a number: {value!r}")
        if not math.isfinite(number):
            _fail(self.name, key, f"not a finite number: {value!r}")
        return number

    def get_int(self, key: str, default: int) -> int:
        value = self.get(key)
        if value is None:
            return int(default)
        try:
            return int(value)
        except ValueError:
            _fail(self.name, key, f"not an integer: {value!r}")

    def get_floats(self, key: str, default: str):
        text = self.get(key, default)
        try:
            numbers = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            _fail(self.name, key, f"not a comma-separated number list: {text!r}")
        if not numbers:
            _fail(self.name, key, "needs at least one number")
        if not all(map(math.isfinite, numbers)):
            _fail(self.name, key, f"not a finite number: {text!r}")
        return numbers


def _model_from(section: _Section) -> ModelParams:
    kwargs = {key: section.get_float(key, default) for key, default in _MODEL_DEFAULTS.items()
              if key != "n_sites"}
    kwargs["n_sites"] = section.get_int("n_sites", _MODEL_DEFAULTS["n_sites"])
    try:
        return ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section.name}.{exc}") from None


# ---------------------------------------------------------------------------
# [scenario] extras, one parser per scenario that takes any


def _spectrum_extras(sec: _Section, model: ModelParams) -> dict:
    return {"f_values": sec.get_floats("f_values", "0, 0.2, 1")}


def _dispersion_extras(sec: _Section, model: ModelParams) -> dict:
    k_points = sec.get_int("k_points", 201)
    if k_points < 2:
        _fail("scenario", "k_points", f"must be >= 2, got {k_points}")
    # k, cos 2k and the two bands, float64 each
    _check_bytes("scenario", "k_points", f"a grid of {k_points} k points", 32 * k_points)
    return {"k_points": k_points}


def _ladder_extras(sec: _Section, model: ModelParams) -> dict:
    f_const = sec.get_float("f_const", 1.0)
    if f_const <= 0:
        _fail("scenario", "f_const", f"must be > 0, got {f_const}")
    alpha_min = sec.get_int("alpha_min", -10)
    alpha_max = sec.get_int("alpha_max", 10)
    if alpha_max < alpha_min:
        _fail("scenario", "alpha_max", "must be >= alpha_min")
    bands = sec.get("bands", "-,+")
    band_list = [tok.strip() for tok in bands.split(",") if tok.strip()]
    if not band_list or any(b not in ("-", "+") for b in band_list):
        _fail("scenario", "bands", f"must list '-' and/or '+', got {bands!r}")
    # per band its alphas, its energies and their stacked copy, plus one temporary
    rungs = alpha_max - alpha_min + 1
    _check_bytes("scenario", "alpha_max", f"{rungs} rungs in {len(band_list)} bands",
                 rungs * (24 * len(band_list) + 8))
    return {"f_const": f_const, "alpha_min": alpha_min, "alpha_max": alpha_max,
            "bands": band_list}


def _transpile_extras(sec: _Section, model: ModelParams) -> dict:
    if model.gamma is None:
        _fail("model", "n_sites",
              f"must be a power of two for scenario transpile-report, got {model.n_sites}")
    gamma_max = _REPORT_GAMMA_MAX - (model.v != 0.0)
    if model.gamma > gamma_max:
        _fail("model", "n_sites", f"must be <= {2 ** gamma_max} for transpile-report"
              f"{' with v != 0' if model.v else ''}, got {model.n_sites}")
    sample_time = sec.get_float("sample_time", 0.02)
    if sample_time <= 0:
        _fail("scenario", "sample_time", f"must be > 0, got {sample_time}")
    return {"sample_time": sample_time}


def _bessel_extras(sec: _Section, model: ModelParams) -> dict:
    n_max = sec.get_int("n_max", 40)
    if n_max < 0:
        _fail("scenario", "n_max", f"must be >= 0, got {n_max}")
    if n_max > _BESSEL_ORDER_MAX:
        _fail("scenario", "n_max", f"must be <= {_BESSEL_ORDER_MAX}, got {n_max}")
    x_values = sec.get_floats("x_values", "0.5, 2.0, 7.5, 20.0")
    # the sum-rule check runs each x up to order |x| + 40
    widest = max(map(abs, x_values))
    if widest > _BESSEL_ORDER_MAX - 40:
        _fail("scenario", "x_values", f"|x| must be <= {_BESSEL_ORDER_MAX - 40}, got {widest}")
    # the per-x sequences and their stacked copy
    _check_bytes("scenario", "x_values", f"{len(x_values)} x values of {n_max + 1} orders",
                 16 * len(x_values) * (n_max + 1))
    return {"n_max": n_max, "x_values": x_values}


# ---------------------------------------------------------------------------
# scenario execution; every runner returns (artifact names, manifest notes)


def _run_evolution(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    kind, *sites = config.initial.values()
    traj = run(initial_amplitudes(kind, config.model, *sites), config.model, config.plan)
    write_trajectory_csv(traj, out / "trajectory.csv")
    if traj.particles == 2:
        return ["trajectory.csv"], {}  # the sublattice series are single-particle observables
    series = [obs.position_series(traj), obs.probability_series(traj), obs.momentum_series(traj)]
    obs.write_series_csv(series, out / "series.csv")
    return ["trajectory.csv", "series.csv"], {}


def _run_spectrum(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    f_values = config.extras["f_values"]
    n = config.model.n_sites
    energies = np.reshape([obs.spectrum(config.model, f) for f in f_values], (-1, n))
    write_csv(out / "spectrum.csv", ("f", "index", "energy"),
              (np.array(f_values)[:, None], np.arange(n), energies))
    return ["spectrum.csv"], {}


def _run_dispersion(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    k = np.linspace(-np.pi / 2.0, np.pi / 2.0, config.extras["k_points"])
    upper, lower = obs.dispersion(config.model, k)
    write_csv(out / "spectrum.csv", ("k", "band_minus", "band_plus"), (k, lower, upper))
    return ["spectrum.csv"], {}


def _run_ladder(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    bands = config.extras["bands"]
    ladders = [
        obs.stark_ladder(config.model, config.extras["f_const"],
                         (config.extras["alpha_min"], config.extras["alpha_max"]), band=band)
        for band in bands
    ]
    energies = [ladder.energies for ladder in ladders]
    write_csv(out / "spectrum.csv", ("band", "alpha", "energy"),
              (np.array(bands)[:, None], ladders[0].alphas, energies))
    offsets = {f"offset_{'plus' if band == '+' else 'minus'}": ladder.offset
               for band, ladder in zip(bands, ladders)}
    return ["spectrum.csv"], offsets


def _run_transpile_report(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    dt = config.extras["sample_time"]
    if config.model.v != 0.0:
        circuit = build_two_particle_step(config.model, dt, dt)
    else:
        circuit = build_trotter_step(config.model, dt, dt)
    basis = decompose(circuit)
    counts = count(basis)
    (out / "circuit.qasm").write_text(emit_qasm(basis), encoding="ascii")
    report = {"qubits": basis.qubit_count, "counts": counts.as_dict()}
    if basis.qubit_count == 3:
        report["reference_counts_3q"] = REFERENCE_STEP_COUNTS_3Q
        report["matches_reference"] = counts.as_dict() == REFERENCE_STEP_COUNTS_3Q
    (out / "counts.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="ascii")
    return ["circuit.qasm", "counts.json"], {"counts": counts.as_dict()}


def _run_bessel_check(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    n_max = config.extras["n_max"]
    x_values = config.extras["x_values"]
    worst_sum_rule = 0.0
    for x in x_values:
        full = bessel_jn_sequence(max(n_max, int(abs(x)) + 40), x)
        worst_sum_rule = max(worst_sum_rule,
                             abs(full[0] ** 2 + 2.0 * float(np.sum(full[1:] ** 2)) - 1.0))
    jn = np.reshape([bessel_jn_sequence(n_max, x) for x in x_values], (-1, n_max + 1))
    write_csv(out / "series.csv", ("x", "n", "jn"),
              (np.array(x_values)[:, None], np.arange(n_max + 1), jn))
    return ["series.csv"], {"sum_rule_residual": worst_sum_rule}


def _run_dim2(config: RunConfig, out: Path) -> tuple[list[str], dict]:
    h2d = dense_2d_hamiltonian(config.model, config.model_y, 0.0)
    energies = np.linalg.eigvalsh(h2d)
    wx = np.linalg.eigvalsh(dense_hamiltonian(config.model, 0.0))
    wy = np.linalg.eigvalsh(dense_hamiltonian(config.model_y, 0.0))
    pair_sums = np.sort(np.add.outer(wx, wy).ravel())
    residual = float(np.max(np.abs(np.sort(energies) - pair_sums)))
    write_csv(out / "spectrum.csv", ("index", "energy"), (np.arange(energies.size), energies))
    return ["spectrum.csv"], {"kronecker_sum_residual": residual}


@dataclass(frozen=True)
class _Scenario:
    """What one scenario reads from the config, and the runner that executes it.

    ``steppers`` are the plan.stepper values it accepts, default first; a
    scenario without steppers reads no [plan]. ``initial`` maps each initial
    kind it accepts to that kind's default sites, default kind first; an
    empty map means it reads no [initial]. ``extras`` reads the [scenario]
    keys and may refuse a model it cannot run. A key that none of these
    read is a config error, since each section records the keys asked of it.
    """

    runner: Callable[[RunConfig, Path], tuple[list[str], dict]]
    steppers: tuple[str, ...] = ()
    initial: dict[str, dict[str, int]] = field(default_factory=dict)
    extras: Callable[[_Section, ModelParams], dict] | None = None
    #: the plan's store_states: true when the runner writes amplitudes
    store_states: bool = False
    #: reads a second axis from [model_y]
    model_y: bool = False
    #: dimension of the dense matrix a run of this config builds, 0 for none
    dense_dim: Callable[[RunConfig], int] = lambda config: 0


def _state_dim(config: RunConfig) -> int:
    return config.model.n_sites ** (2 if config.initial["kind"] == "spike2" else 1)


def _evolution_dense_dim(config: RunConfig) -> int:
    return _state_dim(config) if config.plan.stepper == "exact-dense" else 0


def _check_trajectory_bytes(config: RunConfig) -> None:
    """Refuse a trajectory whose (n_steps + 1, dim) arrays exceed the dense budget.

    A run keeps the amplitudes and their probabilities when it stores
    states, the probabilities alone otherwise.
    """
    plan = config.plan
    rows, dim = plan.n_steps + 1, _state_dim(config)
    _check_bytes("plan", "n_steps", f"a trajectory of {rows} states of dimension {dim}",
                 rows * dim * (16 + 8 if plan.store_states else 8))


_SINGLE_INITIAL = {"spike": {"site": 2}, "gaussian": {}}

_SCENARIOS: dict[str, _Scenario] = {
    "single-exact": _Scenario(_run_evolution, steppers=("exact-dense",),
                              initial=_SINGLE_INITIAL, store_states=True,
                              dense_dim=_evolution_dense_dim),
    "single-trotter": _Scenario(_run_evolution, steppers=("trotter1",),
                                initial=_SINGLE_INITIAL, store_states=True),
    "single-ode": _Scenario(_run_evolution, steppers=("ode-rk4",),
                            initial=_SINGLE_INITIAL, store_states=True),
    "two-particle": _Scenario(_run_evolution, steppers=("trotter1", "exact-dense"),
                              initial={"spike2": {"site1": 1, "site2": 2}},
                              dense_dim=_evolution_dense_dim),
    "spectrum": _Scenario(_run_spectrum, extras=_spectrum_extras,
                          dense_dim=lambda config: config.model.n_sites),
    "dispersion": _Scenario(_run_dispersion, extras=_dispersion_extras),
    "ladder": _Scenario(_run_ladder, extras=_ladder_extras),
    "transpile-report": _Scenario(_run_transpile_report, extras=_transpile_extras),
    "bessel-check": _Scenario(_run_bessel_check, extras=_bessel_extras),
    "dim2": _Scenario(_run_dim2, model_y=True,
                      dense_dim=lambda config: config.model.n_sites * config.model_y.n_sites),
}

SCENARIOS = tuple(_SCENARIOS)


# ---------------------------------------------------------------------------
# parsing


def _plan_from(sec: _Section, scenario: str, entry: _Scenario) -> EvolutionPlan:
    stepper = sec.get("stepper", entry.steppers[0])
    if stepper not in entry.steppers:
        allowed = " or ".join(map(repr, entry.steppers))
        _fail("plan", "stepper", f"scenario {scenario} runs {allowed}, got {stepper!r}")
    n_steps = sec.get_int("n_steps", 100)
    dt = sec.get_float("dt", 0.02)
    field_sampling = sec.get("field_sampling", "end")
    try:
        return EvolutionPlan(dt=dt, n_steps=n_steps, stepper=stepper,
                             field_sampling=field_sampling, store_states=entry.store_states)
    except ValueError as exc:
        raise ConfigError(f"plan.{exc}") from None


def _initial_from(sec: _Section, scenario: str, entry: _Scenario, n_sites: int) -> dict:
    kind = sec.get("kind", next(iter(entry.initial)))
    if kind not in entry.initial:
        _fail("initial", "kind", f"{scenario} takes {' or '.join(entry.initial)}, got {kind!r}")
    sites = entry.initial[kind]
    initial = {"kind": kind}
    for key, default in sites.items():
        initial[key] = sec.get_int(key, default)
        if not 0 <= initial[key] < n_sites:
            _fail("initial", key, f"must be in [0, {n_sites}), got {initial[key]}")
    return initial


def parse_config(text: str, overrides: Iterable[str] = ()) -> RunConfig:
    """Parse and fully validate config text; unknown sections/keys are errors.

    ``overrides`` are ``section.key=value`` strings set on top of the text
    before anything is validated.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    for item in overrides:
        location, eq, value = item.partition("=")
        section, dot, key = location.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section = section.strip()
        if section not in parser:  # the default section is always in it
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())

    # a [DEFAULT] would copy its keys into every section
    for name in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    sections = {name: _Section(parser, name) for name in _SECTIONS}

    run_sec = sections["run"]
    scenario = run_sec.get("scenario", "")
    if not scenario:
        _fail("run", "scenario", "required key missing")
    if scenario not in _SCENARIOS:
        _fail("run", "scenario", f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    entry = _SCENARIOS[scenario]
    label = run_sec.get("label", scenario)

    model = _model_from(sections["model"])
    plan = _plan_from(sections["plan"], scenario, entry) if entry.steppers else None
    # gate circuits need 2**gamma sites; the dense and ODE steppers take any even chain
    if model.gamma is None and plan is not None and plan.stepper == "trotter1":
        _fail("model", "n_sites",
              f"must be a power of two for scenario {scenario}, got {model.n_sites}")
    initial = (_initial_from(sections["initial"], scenario, entry, model.n_sites)
               if entry.initial else {})
    extras = entry.extras(sections["scenario"], model) if entry.extras else {}
    model_y = _model_from(sections["model_y"]) if entry.model_y else None

    # the one check for keys nothing read: the first such key in file order fails
    for sec in sections.values():
        unread = [key for key in sec.raw if key not in sec.read]
        if unread:
            _fail(sec.name, unread[0],
                  "unknown key" if sec.read else f"scenario {scenario} takes no [{sec.name}]")

    config = RunConfig(scenario, label, model, plan, initial, extras, model_y)
    dim = entry.dense_dim(config)
    _check_bytes("model", "n_sites", f"a dense {dim}x{dim} complex matrix", 16 * dim * dim)
    if entry.steppers:
        _check_trajectory_bytes(config)
    return config


def run_scenario(config: RunConfig, out_dir) -> list[str]:
    """Execute one scenario; returns the artifact names written (manifest last)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts, notes = _SCENARIOS[config.scenario].runner(config, out)
    manifest = {
        "package": "blochsim",
        "version": __version__,
        "scenario": config.scenario,
        "label": config.label,
        "model": asdict(config.model),
        "plan": asdict(config.plan) if config.plan is not None else None,
        "initial": config.initial or None,
        "scenario_extras": config.extras or None,
        "notes": notes or None,
        "outputs": artifacts,
    }
    if config.model_y is not None:
        manifest["model_y"] = asdict(config.model_y)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return artifacts + ["manifest.json"]


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochsim",
        description="Bloch-oscillation circuit simulator and classical oracle toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute a scenario described by a config file")
    runner.add_argument("config", help="path to the INI-style run configuration")
    runner.add_argument("--out", default=".", help="output directory (default: current)")
    runner.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value; repeatable")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"config error: not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, args.override)
        artifacts = run_scenario(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary, report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{config.scenario}: wrote {', '.join(artifacts)} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
