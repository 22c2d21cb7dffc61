"""Experiment orchestration: config parsing, runs, and CSV/plot-data emission.

Configs are JSON documents with one section per subsystem. Each section
is read from its dataclass (``_SECTIONS``): the field names are its keys,
the field annotations their types, and the field defaults make a key
optional; the dataclass's own checks reject out-of-range values. Unknown
keys, missing keys, mistyped values and range faults all fail fast as a
``ConfigError`` naming the section and key. Every run is a pure function
of (config, seed): re-running with the same config and seeds rewrites
byte-identical artifacts. Each output file carries the config hash in a
header comment and the resolved config itself is written next to the
artifacts, so any output can be traced back to, and reproduced from, its
generating configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import fedcore, netqueue, nnet
from .datagen import SynthConfig, generate

TRAINING_MODES = ("vhfl", "hfl", "cloud", "cloud_local")


class ConfigError(Exception):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class Grid:
    """``count`` evenly spaced values from ``start`` to ``stop``."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class QueueSpec(netqueue.He2Params):
    """The queue section: the network's He2 parameters, the deadline grid
    (a list or a start/stop/count object), and the simulated job count."""

    t_p_grid: tuple[float, ...] | Grid = Grid(0.1, 4.0, 20)
    n_jobs: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.t_p_grid, Grid):
            grid = self.t_p_grid
            values = np.linspace(grid.start, grid.stop, grid.count)
            object.__setattr__(self, "t_p_grid", tuple(float(v) for v in values))
        if not self.t_p_grid:
            raise ValueError("t_p_grid is empty")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")


@dataclass(frozen=True)
class DelayPlanSpec:
    gamma_targets: tuple[float, ...]
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.gamma_targets:
            raise ValueError("gamma_targets is empty")
        for g in self.gamma_targets:
            if not 0.0 < g < 1.0:
                raise ValueError(f"gamma target {g} outside (0, 1)")


@dataclass(frozen=True)
class BoundsSweepSpec:
    param: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("values is empty")


@dataclass(frozen=True)
class KElSweepSpec:
    loss_threshold: float
    k_values: tuple[int, ...] = ()
    el_values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.k_values and not self.el_values:
            raise ValueError("provide k_values and/or el_values")
        if self.loss_threshold <= 0.0:
            raise ValueError("loss_threshold must be positive")
        for el in self.el_values:
            if el < 1:
                raise ValueError(f"local_epochs={el} must be >= 1")


# section name -> its dataclass and the fields the config does not set
_SECTIONS: dict[str, tuple[type, dict[str, Any]]] = {
    "federation": (fedcore.FederationConfig, {"seed": 0, "deadline_channel": None}),
    "synth": (SynthConfig, {}),
    "channel": (netqueue.ChannelModel, {}),
    "queue": (QueueSpec, {}),
    "delay_plan": (DelayPlanSpec, {}),
    "bounds": (bounds_mod.BoundParams, {}),
    "bounds_sweep": (BoundsSweepSpec, {}),
    "k_el_sweep": (KElSweepSpec, {}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    seeds: tuple[int, ...]
    out_dir: Path
    raw: dict[str, Any]
    federation: fedcore.FederationConfig | None = None
    synth: SynthConfig | None = None
    channel: netqueue.ChannelModel | None = None
    queue: QueueSpec | None = None
    delay_plan: DelayPlanSpec | None = None
    bounds: bounds_mod.BoundParams | None = None
    bounds_sweep: BoundsSweepSpec | None = None
    k_el_sweep: KElSweepSpec | None = None

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict[str, Any]) -> str:
    # out_dir does not influence results, so it stays out of the hash
    semantic = {k: v for k, v in raw.items() if k != "out_dir"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _section(obj: dict[str, Any], allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _need(obj: dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
# resolving a dataclass's annotations compiles each one; there are few classes
_hints = functools.cache(typing.get_type_hints)


def _value(tp: Any, value: Any, where: str) -> Any:
    """The JSON ``value`` as the field type ``tp``, or a ConfigError naming ``where``."""
    if isinstance(tp, types.UnionType):  # a list or an object, told apart by the value
        is_list = isinstance(value, list)
        tp = next(t for t in typing.get_args(tp) if (typing.get_origin(t) is tuple) == is_list)
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    kind = type(value)
    if kind is float and math.isnan(value):  # json reads NaN; Infinity stays valid
        raise ConfigError(f"{where}: expected {_KINDS[tp]}, got NaN")
    if not (
        kind is tp
        or (tp is float and kind is int)
        or (tp is int and kind is float and value.is_integer())
    ):
        raise ConfigError(f"{where}: expected {_KINDS[tp]}, got {value!r}")
    return tp(value)


def _build(cls: type, obj: Any, where: str, **fixed: Any) -> Any:
    """Read a ``cls`` from the config section ``obj`` at ``where``.

    Every field of the dataclass except the ``fixed`` ones, which the
    caller supplies, is a key of the section: typed as the field is
    annotated, and required unless the field has a default.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    _section(obj, [f.name for f in fields], where)
    hints = _hints(cls)
    kwargs = dict(fixed)
    for f in fields:
        if f.name in obj:
            kwargs[f.name] = _value(hints[f.name], obj[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def parse_config(
    raw: dict[str, Any],
    mode_override: str | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _section(raw, ("mode", "seeds", "out_dir", *_SECTIONS), "config")

    raw = dict(raw)
    if mode_override is not None:
        if "mode" in raw and raw["mode"] != mode_override:
            raise ConfigError(
                f"config: mode {raw['mode']!r} conflicts with requested mode {mode_override!r}"
            )
        raw["mode"] = mode_override
    if seed_override is not None:
        raw["seeds"] = [int(seed_override)]
    if out_override is not None:
        raw["out_dir"] = str(out_override)

    mode = _value(str, _need(raw, "mode", "config"), "config.mode")
    if mode not in _MODES:
        raise ConfigError(f"config: unknown mode {mode!r}, expected one of {sorted(_MODES)}")
    seeds = _value(tuple[int, ...], _need(raw, "seeds", "config"), "config.seeds")
    if not seeds:
        raise ConfigError("config: seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("config: seeds must be distinct")
    out_dir = Path(_value(str, _need(raw, "out_dir", "config"), "config.out_dir"))

    for needed in _MODES[mode][0]:
        if needed not in raw:
            raise ConfigError(f"config: mode {mode!r} requires section {needed!r}")
    sections = {
        name: _build(cls, raw[name], name, **fixed)
        for name, (cls, fixed) in _SECTIONS.items()
        if name in raw
    }

    federation, synth, k_el, bounds, sweep = (
        sections.get(name) for name in ("federation", "synth", "k_el_sweep", "bounds", "bounds_sweep")
    )
    if federation is not None and synth is not None:
        if federation.n_clients != synth.n_clients:
            raise ConfigError(
                f"federation.n_clients {federation.n_clients} != synth.n_clients {synth.n_clients}"
            )
    if k_el is not None and federation is not None:
        for k in k_el.k_values:
            if not 1 <= k <= federation.n_clients:
                raise ConfigError(f"k_el_sweep: k={k} outside 1..{federation.n_clients}")
    if bounds is not None and sweep is not None:
        try:  # every swept value must make valid bounds
            bounds_mod.sweep(bounds, sweep.param, sweep.values)
        except ValueError as err:
            raise ConfigError(f"bounds_sweep: {err}") from None

    return ExperimentConfig(mode=mode, seeds=seeds, out_dir=out_dir, raw=raw, **sections)


def load_config(
    path: str | Path,
    mode_override: str | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    try:
        return parse_config(raw, mode_override, seed_override, out_override)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


class _Artifacts:
    """Tracks files written by one invocation so failures can be cleaned up."""

    def __init__(self, out_dir: Path, header: str) -> None:
        self.out_dir = out_dir
        self.header = header
        self.created: list[Path] = []

    def open_path(self, name: str) -> Path:
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(path)
        return path

    def write_csv(self, name: str, columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
        path = self.open_path(name)
        lines = [self.header, ",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def write_text(self, name: str, body: str) -> Path:
        path = self.open_path(name)
        path.write_text(self.header + "\n" + body, encoding="utf-8")
        return path

    def cleanup(self) -> None:
        for path in self.created:
            try:
                path.unlink()
            except OSError:
                pass


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_single(
    config: ExperimentConfig,
    mode: str,
    seed: int,
    federation: fedcore.FederationConfig | None = None,
) -> tuple[fedcore.CenterState, fedcore.TrainingTrace]:
    """Run one training mode for one seed; datasets and nets derive from the seed."""
    assert config.federation is not None and config.synth is not None
    fed = federation if federation is not None else config.federation
    channel = config.channel if mode in ("vhfl", "hfl") else None
    if channel is not None:
        channel = dataclasses.replace(channel, seed=channel.seed + seed)
    fed = dataclasses.replace(fed, seed=seed, deadline_channel=channel)
    dataset = generate(dataclasses.replace(config.synth, seed=config.synth.seed + seed))
    if mode == "vhfl":
        return fedcore.run_vhfl(fed, dataset)
    if mode == "hfl":
        return fedcore.run_hfl(fed, dataset)
    if mode == "cloud":
        return fedcore.run_cloud(fed, dataset, use_global=True)
    if mode == "cloud_local":
        return fedcore.run_cloud(fed, dataset, use_global=False)
    raise ValueError(f"not a training mode: {mode!r}")


def _run_training(config: ExperimentConfig, artifacts: _Artifacts, modes: Sequence[str]) -> None:
    finals = []
    for mode, seed in sorted((mode, seed) for mode in modes for seed in config.seeds):
        center, trace = run_single(config, mode, seed)
        artifacts.write_csv(
            f"trace_{mode}_seed{seed}.csv",
            ["epoch", "mode", "train_mse", "test_mse", "test_error_ratio", "k_received", "seed"],
            [
                (r.epoch, mode, r.train_mse, r.test_mse, r.test_error_ratio, r.k_received, seed)
                for r in trace.rows
            ],
        )
        for name, net in (("wbar", center.wbar), ("w0", center.w0)):
            if net is not None:
                artifacts.write_text(f"{name}_{mode}_seed{seed}.txt", nnet.dumps_net(net))
        finals.append((mode, seed, trace.final))

    summary_rows = [
        (mode, seed, final.train_mse, final.test_mse, final.test_error_ratio)
        for mode, seed, final in finals
    ]
    artifacts.write_csv(
        "summary.csv",
        ["mode", "seed", "final_train_mse", "final_test_mse", "final_test_error_ratio"],
        summary_rows,
    )

    stats_rows = []
    for mode in sorted(set(modes)):
        for metric, idx in (("final_train_mse", 2), ("final_test_mse", 3), ("final_test_error_ratio", 4)):
            values = np.array([row[idx] for row in summary_rows if row[0] == mode])
            stats_rows.append((mode, metric, float(values.mean()), float(values.std())))
    artifacts.write_csv("summary_stats.csv", ["mode", "metric", "mean", "sd"], stats_rows)


def _queue_report(config: ExperimentConfig, analysis: netqueue.QueueAnalysis) -> str:
    spec = config.queue
    assert spec is not None
    targets = config.delay_plan.gamma_targets if config.delay_plan else (0.5, 0.9, 0.99)
    tol = config.delay_plan.tol if config.delay_plan else 1e-6
    lines = [
        "queue analysis",
        f"rho {analysis.rho!r}",
        f"mu12 {analysis.mu12!r}",
        f"s1 {analysis.s1!r}",
        f"s2 {analysis.s2!r}",
        "",
        "t_p gamma",
    ]
    for t_p in spec.t_p_grid:
        lines.append(f"{t_p!r} {netqueue.success_rate(analysis, t_p)!r}")
    lines.append("")
    lines.append("gamma_target required_t_p")
    for g in targets:
        lines.append(f"{g!r} {netqueue.required_deadline(analysis, g, tol)!r}")
    return "\n".join(lines) + "\n"


def _run_queue_analyze(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    spec = config.queue
    assert spec is not None
    analysis = netqueue.analyze(spec)
    artifacts.write_text("queue_report.txt", _queue_report(config, analysis))
    rows = [(t_p, netqueue.success_rate(analysis, t_p)) for t_p in spec.t_p_grid]
    artifacts.write_csv("gamma_table.csv", ["t_p", "gamma_formula"], rows)


def _run_queue_simulate(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    spec = config.queue
    assert spec is not None
    analysis = netqueue.analyze(spec)
    samples = netqueue.simulate_mg1(spec, spec.n_jobs, spec.seed)
    rows = [
        (t_p, netqueue.success_rate(analysis, t_p), netqueue.empirical_gamma(samples, t_p))
        for t_p in spec.t_p_grid
    ]
    artifacts.write_csv("gamma_vs_tp.csv", ["t_p", "gamma_formula", "gamma_mc"], rows)
    body = _queue_report(config, analysis) + f"\nmean_sojourn_mc {float(np.mean(samples))!r}\n"
    artifacts.write_text("queue_report.txt", body)


def _run_delay_plan(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    spec, plan = config.queue, config.delay_plan
    assert spec is not None and plan is not None
    analysis = netqueue.analyze(spec)
    rows = [
        (g, netqueue.required_deadline(analysis, g, plan.tol))
        for g in plan.gamma_targets
    ]
    artifacts.write_csv("deadline_plan.csv", ["gamma_target", "t_p"], rows)
    artifacts.write_text("queue_report.txt", _queue_report(config, analysis))


def _run_bounds_sweep(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    base, sweep_spec = config.bounds, config.bounds_sweep
    assert base is not None and sweep_spec is not None
    rows = bounds_mod.sweep(base, sweep_spec.param, sweep_spec.values)
    table = [(sweep_spec.param, value, nc, cv) for value, nc, cv in rows]
    artifacts.write_csv(
        "bounds_sweep.csv",
        ["swept_param", "value", "nonconvex_bound", "convex_bound"],
        table,
    )


def epochs_to_threshold(trace: fedcore.TrainingTrace, threshold: float) -> int:
    """Global epochs until train loss first reaches the threshold; -1 if never."""
    for row in trace.rows:
        if row.train_mse <= threshold:
            return row.epoch + 1
    return -1


def _run_k_el_sweep(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    spec = config.k_el_sweep
    assert spec is not None and config.federation is not None
    jobs = [("k", value, seed) for value in spec.k_values for seed in config.seeds]
    jobs += [("local_epochs", value, seed) for value in spec.el_values for seed in config.seeds]
    rows = []
    for param, value, seed in sorted(jobs):
        fed = dataclasses.replace(config.federation, **{param: value})
        _, trace = run_single(config, "vhfl", seed, federation=fed)
        reached = epochs_to_threshold(trace, spec.loss_threshold)
        final = trace.final
        rows.append((param, value, seed, reached, int(reached > 0), final.train_mse, final.test_mse))
    artifacts.write_csv(
        "k_el_sweep.csv",
        ["sweep", "value", "seed", "epochs_to_threshold", "reached", "final_train_mse", "final_test_mse"],
        rows,
    )


def run(config: ExperimentConfig) -> list[Path]:
    """Execute the configured experiment; returns the created artifact paths.

    Partial outputs are removed if the run fails.
    """
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = _Artifacts(out_dir, f"# config_hash={config.config_hash}")
    try:
        resolved = artifacts.open_path("resolved_config.json")
        resolved.write_text(
            json.dumps(config.raw, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _MODES[config.mode][1](config, artifacts)
    except BaseException:
        artifacts.cleanup()
        raise
    return artifacts.created


_TRAINING_SECTIONS = ("federation", "synth")
# mode -> the config sections it requires and the function that runs it
_MODES: dict[str, tuple[tuple[str, ...], Callable[[ExperimentConfig, _Artifacts], None]]] = {
    **{
        mode: (_TRAINING_SECTIONS, functools.partial(_run_training, modes=(mode,)))
        for mode in TRAINING_MODES
    },
    "compare": (_TRAINING_SECTIONS, functools.partial(_run_training, modes=TRAINING_MODES)),
    "queue_analyze": (("queue",), _run_queue_analyze),
    "queue_simulate": (("queue",), _run_queue_simulate),
    "delay_plan": (("queue", "delay_plan"), _run_delay_plan),
    "bounds_sweep": (("bounds", "bounds_sweep"), _run_bounds_sweep),
    "k_el_sweep": ((*_TRAINING_SECTIONS, "k_el_sweep"), _run_k_el_sweep),
}
MODES = tuple(_MODES)
