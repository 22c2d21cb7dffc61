"""Experiment orchestration: config parsing, runs, and CSV/plot-data emission.

Configs are JSON documents: the root keys ``mode``, ``seeds`` and
``out_dir``, and one section per subsystem. The root
(:class:`ExperimentConfig`) and each section are read from their
dataclasses by one reader: the field names are the keys, the field
annotations their types, and the field defaults make a key optional. Each
dataclass's own checks reject out-of-range values, and the rules that span
sections, such as the sections a mode requires or matching client counts,
are ``ExperimentConfig``'s checks. Unknown keys, missing keys, mistyped
values and range faults all fail fast as a ``ConfigError`` naming the
section and key. Every run is a pure function
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
from .rng import check_seed

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
        # the grid is built at parse time, so its size is capped
        if not 1 <= self.count <= 10_000:
            raise ValueError(f"count must lie in 1..10000, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got {self.start} and {self.stop}")


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
            # near the float limit linspace overflows at the endpoint, which it
            # then sets to stop; a grid that overflows elsewhere holds a value
            # that is negative or NaN, which the check below rejects
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.linspace(grid.start, grid.stop, grid.count)
            object.__setattr__(self, "t_p_grid", tuple(float(v) for v in values))
        if not self.t_p_grid:
            raise ValueError("t_p_grid is empty")
        # an infinite deadline is valid: no upload is late; written so that
        # NaN fails
        for t_p in self.t_p_grid:
            if not t_p >= 0.0:
                raise ValueError(f"t_p_grid values must be non-negative, got {t_p}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        check_seed(self.seed, "seed")


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
        # a success rate is known to about 1e-16 near its target, so the
        # deadline's bisection may never get within a finer tolerance
        if not (1e-12 <= self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, at least 1e-12, got {self.tol}")


# the deadline plan a queue report lists when the config has no delay_plan
_DEFAULT_PLAN = DelayPlanSpec((0.5, 0.9, 0.99))


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
            if not 1 <= el <= 10_000:
                raise ValueError(f"el_values: local_epochs={el} must lie in 1..10000")


# the fields of a section's dataclass that the config does not set
_FIXED: dict[type, dict[str, Any]] = {
    fedcore.FederationConfig: {"seed": 0, "deadline_channel": None},
}
# the modes that train the global model w0 beside the local one
_W0_MODES = ("vhfl", "cloud", "compare", "k_el_sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    """The config root: its keys, then one optional section per subsystem.
    ``raw`` is the JSON object it was read from, overrides applied; the
    checks here are the rules that span sections."""

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

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {sorted(_MODES)}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for i, seed in enumerate(self.seeds):
            check_seed(seed, f"seeds[{i}]")
        # a training run seeds its data and its channel with the section's
        # seed plus the run's (run_single)
        for name in ("synth", "channel"):
            if getattr(self, name) is not None:
                check_seed(getattr(self, name).seed + max(self.seeds), f"{name}.seed + the largest of seeds")
        for needed in _MODES[self.mode][0]:
            if getattr(self, needed) is None:
                raise ValueError(f"mode {self.mode!r} requires section {needed!r}")
        fed, synth = self.federation, self.synth
        if fed is not None and synth is not None:
            if fed.n_clients != synth.n_clients:
                raise ValueError(f"federation.n_clients {fed.n_clients} != synth.n_clients {synth.n_clients}")
            if self.mode in _W0_MODES and fed.combine == "additive" and fed.u0_dim != synth.d_label:
                raise ValueError(
                    f"federation.u0_dim {fed.u0_dim} != synth.d_label {synth.d_label} under additive combining"
                )
        if self.k_el_sweep is not None and fed is not None:
            for k in self.k_el_sweep.k_values:
                if not 1 <= k <= fed.n_clients:
                    raise ValueError(f"k_el_sweep: k={k} outside 1..{fed.n_clients}")
        if self.bounds is not None and self.bounds_sweep is not None:
            try:  # every swept value must make valid bounds
                bounds_mod.sweep(self.bounds, self.bounds_sweep.param, self.bounds_sweep.values)
            except ValueError as err:
                raise ValueError(f"bounds_sweep: {err}") from None

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict[str, Any]) -> str:
    # out_dir does not influence results, so it stays out of the hash
    semantic = {k: v for k, v in raw.items() if k != "out_dir"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
# resolving a dataclass's annotations compiles each one; there are few classes
_hints = functools.cache(typing.get_type_hints)


def _value(tp: Any, value: Any, where: str) -> Any:
    """The JSON ``value`` as the field type ``tp``, or a ConfigError naming ``where``."""
    if isinstance(tp, types.UnionType):
        # an optional section, or a list or an object told apart by the value;
        # a value that fits no member is reported against the first
        members = [t for t in typing.get_args(tp) if t is not type(None)]
        is_list = isinstance(value, list)
        tp = next((t for t in members if (typing.get_origin(t) is tuple) == is_list), members[0])
    if dataclasses.is_dataclass(tp):  # a section is named alone, as the config writes it
        return _build(tp, value, where.removeprefix("config."), **_FIXED.get(tp, {}))
    if tp is Path:
        return Path(_value(str, value, where))
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
    """Read a ``cls`` from the config object ``obj`` at ``where``.

    Every field of the dataclass except the ``fixed`` ones, which the
    caller supplies, is a key of the object: typed as the field is
    annotated, and required unless the field has a default.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    unknown = sorted(set(obj) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
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
    return _build(ExperimentConfig, raw, "config", raw=raw)


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


def run_single(config: ExperimentConfig, mode: str, seed: int) -> tuple[fedcore.CenterState, list[fedcore.TraceRow]]:
    """Run one training mode for one seed; datasets, nets and the channel's
    delays derive from the seed."""
    assert config.federation is not None and config.synth is not None
    channel = config.channel
    if channel is not None:
        channel = dataclasses.replace(channel, seed=channel.seed + seed)
    fed = dataclasses.replace(config.federation, seed=seed, deadline_channel=channel)
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
                for r in trace
            ],
        )
        for name, net in (("wbar", center.wbar), ("w0", center.w0)):
            if net is not None:
                artifacts.write_text(f"{name}_{mode}_seed{seed}.txt", nnet.dumps_net(net))
        finals.append((mode, seed, trace[-1]))

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


def _queue_tables(
    config: ExperimentConfig,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]], str]:
    """The gamma(t_p) rows over the deadline grid, the (gamma target, deadline)
    plan, and the queue report listing both."""
    spec = config.queue
    assert spec is not None
    plan = config.delay_plan or _DEFAULT_PLAN
    analysis = netqueue.analyze(spec)
    gammas = [(t_p, netqueue.success_rate(analysis, t_p)) for t_p in spec.t_p_grid]
    deadlines = [(g, netqueue.required_deadline(analysis, g, plan.tol)) for g in plan.gamma_targets]
    lines = [
        "queue analysis",
        f"rho {analysis.rho!r}",
        f"mu12 {analysis.mu12!r}",
        f"s1 {analysis.s1!r}",
        f"s2 {analysis.s2!r}",
        "",
        "t_p gamma",
        *(f"{t_p!r} {gamma!r}" for t_p, gamma in gammas),
        "",
        "gamma_target required_t_p",
        *(f"{g!r} {t_p!r}" for g, t_p in deadlines),
    ]
    return gammas, deadlines, "\n".join(lines) + "\n"


def _run_queue_analyze(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    gammas, _, report = _queue_tables(config)
    artifacts.write_text("queue_report.txt", report)
    artifacts.write_csv("gamma_table.csv", ["t_p", "gamma_formula"], gammas)


def _run_queue_simulate(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    spec = config.queue
    assert spec is not None
    gammas, _, report = _queue_tables(config)
    samples = netqueue.simulate_mg1(spec, spec.n_jobs, spec.seed)
    rows = [(t_p, gamma, netqueue.empirical_gamma(samples, t_p)) for t_p, gamma in gammas]
    artifacts.write_csv("gamma_vs_tp.csv", ["t_p", "gamma_formula", "gamma_mc"], rows)
    artifacts.write_text("queue_report.txt", report + f"\nmean_sojourn_mc {float(np.mean(samples))!r}\n")


def _run_delay_plan(config: ExperimentConfig, artifacts: _Artifacts) -> None:
    _, deadlines, report = _queue_tables(config)
    artifacts.write_csv("deadline_plan.csv", ["gamma_target", "t_p"], deadlines)
    artifacts.write_text("queue_report.txt", report)


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


def epochs_to_threshold(trace: Sequence[fedcore.TraceRow], threshold: float) -> int:
    """Global epochs until train loss first reaches the threshold; -1 if never."""
    for row in trace:
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
        _, trace = run_single(dataclasses.replace(config, federation=fed), "vhfl", seed)
        reached = epochs_to_threshold(trace, spec.loss_threshold)
        final = trace[-1]
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
