"""Benchmark workloads: raw experiment configs, fixed work counts and output checks.

A workload is a list of raw JSON-style configs that the benchmark feeds to
``harness.parse_config`` and ``harness.run``, exactly as a user's config file
would be. The workload seed only sets the configs' ``seeds`` (and the queue
simulation seed), so the same seed always gives the same inputs.

One op is one (mode, seed) training run or one queue parameter point. An op
fails when ``harness.run`` raises for its config or when its artifacts fail
the checks in :func:`check`.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
REL_TOL = 1e-9  # room for reassociation of sums, not for a changed algorithm
GAMMA_TOL = 0.01  # |gamma_mc - gamma_formula|, the bar of tests/test_netqueue.py
# Targets and tolerance that harness writes into queue_report.txt when a
# queue config has no delay_plan section.
DEFAULT_GAMMA_TARGETS = (0.5, 0.9, 0.99)
DEFAULT_DEADLINE_TOL = 1e-6

# configs/compare_default.json, without its mode, seeds and out_dir.
_DENSE_FEDERATION = {
    "n_clients": 10,
    "k": 10,
    "local_epochs": 5,
    "batch_size": 16,
    "global_epochs": 60,
    "eta": {"kind": "constant", "c": 0.05},
    "eta0": {"kind": "constant", "c": 0.02},
    "u0_dim": 4,
    "w0_hidden": [16],
    "local_hidden": [16],
    "activation": "tanh",
}
_DENSE_SYNTH = {
    "n_clients": 10,
    "samples_per_client": 64,
    "d_local": 4,
    "d_global": 4,
    "d_label": 1,
    "noise_std": 0.1,
    "global_strength": 0.8,
    "noniid_shift": 0.0,
    "seed": 0,
}

# Many small non-iid clients behind a lossy channel: per-round fixed costs
# (evaluation over 100 shards, substreams, channel draws) outweigh local SGD.
_WIDE_FEDERATION = {
    **_DENSE_FEDERATION,
    "n_clients": 100,
    "k": 25,
    "local_epochs": 1,
}
_WIDE_SYNTH = {
    **_DENSE_SYNTH,
    "n_clients": 100,
    "samples_per_client": 20,
    "noniid_shift": 1.0,
}
# gamma(1.5) is about 0.76 for these parameters
_WIDE_CHANNEL = {"lambda_n": 2.0, "alpha1": 0.5, "alpha2": 0.5, "mu1": 8.0, "mu2": 2.0, "t_p": 1.5, "seed": 0}

# (lambda_n, alpha1, alpha2, mu1, mu2), utilisation rho from 0.31 to 0.70
QUEUE_POINTS = (
    (2.0, 0.5, 0.5, 8.0, 2.0),
    (1.0, 0.5, 0.5, 8.0, 2.0),
    (2.5, 0.7, 0.3, 10.0, 2.5),
    (3.0, 0.8, 0.2, 12.0, 3.0),
    (1.5, 0.4, 0.6, 6.0, 1.5),
    (4.0, 0.9, 0.1, 16.0, 4.0),
    (2.0, 0.6, 0.4, 9.0, 1.8),
    (0.8, 0.3, 0.7, 5.0, 1.0),
)
QUEUE_JOBS = 2_000_000

WORKLOADS = ("vhfl_dense", "lossy_wide", "cloud_pooled", "queue_plan")


def _training(mode: str, seeds: list[int], federation: dict, synth: dict, channel: dict | None = None) -> dict:
    raw = {"mode": mode, "seeds": seeds, "federation": copy.deepcopy(federation), "synth": copy.deepcopy(synth)}
    if channel is not None:
        raw["channel"] = dict(channel)
    return raw


def configs(name: str, seed: int) -> list[dict]:
    """The raw configs of workload ``name`` for workload seed ``seed`` (no out_dir)."""
    # One training seed per config, so that run.py can take a host-speed
    # sample between any two ops, at most a few seconds apart.
    if name == "vhfl_dense":
        return [_training("vhfl", [s], _DENSE_FEDERATION, _DENSE_SYNTH) for s in (seed, seed + 1, seed + 2)]
    if name == "lossy_wide":
        return [
            _training(mode, [s], _WIDE_FEDERATION, _WIDE_SYNTH, _WIDE_CHANNEL)
            for mode in ("vhfl", "hfl")
            for s in (seed, seed + 1)
        ]
    if name == "cloud_pooled":
        return [
            _training(mode, [s], _DENSE_FEDERATION, _DENSE_SYNTH)
            for mode in ("cloud", "cloud_local")
            for s in (seed, seed + 1)
        ]
    if name == "queue_plan":
        keys = ("lambda_n", "alpha1", "alpha2", "mu1", "mu2")
        return [
            {
                "mode": "queue_simulate",
                "seeds": [seed],
                "queue": {**dict(zip(keys, point)), "n_jobs": QUEUE_JOBS, "seed": seed},
            }
            for point in QUEUE_POINTS
        ]
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def _n_train(samples_per_client: int) -> int:
    # the 80/20 train/test split of datagen.generate
    return max(1, int(round(0.8 * samples_per_client))) if samples_per_client > 1 else 1


def work_units(raw: dict) -> int:
    """Fixed work of one config: per-sample gradients of local or pooled SGD, or queue jobs.

    Federated modes train K clients of n_train samples for E_L epochs per
    round; cloud modes train the pooled N * n_train samples for E_L epochs.
    """
    if raw["mode"] == "queue_simulate":
        return int(raw["queue"]["n_jobs"])
    fed, synth = raw["federation"], raw["synth"]
    n_train = _n_train(synth["samples_per_client"])
    trained = fed["k"] if raw["mode"] in ("vhfl", "hfl") else synth["n_clients"]
    return len(raw["seeds"]) * fed["global_epochs"] * fed["local_epochs"] * trained * n_train


def op_keys(raw: dict) -> list[str]:
    """The ops one config runs, named ``mode/seed`` or ``queue/<parameters>``."""
    if raw["mode"] == "queue_simulate":
        q = raw["queue"]
        return [f"queue/{q['lambda_n']:g},{q['alpha1']:g},{q['mu1']:g},{q['mu2']:g}"]
    return [f"{raw['mode']}/{s}" for s in raw["seeds"]]


@dataclass
class CheckResult:
    errors: dict[str, str | None]  # op key -> None when the op passed
    uploads_delivered: int = 0  # sum of k_received over federated traces


def csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_training_seed(raw: dict, out_dir: Path, seed: int, summary: dict, reference: dict | None) -> tuple[str | None, int]:
    mode = raw["mode"]
    rows = csv_rows(out_dir / f"trace_{mode}_seed{seed}.csv")
    if len(rows) != raw["federation"]["global_epochs"]:
        return f"trace has {len(rows)} rows", 0
    train = [float(r["train_mse"]) for r in rows]
    test = [float(r["test_mse"]) for r in rows]
    received = [int(r["k_received"]) for r in rows]
    if not all(math.isfinite(v) for v in train + test):
        return "non-finite loss in trace", 0
    # The training objective must fall. Held-out loss may rise: cloud_local,
    # blind to the global features, overfits on about half of all seeds.
    if not train[-1] < train[0]:
        return f"final train_mse {train[-1]!r} not below first round's {train[0]!r}", 0
    if max(received) > raw["federation"]["k"]:
        return f"k_received {max(received)} exceeds K", 0
    final = summary.get((mode, seed))
    if final is None:
        return "no summary row", 0
    if final != (train[-1], test[-1]):
        return "summary disagrees with trace", 0
    if reference is not None:
        want = reference.get(f"{mode}/{seed}")
        if want is None:
            return "no reference value", 0
        for got, ref, what in zip(final, want, ("train", "test")):
            if abs(got - ref) > REL_TOL * abs(ref):
                return f"final {what}_mse {got!r} != reference {ref!r}", 0
    return None, sum(received) if mode in ("vhfl", "hfl") else 0


def _check_queue(raw: dict, out_dir: Path) -> str | None:
    from vhfl_lab import netqueue

    q = raw["queue"]
    rows = csv_rows(out_dir / "gamma_vs_tp.csv")
    if not rows:
        return "empty gamma_vs_tp.csv"
    for r in rows:
        gap = abs(float(r["gamma_mc"]) - float(r["gamma_formula"]))
        if not gap <= GAMMA_TOL:
            return f"gamma_mc off the formula by {gap!r} at t_p={r['t_p']}"
    lines = (out_dir / "queue_report.txt").read_text(encoding="utf-8").splitlines()
    start = lines.index("gamma_target required_t_p") + 1
    plan = [tuple(float(v) for v in line.split()) for line in lines[start : start + len(DEFAULT_GAMMA_TARGETS)]]
    if [g for g, _ in plan] != list(DEFAULT_GAMMA_TARGETS):
        return f"deadline plan lists targets {[g for g, _ in plan]}"
    params = netqueue.He2Params(**{k: q[k] for k in ("lambda_n", "alpha1", "alpha2", "mu1", "mu2")})
    analysis = netqueue.analyze(params)
    for target, t_p in plan:
        hit = netqueue.success_rate(analysis, t_p)
        if not abs(hit - target) <= DEFAULT_DEADLINE_TOL:
            return f"required_deadline {t_p!r} gives gamma {hit!r}, target {target!r}"
    return None


def check(raw: dict, out_dir: Path, reference: dict | None) -> CheckResult:
    """Check the artifacts ``harness.run`` wrote for ``raw`` into ``out_dir``.

    ``reference`` maps ``mode/seed`` to the committed (final train_mse,
    final test_mse); pass None to skip that comparison.
    """
    keys = op_keys(raw)
    if raw["mode"] == "queue_simulate":
        try:
            error = _check_queue(raw, out_dir)
        except (OSError, ValueError, KeyError) as err:
            error = f"unreadable queue artifacts: {err!r}"
        return CheckResult({keys[0]: error})
    result = CheckResult({})
    try:
        summary = {
            (r["mode"], int(r["seed"])): (float(r["final_train_mse"]), float(r["final_test_mse"]))
            for r in csv_rows(out_dir / "summary.csv")
        }
    except (OSError, ValueError, KeyError) as err:
        return CheckResult({key: f"unreadable summary.csv: {err!r}" for key in keys})
    for key, seed in zip(keys, raw["seeds"]):
        try:
            error, delivered = _check_training_seed(raw, out_dir, seed, summary, reference)
        except (OSError, ValueError, KeyError) as err:
            error, delivered = f"unreadable trace: {err!r}", 0
        result.errors[key] = error
        result.uploads_delivered += delivered
    return result
