from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from vhfl_lab import netqueue
from vhfl_lab.cli import main
from vhfl_lab.harness import ConfigError, epochs_to_threshold, load_config, parse_config, run, run_single

BASE_CONFIG = {
    "mode": "compare",
    "seeds": [1, 2],
    "out_dir": "",
    "federation": {
        "n_clients": 3,
        "k": 3,
        "local_epochs": 2,
        "batch_size": 8,
        "global_epochs": 3,
        "eta": {"kind": "constant", "c": 0.05},
        "eta0": {"kind": "constant", "c": 0.02},
        "u0_dim": 3,
        "w0_hidden": [8],
        "local_hidden": [8],
        "activation": "tanh",
    },
    "synth": {
        "n_clients": 3,
        "samples_per_client": 20,
        "d_local": 3,
        "d_global": 2,
        "d_label": 1,
        "noise_std": 0.1,
        "global_strength": 0.8,
        "noniid_shift": 0.0,
        "seed": 5,
    },
}

QUEUE_CONFIG = {
    "mode": "delay_plan",
    "seeds": [1],
    "out_dir": "",
    "queue": {
        "lambda_n": 2.0,
        "alpha1": 0.5,
        "alpha2": 0.5,
        "mu1": 8.0,
        "mu2": 2.0,
        "t_p_grid": {"start": 0.2, "stop": 4.0, "count": 10},
        "n_jobs": 50000,
        "seed": 3,
    },
    "delay_plan": {"gamma_targets": [0.5, 0.9, 0.99], "tol": 1e-6},
}

BOUNDS_CONFIG = {
    "mode": "bounds_sweep",
    "seeds": [1],
    "out_dir": "",
    "bounds": {
        "l_smooth": 1.0, "mu_pl": 0.5, "sigma2": 0.4, "sigma0_2": 0.2,
        "g2": 1.0, "lambda_niid": 2.0, "f_init": 3.0, "f_star": 0.5,
        "f0": 1.0, "local_epochs": 5, "k": 10, "global_epochs": 100,
    },
    "bounds_sweep": {"param": "k", "values": [1, 2, 4, 8]},
}

# gamma(1.0) is about 0.64 for this He2 network
CHANNEL = {"lambda_n": 2.0, "alpha1": 0.5, "alpha2": 0.5, "mu1": 8.0, "mu2": 2.0, "t_p": 1.0, "seed": 4}
LOSSY_CONFIG = {**BASE_CONFIG, "mode": "hfl", "channel": CHANNEL}


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path


def config_with(tmp_path: Path, base: dict, **overrides) -> dict:
    data = copy.deepcopy(base)
    data.update(overrides)
    if not data.get("out_dir"):
        data["out_dir"] = str(tmp_path / "out")
    return data


def test_parse_rejects_unknown_top_level_key(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG, typo_section={})
    with pytest.raises(ConfigError, match="typo_section"):
        parse_config(data)


def test_parse_rejects_unknown_nested_key(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG)
    data["federation"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(data)


def test_parse_requires_mode_sections(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG)
    del data["synth"]
    with pytest.raises(ConfigError, match="synth"):
        parse_config(data)


def test_parse_rejects_inconsistent_client_counts(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG)
    data["synth"]["n_clients"] = 4
    with pytest.raises(ConfigError, match="n_clients"):
        parse_config(data)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "mode": "vhfl",\n  broken\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.json:3"):
        load_config(path)


def test_mode_override_conflict(tmp_path):
    path = write_config(tmp_path, config_with(tmp_path, BASE_CONFIG))
    with pytest.raises(ConfigError, match="conflicts"):
        load_config(path, mode_override="vhfl")


def test_seed_and_out_overrides(tmp_path):
    path = write_config(tmp_path, config_with(tmp_path, BASE_CONFIG))
    config = load_config(path, seed_override=9, out_override=str(tmp_path / "elsewhere"))
    assert config.seeds == (9,)
    assert config.out_dir == tmp_path / "elsewhere"


def test_compare_emits_one_summary_row_per_mode_and_seed(tmp_path):
    config = parse_config(config_with(tmp_path, BASE_CONFIG))
    created = run(config)
    summary = config.out_dir / "summary.csv"
    assert summary in created
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "mode,seed,final_train_mse,final_test_mse,final_test_error_ratio"
    assert len(lines) - 2 == 4 * 2  # modes x seeds
    # per-mode trace files and checkpoints exist
    for mode in ("vhfl", "hfl", "cloud", "cloud_local"):
        for seed in (1, 2):
            assert (config.out_dir / f"trace_{mode}_seed{seed}.csv").exists()
            assert (config.out_dir / f"wbar_{mode}_seed{seed}.txt").exists()
    assert (config.out_dir / "w0_vhfl_seed1.txt").exists()
    assert (config.out_dir / "summary_stats.csv").exists()
    # every artifact ends its lines in a bare newline
    for path in created:
        assert b"\r" not in path.read_bytes(), path.name


def test_written_trace_holds_the_run(tmp_path):
    config = parse_config(config_with(tmp_path, LOSSY_CONFIG, seeds=[2]))
    run(config)
    _, trace = run_single(config, "hfl", 2)
    lines = (config.out_dir / "trace_hfl_seed2.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={config.config_hash}"
    assert lines[1] == "epoch,mode,train_mse,test_mse,test_error_ratio,k_received,seed"
    assert len(lines) == 2 + 3
    for line, row in zip(lines[2:], trace.rows):
        cells = line.split(",")
        assert cells[:2] == [str(row.epoch), "hfl"] and cells[6] == "2"
        assert [float(v) for v in cells[2:5]] == [row.train_mse, row.test_mse, row.test_error_ratio]
        assert int(cells[5]) == row.k_received <= 3
    assert sum(row.k_received for row in trace.rows) < 3 * 3  # the channel drops uploads


def test_channel_section_reads_into_the_channel_model(tmp_path):
    config = parse_config(config_with(tmp_path, LOSSY_CONFIG))
    assert config.channel == netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=1.0, seed=4)
    # the JSON literal Infinity means no deadline: every upload arrives
    data = config_with(tmp_path, LOSSY_CONFIG, seeds=[1])
    data["channel"]["t_p"] = float("inf")
    path = write_config(tmp_path, data)
    assert '"t_p": Infinity' in path.read_text()
    _, trace = run_single(load_config(path), "hfl", 1)
    assert [row.k_received for row in trace.rows] == [3, 3, 3]


def test_rerun_is_byte_identical(tmp_path):
    data_a = config_with(tmp_path, BASE_CONFIG)
    data_a["out_dir"] = str(tmp_path / "a")
    data_b = copy.deepcopy(data_a)
    data_b["out_dir"] = str(tmp_path / "b")
    run(parse_config(data_a))
    run(parse_config(data_b))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        a_bytes = (tmp_path / "a" / name).read_bytes()
        b_bytes = (tmp_path / "b" / name).read_bytes()
        if name == "resolved_config.json":
            continue  # differs only in the recorded out_dir
        assert a_bytes == b_bytes, name


def test_resolved_config_reproduces_run(tmp_path):
    config = parse_config(config_with(tmp_path, BASE_CONFIG, mode="vhfl"))
    run(config)
    replay = load_config(config.out_dir / "resolved_config.json")
    assert replay.raw == config.raw
    assert replay.config_hash == config.config_hash


def test_delay_plan_delegates_to_required_deadline(tmp_path):
    data = config_with(tmp_path, QUEUE_CONFIG)
    config = parse_config(data)
    run(config)
    lines = (config.out_dir / "deadline_plan.csv").read_text().splitlines()
    assert lines[1] == "gamma_target,t_p"
    params = netqueue.He2Params(2.0, 0.5, 0.5, 8.0, 2.0)
    analysis = netqueue.analyze(params)
    for line in lines[2:]:
        target, t_p = (float(v) for v in line.split(","))
        assert abs(t_p - netqueue.required_deadline(analysis, target, 1e-6)) <= 1e-6


def test_queue_simulate_csv_schema(tmp_path):
    data = config_with(tmp_path, QUEUE_CONFIG, mode="queue_simulate")
    del data["delay_plan"]
    config = parse_config(data)
    run(config)
    lines = (config.out_dir / "gamma_vs_tp.csv").read_text().splitlines()
    assert lines[1] == "t_p,gamma_formula,gamma_mc"
    assert len(lines) - 2 == 10
    for line in lines[2:]:
        t_p, formula, mc = (float(v) for v in line.split(","))
        assert 0.0 <= formula <= 1.0 and 0.0 <= mc <= 1.0
        assert abs(formula - mc) < 0.05


def test_queue_analyze_report(tmp_path):
    data = config_with(tmp_path, QUEUE_CONFIG, mode="queue_analyze")
    del data["delay_plan"]
    config = parse_config(data)
    run(config)
    report = (config.out_dir / "queue_report.txt").read_text()
    assert "rho 0.625" in report
    assert "s1 " in report and "s2 " in report
    assert "gamma_target required_t_p" in report


def test_bounds_sweep_csv(tmp_path):
    config = parse_config(config_with(tmp_path, BOUNDS_CONFIG))
    run(config)
    lines = (config.out_dir / "bounds_sweep.csv").read_text().splitlines()
    assert lines[1] == "swept_param,value,nonconvex_bound,convex_bound"
    values = [line.split(",") for line in lines[2:]]
    assert [v[0] for v in values] == ["k"] * 4
    nonconvex = [float(v[2]) for v in values]
    assert nonconvex == sorted(nonconvex, reverse=True)


def test_bounds_sweep_unknown_param_is_config_error(tmp_path):
    data = config_with(tmp_path, BOUNDS_CONFIG, bounds_sweep={"param": "clients", "values": [1.0]})
    with pytest.raises(ConfigError, match="bounds_sweep: unknown bound parameter 'clients'"):
        parse_config(data)


def test_k_el_sweep_csv_and_threshold_sentinel(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG, mode="k_el_sweep", seeds=[1])
    data["k_el_sweep"] = {"k_values": [1, 3], "el_values": [1, 2], "loss_threshold": 1e-9}
    config = parse_config(data)
    run(config)
    lines = (config.out_dir / "k_el_sweep.csv").read_text().splitlines()
    assert lines[1] == (
        "sweep,value,seed,epochs_to_threshold,reached,final_train_mse,final_test_mse"
    )
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    # threshold 1e-9 is unreachable in 3 epochs: sentinel -1, flagged unreached
    assert all(r[3] == "-1" and r[4] == "0" for r in rows)
    assert sorted({r[0] for r in rows}) == ["k", "local_epochs"]


def test_epochs_to_threshold_helper():
    from vhfl_lab.fedcore import TraceRow, TrainingTrace

    trace = TrainingTrace(mode="vhfl", seed=0)
    for epoch, loss in enumerate([0.9, 0.5, 0.2, 0.1]):
        trace.append(TraceRow(epoch, loss, loss, loss, 1, 0.0))
    assert epochs_to_threshold(trace, 0.5) == 2
    assert epochs_to_threshold(trace, 0.05) == -1


def test_failed_run_removes_partial_outputs(tmp_path):
    data = config_with(tmp_path, BASE_CONFIG, mode="vhfl", seeds=[1])
    # diverges: identity activations with a huge step size, permitted by a tiny l_est
    data["federation"]["activation"] = "identity"
    data["federation"]["l_est"] = 0.001
    data["federation"]["eta"] = {"kind": "constant", "c": 900.0}
    data["federation"]["global_epochs"] = 30
    config = parse_config(data)
    with pytest.raises(ValueError, match="non-finite"):
        run(config)
    leftovers = list(config.out_dir.glob("*")) if config.out_dir.exists() else []
    assert leftovers == []


def test_cli_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, config_with(tmp_path, BASE_CONFIG, mode="vhfl", seeds=[1]))
    assert main(["vhfl", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace_vhfl_seed1.csv" in out

    bad = write_config(tmp_path, {"mode": "vhfl"}, name="bad.json")
    assert main(["vhfl", "--config", str(bad)]) == 2

    missing = tmp_path / "nope.json"
    assert main(["vhfl", "--config", str(missing)]) == 2

    # runtime failure: the output directory path is occupied by a file
    blocked = config_with(tmp_path, BASE_CONFIG, mode="vhfl", seeds=[1])
    blocked["out_dir"] = str(tmp_path / "occupied")
    (tmp_path / "occupied").write_text("in the way", encoding="utf-8")
    blocked_path = write_config(tmp_path, blocked, name="blocked.json")
    assert main(["vhfl", "--config", str(blocked_path)]) == 3


def test_cli_seed_override(tmp_path):
    path = write_config(tmp_path, config_with(tmp_path, BASE_CONFIG, mode="hfl"))
    out_dir = tmp_path / "single"
    assert main(["hfl", "--config", str(path), "--seed", "7", "--out", str(out_dir)]) == 0
    assert (out_dir / "trace_hfl_seed7.csv").exists()
    assert not (out_dir / "trace_hfl_seed1.csv").exists()


def _set(data: dict, path: str, value) -> dict:
    *sections, key = path.split(".")
    obj = data
    for name in sections:
        obj = obj[name]
    obj[key] = value
    return data


CONFIG_FAULTS = [
    (BASE_CONFIG, "seeds", 5, "config.seeds"),
    (QUEUE_CONFIG, "queue.n_jobs", "many", "queue.n_jobs"),
    (QUEUE_CONFIG, "queue.n_jobs", 0, "queue: n_jobs"),
    (QUEUE_CONFIG, "delay_plan.gamma_targets", 0.5, "delay_plan.gamma_targets"),
    (QUEUE_CONFIG, "queue.t_p_grid.count", -1, "queue.t_p_grid: count"),
    (BASE_CONFIG, "federation.center_frozen", "false", "federation.center_frozen"),
    (BASE_CONFIG, "federation.k", 2.7, "federation.k"),
    (BASE_CONFIG, "federation.selection", "uniform_without_replacement", "federation: unknown keys ['selection']"),
    (BASE_CONFIG, "synth.noise_std", float("nan"), "synth.noise_std"),
    (BASE_CONFIG, "synth.samples_per_client", 2, "synth: samples_per_client"),
    (BOUNDS_CONFIG, "bounds_sweep.param", "gamma", "bounds_sweep: gamma must lie in (0, 1], got 2.0"),
    (BOUNDS_CONFIG, "bounds_sweep.values", [0.4, 4.0], "bounds_sweep: epoch and client counts"),
    (LOSSY_CONFIG, "channel.t_p", -1.0, "channel: t_p"),
    (LOSSY_CONFIG, "channel.lambda_n", 10.0, "channel: unstable queue"),
    (LOSSY_CONFIG, "channel.params", {"lambda_n": 2.0}, "channel: unknown keys ['params']"),
]


@pytest.mark.parametrize(
    ("base", "path", "value", "named"), CONFIG_FAULTS, ids=[f"{p}={v!r}" for _, p, v, _ in CONFIG_FAULTS]
)
def test_cli_config_faults_exit_2_naming_the_key(tmp_path, capsys, base, path, value, named):
    data = _set(config_with(tmp_path, base), path, value)
    config_path = write_config(tmp_path, data)
    assert main([data["mode"], "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "out").exists()


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_configs_parse(path):
    mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
    assert load_config(path, mode_override=mode).mode == mode
