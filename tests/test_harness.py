from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
K_EL_CONFIG = {
    **BASE_CONFIG,
    "mode": "k_el_sweep",
    "k_el_sweep": {"k_values": [1, 3], "el_values": [1, 2], "loss_threshold": 1e-9},
}


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


@pytest.mark.parametrize("key", ["mode", "seeds", "out_dir"])
def test_parse_requires_root_keys(tmp_path, key):
    data = config_with(tmp_path, BASE_CONFIG)
    del data[key]
    with pytest.raises(ConfigError, match=f"config: missing required key '{key}'"):
        parse_config(data)


def test_parse_rejects_unknown_mode(tmp_path):
    # the command line rejects an unknown mode before the harness sees it
    data = config_with(tmp_path, BASE_CONFIG, mode="vertical")
    with pytest.raises(ConfigError, match="config: unknown mode 'vertical'"):
        parse_config(data)


@pytest.mark.parametrize("mode", ["vhfl", "cloud", "compare", "k_el_sweep"])
def test_additive_combining_needs_u0_dim_of_the_label_with_w0(tmp_path, mode):
    data = config_with(tmp_path, K_EL_CONFIG, mode=mode)
    data["federation"]["combine"] = "additive"
    with pytest.raises(ConfigError, match="federation.u0_dim 3 != synth.d_label 1"):
        parse_config(data)
    data["federation"]["u0_dim"] = 1
    assert parse_config(data).federation.u0_dim == 1


@pytest.mark.parametrize("mode", ["hfl", "cloud_local"])
def test_additive_combining_without_w0_runs_at_any_u0_dim(tmp_path, mode):
    data = config_with(tmp_path, BASE_CONFIG, mode=mode, seeds=[1])
    data["federation"]["combine"] = "additive"
    assert run(parse_config(data))


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
    for line, row in zip(lines[2:], trace):
        cells = line.split(",")
        assert cells[:2] == [str(row.epoch), "hfl"] and cells[6] == "2"
        assert [float(v) for v in cells[2:5]] == [row.train_mse, row.test_mse, row.test_error_ratio]
        assert int(cells[5]) == row.k_received <= 3
    assert sum(row.k_received for row in trace) < 3 * 3  # the channel drops uploads


def test_channel_section_reads_into_the_channel_model(tmp_path):
    config = parse_config(config_with(tmp_path, LOSSY_CONFIG))
    assert config.channel == netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=1.0, seed=4)
    # the JSON literal Infinity means no deadline: every upload arrives
    data = config_with(tmp_path, LOSSY_CONFIG, seeds=[1])
    data["channel"]["t_p"] = float("inf")
    path = write_config(tmp_path, data)
    assert '"t_p": Infinity' in path.read_text()
    _, trace = run_single(load_config(path), "hfl", 1)
    assert [row.k_received for row in trace] == [3, 3, 3]


def test_the_channel_leaves_the_cloud_modes_alone(tmp_path):
    """Every training mode gets the channel; the cloud modes upload nothing."""
    lossy = parse_config(config_with(tmp_path, LOSSY_CONFIG))
    data = config_with(tmp_path, LOSSY_CONFIG)
    del data["channel"]
    lossless = parse_config(data)
    for mode in ("cloud", "cloud_local"):
        assert run_single(lossy, mode, 1)[1] == run_single(lossless, mode, 1)[1]


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


def _fractions(lo: float = 0.01, hi: float = 0.99):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def _he2(draw):
    """Stable He2 parameters: rho is a drawn fraction of 1."""
    alpha1 = draw(_fractions(0.0, 1.0))
    mu2 = draw(st.floats(0.5, 10.0))
    mu1 = mu2 * draw(st.floats(1.0, 5.0))
    load = alpha1 / mu1 + (1.0 - alpha1) / mu2
    return {
        "lambda_n": draw(_fractions(0.05, 0.95)) / load,
        "alpha1": alpha1,
        "alpha2": 1.0 - alpha1,
        "mu1": mu1,
        "mu2": mu2,
    }


@st.composite
def _schedule(draw, peak: float):
    """A schedule whose largest value stays below ``peak``."""
    top = draw(_fractions()) * peak
    if draw(st.booleans()):
        return {"kind": "constant", "c": top}
    t0 = draw(st.floats(0.5, 10.0))
    return {"kind": "inverse", "c": top * t0 * 0.99, "t0": t0}


@st.composite
def _training_sections(draw, mode):
    n_clients = draw(st.integers(1, 30))
    l_est = draw(st.one_of(st.none(), st.just(1), st.floats(0.1, 10.0)))
    peak = 1.0 / (1.0 if l_est is None else l_est)
    federation = {
        "n_clients": n_clients,
        "k": draw(st.integers(1, n_clients)),
        "local_epochs": draw(st.integers(1, 5)),
        "batch_size": draw(st.integers(1, 64)),
        "global_epochs": draw(st.integers(1, 100)),
        "eta": draw(_schedule(peak)),
        "eta0": draw(_schedule(peak)),
    }
    if l_est is not None:
        federation["l_est"] = l_est
    optional = {
        "combine": st.sampled_from(("concat", "additive")),
        "aggregator": st.sampled_from(("renormalized", "paper_unbiased")),
        "w0_hidden": st.lists(st.integers(1, 32), max_size=2),
        "local_hidden": st.lists(st.integers(1, 32), max_size=2),
        "u0_dim": st.integers(1, 8),
        "activation": st.sampled_from(("identity", "relu", "tanh")),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        federation[key] = draw(optional[key])
    synth = {
        "n_clients": n_clients,
        "samples_per_client": draw(st.integers(3, 100)),
        "d_local": draw(st.integers(1, 5)),
        "d_global": draw(st.integers(1, 5)),
        "d_label": draw(st.integers(1, 3)),
        "noise_std": draw(st.floats(0.0, 2.0)),
        "global_strength": draw(st.floats(0.0, 1.0)),
        "noniid_shift": draw(st.floats(0.0, 3.0)),
        "seed": draw(st.integers(0, 2**31)),
    }
    if federation.get("combine") == "additive" and mode not in ("hfl", "cloud_local"):
        federation["u0_dim"] = synth["d_label"]  # w0's output is added to the local model's
    sections = {"federation": federation, "synth": synth}
    if draw(st.booleans()):
        t_p = draw(st.one_of(st.just(math.inf), st.floats(0.0, 10.0)))
        sections["channel"] = {**draw(_he2()), "t_p": t_p, "seed": draw(st.integers(0, 2**31))}
    if mode == "k_el_sweep":
        sections["k_el_sweep"] = {
            "k_values": draw(st.lists(st.integers(1, n_clients), min_size=1, max_size=4)),
            "el_values": draw(st.lists(st.integers(1, 20), max_size=4)),
            "loss_threshold": draw(st.floats(1e-3, 10.0)),
        }
    return sections


@st.composite
def _queue_sections(draw, mode):
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 5.0))
        grid = {"start": start, "stop": start + draw(st.floats(0.0, 5.0)), "count": draw(st.integers(1, 30))}
    else:
        points = st.one_of(st.just(math.inf), st.floats(0.0, 10.0))
        grid = draw(st.lists(points, min_size=1, max_size=6))
    queue = {
        **draw(_he2()),
        "t_p_grid": grid,
        "n_jobs": draw(st.integers(1, 10**6)),
        "seed": draw(st.integers(0, 2**31)),
    }
    sections = {"queue": queue}
    if mode == "delay_plan":
        sections["delay_plan"] = {
            "gamma_targets": draw(st.lists(_fractions(), min_size=1, max_size=4)),
            "tol": draw(st.floats(1e-9, 1e-3)),
        }
    return sections


@st.composite
def _bounds_sections(draw, mode):
    f_star = draw(st.floats(0.0, 2.0))
    bounds = {
        "l_smooth": draw(st.floats(0.1, 10.0)),
        "mu_pl": draw(st.floats(0.1, 10.0)),
        "sigma2": draw(st.floats(0.0, 2.0)),
        "sigma0_2": draw(st.floats(0.0, 2.0)),
        "g2": draw(st.floats(0.0, 2.0)),
        "lambda_niid": draw(st.floats(1.0, 5.0)),
        "f_init": f_star + draw(st.floats(0.0, 5.0)),
        "f_star": f_star,
        "f0": draw(st.floats(0.0, 2.0)),
        "local_epochs": draw(st.integers(1, 20)),
        "k": draw(st.integers(1, 50)),
        "global_epochs": draw(st.integers(1, 500)),
        "gamma": draw(_fractions(0.01, 1.0)),
    }
    sweeps = {
        "gamma": _fractions(0.01, 1.0),
        "k": st.integers(1, 50),
        "sigma2": st.floats(0.0, 2.0),
        "lambda_niid": st.floats(1.0, 5.0),
    }
    param = draw(st.sampled_from(sorted(sweeps)))
    values = draw(st.lists(sweeps[param], min_size=1, max_size=5))
    return {"bounds": bounds, "bounds_sweep": {"param": param, "values": values}}


_SECTION_STRATEGIES = {
    **{mode: _training_sections for mode in ("vhfl", "hfl", "cloud", "cloud_local", "compare", "k_el_sweep")},
    **{mode: _queue_sections for mode in ("queue_analyze", "queue_simulate", "delay_plan")},
    "bounds_sweep": _bounds_sections,
}


@st.composite
def valid_configs(draw):
    mode = draw(st.sampled_from(sorted(_SECTION_STRATEGIES)))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=5, unique=True))
    return {"mode": mode, "seeds": seeds, "out_dir": "results/property", **draw(_SECTION_STRATEGIES[mode](mode))}


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_resolved_config_text_reparses_to_the_same_config(raw):
    """``run`` writes the parsed config's ``raw`` as ``resolved_config.json``;
    that text must parse back to an equal config with the same hash, an
    infinite ``t_p`` (JSON ``Infinity``) included."""
    config = parse_config(raw)
    text = json.dumps(config.raw, indent=2, sort_keys=True) + "\n"
    replay = parse_config(json.loads(text))
    assert replay == config
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
    config = parse_config(config_with(tmp_path, K_EL_CONFIG, seeds=[1]))
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
    from vhfl_lab.fedcore import TraceRow

    trace = [TraceRow(epoch, loss, loss, loss, 1) for epoch, loss in enumerate([0.9, 0.5, 0.2, 0.1])]
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
    (BASE_CONFIG, "federation.combine", "additive", "config: federation.u0_dim 3 != synth.d_label 1"),
    (BASE_CONFIG, "seeds", 5, "config.seeds"),
    (BASE_CONFIG, "seeds", [], "config: seeds must be non-empty"),
    (BASE_CONFIG, "seeds", [1, 1], "config: seeds must be distinct"),
    (BASE_CONFIG, "out_dir", 5, "config.out_dir: expected a string"),
    (BASE_CONFIG, "federation", [], "federation: expected an object, got []"),
    (K_EL_CONFIG, "k_el_sweep.k_values", [0, 3], "k_el_sweep: k=0 outside 1..3"),
    (K_EL_CONFIG, "k_el_sweep.k_values", [1, 4], "k_el_sweep: k=4 outside 1..3"),
    (QUEUE_CONFIG, "queue.n_jobs", "many", "queue.n_jobs"),
    (QUEUE_CONFIG, "queue.n_jobs", 0, "queue: n_jobs"),
    (QUEUE_CONFIG, "delay_plan.gamma_targets", 0.5, "delay_plan.gamma_targets"),
    (QUEUE_CONFIG, "queue.t_p_grid.count", -1, "queue.t_p_grid: count"),
    (QUEUE_CONFIG, "queue.t_p_grid.count", 10_001, "queue.t_p_grid: count must lie in 1..10000, got 10001"),
    (QUEUE_CONFIG, "queue.t_p_grid.count", 2**63, "queue.t_p_grid: count must lie in 1..10000"),
    (QUEUE_CONFIG, "queue.t_p_grid.stop", float("inf"), "queue.t_p_grid: start and stop must be finite"),
    (QUEUE_CONFIG, "queue.t_p_grid.start", -1.0, "queue: t_p_grid values must be non-negative"),
    (QUEUE_CONFIG, "queue.t_p_grid", [-1.0, 0.5], "queue: t_p_grid values must be non-negative, got -1.0"),
    (QUEUE_CONFIG, "delay_plan.tol", 0.0, "delay_plan: tol must be positive"),
    (BASE_CONFIG, "federation.center_frozen", True, "federation: unknown keys ['center_frozen']"),
    (BASE_CONFIG, "synth.public_fraction", 0.5, "synth: unknown keys ['public_fraction']"),
    (BASE_CONFIG, "federation.k", 2.7, "federation.k"),
    (BASE_CONFIG, "federation.local_hidden", [0], "federation: local_hidden widths must lie in 1..10000, got [0]"),
    (BASE_CONFIG, "federation.w0_hidden", [-3], "federation: w0_hidden widths must lie in 1..10000, got [-3]"),
    # a width of 1e308 parsed, then numpy refused the array at run time
    (BASE_CONFIG, "federation.local_hidden", [16, 1e308], "federation: local_hidden widths must lie in 1..10000"),
    (BASE_CONFIG, "federation.w0_hidden", [10_001], "federation: w0_hidden widths must lie in 1..10000, got [10001]"),
    (BASE_CONFIG, "federation.u0_dim", 1e308, "federation: u0_dim must lie in 1..10000, got 1000000000000000010979063629440"),
    (BASE_CONFIG, "federation.u0_dim", 0, "federation: u0_dim must lie in 1..10000, got 0"),
    # a run builds a rate per local epoch and seeds T * K streams before round 0
    (BASE_CONFIG, "federation.local_epochs", 1e308, "federation: local_epochs must lie in 1..10000"),
    (BASE_CONFIG, "federation.global_epochs", 10_001, "federation: global_epochs must lie in 1..10000, got 10001"),
    (BASE_CONFIG, "federation.global_epochs", 0, "federation: global_epochs must lie in 1..10000, got 0"),
    (K_EL_CONFIG, "k_el_sweep.el_values", [1, 1e308], "k_el_sweep: el_values: local_epochs=1000000000000000010979063629440"),
    (K_EL_CONFIG, "k_el_sweep.el_values", [0], "k_el_sweep: el_values: local_epochs=0 must lie in 1..10000"),
    (BASE_CONFIG, "federation.selection", "uniform_without_replacement", "federation: unknown keys ['selection']"),
    (BASE_CONFIG, "synth.noise_std", float("nan"), "synth.noise_std"),
    (BASE_CONFIG, "synth.samples_per_client", 2, "synth: samples_per_client"),
    (BASE_CONFIG, "synth.noise_std", float("inf"), "synth: noise_std must be finite"),
    (BOUNDS_CONFIG, "bounds_sweep.param", "gamma", "bounds_sweep: gamma must lie in (0, 1], got 2.0"),
    (BOUNDS_CONFIG, "bounds_sweep.values", [0.4, 4.0], "bounds_sweep: k must be an integer, got 0.4"),
    (BOUNDS_CONFIG, "bounds_sweep.values", [2.0, 2.5], "bounds_sweep: k must be an integer, got 2.5"),
    (BOUNDS_CONFIG, "bounds_sweep.values", [0.0, 4.0], "bounds_sweep: epoch and client counts"),
    (BOUNDS_CONFIG, "bounds.sigma2", float("inf"), "bounds: sigma2 must be finite"),
    # mu_pl**2 underflows to 0 or overflows
    (BOUNDS_CONFIG, "bounds.mu_pl", 1e-320, "bounds: mu_pl squared must be a positive finite float"),
    (BOUNDS_CONFIG, "bounds.mu_pl", 1e308, "bounds: mu_pl squared must be a positive finite float"),
    (BOUNDS_CONFIG, "bounds.g2", 1e308, "bounds_sweep: the bounds are not finite"),
    (LOSSY_CONFIG, "channel.t_p", -1.0, "channel: t_p"),
    (LOSSY_CONFIG, "channel.lambda_n", 10.0, "channel: unstable queue"),
    (LOSSY_CONFIG, "channel.mu1", float("inf"), "channel: service rates need finite"),
    (LOSSY_CONFIG, "channel.params", {"lambda_n": 2.0}, "channel: unknown keys ['params']"),
    # a stream takes its seed modulo 2**64: these would alias seeds in range,
    # and 1e308 would be written into every trace's file name
    (BASE_CONFIG, "seeds", [1e308], "config: seeds[0] must lie in 0..2**64 - 1, got 1000000000000000010979063629440"),
    (BASE_CONFIG, "seeds", [1, 1 + 2**64], "config: seeds[1] must lie in 0..2**64 - 1, got 18446744073709551617"),
    (BASE_CONFIG, "seeds", [-(2**64 - 1)], "config: seeds[0] must lie in 0..2**64 - 1, got -18446744073709551615"),
    (BASE_CONFIG, "synth.seed", 2**64, "synth: seed must lie in 0..2**64 - 1"),
    (BASE_CONFIG, "synth.seed", 2**64 - 2, "config: synth.seed + the largest of seeds must lie in 0..2**64 - 1"),
    (LOSSY_CONFIG, "channel.seed", -1, "channel: seed must lie in 0..2**64 - 1, got -1"),
    (LOSSY_CONFIG, "channel.seed", 2**64 - 1, "config: channel.seed + the largest of seeds must lie"),
    (QUEUE_CONFIG, "queue.seed", 2**64, "queue: seed must lie in 0..2**64 - 1"),
    # analyze squares the rates; 1e308 raised OverflowError at run time
    (QUEUE_CONFIG, "queue.mu1", 1e308, "queue: mu1 = 1e+308 overflows the squares of the queue analysis"),
    # below the floor the bisection could not reach the tolerance at run time
    (QUEUE_CONFIG, "delay_plan.tol", 1e-320, "delay_plan: tol must be positive and finite, at least 1e-12, got 1e-320"),
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
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_seed_override_outside_the_seed_range_exits_2(tmp_path, capsys):
    config_path = write_config(tmp_path, config_with(tmp_path, BASE_CONFIG))
    assert main(["compare", "--config", str(config_path), "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err
    assert "config: seeds[0] must lie in 0..2**64 - 1, got 18446744073709551616" in err
    assert not (tmp_path / "out").exists()


def test_seeds_at_the_ends_of_their_range_parse():
    raw = copy.deepcopy(BASE_CONFIG)
    raw["seeds"], raw["synth"]["seed"] = [0, 2**64 - 1], 0
    assert parse_config(raw).seeds == (0, 2**64 - 1)
    raw = copy.deepcopy(LOSSY_CONFIG)
    raw["seeds"], raw["synth"]["seed"], raw["channel"] = [0], 2**64 - 1, {**CHANNEL, "seed": 2**64 - 1}
    config = parse_config(raw)
    assert config.synth.seed == config.channel.seed == 2**64 - 1


def test_delay_plan_tolerance_floor():
    raw = copy.deepcopy(QUEUE_CONFIG)
    raw["delay_plan"]["tol"] = 1e-12
    assert parse_config(raw).delay_plan.tol == 1e-12
    raw["delay_plan"]["tol"] = 9.9e-13
    with pytest.raises(ConfigError, match=r"^delay_plan: tol must be positive and finite, at least 1e-12, got 9.9e-13$"):
        parse_config(raw)


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_configs_parse(path):
    mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
    assert load_config(path, mode_override=mode).mode == mode


def test_grid_near_the_float_limit_parses_or_names_the_grid():
    """linspace overflows on a grid from the largest float: its values stay
    exact, and a grid whose span overflows, which it fills with NaN, is a
    ConfigError."""
    raw = copy.deepcopy(QUEUE_CONFIG)
    raw["queue"]["t_p_grid"]["start"] = 1.7976931348623157e308
    grid = parse_config(raw).queue.t_p_grid
    assert grid[0] == 1.7976931348623157e308 and grid[-1] == 4.0 and all(map(math.isfinite, grid))
    raw["queue"]["t_p_grid"] = {"start": -1e308, "stop": 1e308, "count": 3}
    with pytest.raises(ConfigError, match="^queue: t_p_grid values must be non-negative, got nan$"):
        parse_config(raw)


def _leaves(node, path=()):
    """The paths to a JSON value's leaves: its scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, (*path, key))
    else:
        yield path


SHIPPED_RAW = [json.loads(path.read_text(encoding="utf-8")) for path in SHIPPED]
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([1e-320, 1e308, 10**9, 10_001, "", "concat", "inverse"]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_leaf_mutations_of_shipped_configs_parse_or_name_a_key(data):
    """A shipped config with one leaf replaced by any JSON value either
    parses or raises ConfigError naming a key on the leaf's path: no other
    exception escapes the parser."""
    raw = copy.deepcopy(data.draw(st.sampled_from(SHIPPED_RAW)))
    path = data.draw(st.sampled_from(list(_leaves(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_LEAVES)
    try:
        parse_config(raw)
    except ConfigError as err:
        assert any(key in str(err) for key in path if isinstance(key, str)), (path, str(err))
