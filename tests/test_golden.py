"""Golden artifacts: tiny runs must rewrite the same bytes.

The training digests pin the trace CSV and the checkpoint files of five
tiny configs: ``vhfl``, ``hfl`` behind a He2 channel that drops uploads,
``cloud``, ``cloud_local``, and ``off_default``, a ``compare`` run of all
four modes with unbiased aggregation, additive combining and inverse
learning-rate schedules behind the same channel. A change that reorders a float64 sum, or
that changes any step of training, changes them. They were computed
before the training loop moved to in-place kernels, with Python 3.11.7,
numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
x86-64). The trace digests were renewed when trace rows stopped ending in
CRLF: each is the digest of the old file's bytes with every CRLF replaced
by LF. The ``off_default`` digests were computed at commit fda1205,
before the training phases took their settings from the federation
config, with the same Python, numpy and OpenBLAS. Its five vhfl and hfl
digests were renewed when ``paper_unbiased`` began to scale by the number
of delivered uploads instead of K; as the clients weigh the same, the
renewed traces hold the rows the config gives under ``renormalized``.
Every training digest here, the unequal-shard ones too, was renewed when
each layer became one ``[Wᵀ; b]`` block of the parameter vector, whose
input carries a ones column, and the MSE gradient's 2/b moved into the
step's rate, with the same Python, numpy and OpenBLAS (SkylakeX kernel).

The analytic digests pin every artifact of tiny ``queue_analyze``,
``queue_simulate``, ``delay_plan`` and ``bounds_sweep`` runs: the gamma
tables, the deadline plan, the queue report and the bound sweeps over an
integer and a float parameter. They were computed at commit e1d5ead,
before the bound evaluators were merged into ``bounds.evaluate`` and the
mixture coefficients moved onto ``QueueAnalysis``, with the same Python,
numpy and OpenBLAS.

The unequal-shard digests pin ``run_vhfl`` and ``run_hfl`` on a dataset built
by hand, whose shards differ in size, so a cohort trains and evaluates in
several size groups and singletons. They were computed at commit 3de557e,
while each client still trained alone, with the same Python, numpy and
OpenBLAS.

Another BLAS build or CPU kernel may round differently; there, recompute
the digests at a trusted commit before reading a failure as a regression.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from vhfl_lab import fedcore, nnet
from vhfl_lab.datagen import ClientShard, FederationDataset, GlobalStore
from vhfl_lab.fedcore import FederationConfig, Schedule
from vhfl_lab.harness import parse_config, run
from vhfl_lab.rng import substream

FEDERATION = {
    "n_clients": 4,
    "k": 4,
    "local_epochs": 2,
    "batch_size": 6,  # 16 training samples per client: batches of 6, 6 and 4
    "global_epochs": 3,
    "eta": {"kind": "constant", "c": 0.05},
    "eta0": {"kind": "constant", "c": 0.02},
    "u0_dim": 3,
    "w0_hidden": [5],
    "local_hidden": [6],
    "activation": "tanh",
}
SYNTH = {
    "n_clients": 4,
    "samples_per_client": 20,
    "d_local": 3,
    "d_global": 2,
    "d_label": 2,
    "noise_std": 0.1,
    "global_strength": 0.8,
    "noniid_shift": 0.5,
    "seed": 7,
}
# delivers 1, 3 and 1 of the 3 uploads in the three rounds
CHANNEL = {"lambda_n": 2.0, "alpha1": 0.5, "alpha2": 0.5, "mu1": 8.0, "mu2": 2.0, "t_p": 1.0, "seed": 4}

CONFIGS = {
    "vhfl": {"mode": "vhfl", "seeds": [3], "federation": FEDERATION, "synth": SYNTH},
    "hfl": {
        "mode": "hfl",
        "seeds": [3],
        "federation": {**FEDERATION, "k": 3},
        "synth": SYNTH,
        "channel": CHANNEL,
    },
    "cloud": {"mode": "cloud", "seeds": [3], "federation": FEDERATION, "synth": SYNTH},
    "cloud_local": {"mode": "cloud_local", "seeds": [3], "federation": FEDERATION, "synth": SYNTH},
}

DIGESTS = {
    "vhfl": {
        "trace_vhfl_seed3.csv": "f021fecc7c82ebf7c4c2f277f9be237d871d7a84b9e1df5c5a885cbcce5c17a5",
        "w0_vhfl_seed3.txt": "37a47f704f1361126d3e3c89df46b44f6c490f1c2968e78f14bdc4f6772a0058",
        "wbar_vhfl_seed3.txt": "7bb4ec8fa2e49b6f75f664a3bca45041e991045d2894c4d6d22de91a26cf7417",
    },
    "hfl": {
        "trace_hfl_seed3.csv": "433cef08e8254ce0988d25305d9d3bb710f6e8778f71e21368007db25eed45bf",
        "wbar_hfl_seed3.txt": "43a3fcecb335d67d31544a225251e57e53f76b13d015163dc5126c43b15a0501",
    },
    "cloud": {
        "trace_cloud_seed3.csv": "370d95dcf0786425fea7119f44b5227f53c45ca9e84df0a74b973b4f2e08e7c2",
        "w0_cloud_seed3.txt": "22d21f3ea9cece6816c1aa2d292c12af15813cec42628a39a720d7f637d6d492",
        "wbar_cloud_seed3.txt": "2fd0f4887b6041b0b309acf0f07d46b4dcdfdd834b26df8ac07744769e53eb18",
    },
    "cloud_local": {
        "trace_cloud_local_seed3.csv": "710c0d2b187d84f70ca21ae6d3b834354fcb91508199e06983cfb258a845f446",
        "wbar_cloud_local_seed3.txt": "efac970d99ea6335e05fcc9eb18039ca64904750e9c740a2daee8332dbb57ee1",
    },
}


# the branches the default configs leave off: unbiased aggregation, additive
# combining and decaying learning rates, in every mode, behind the channel
OFF_DEFAULT = {
    "mode": "compare",
    "seeds": [3],
    "federation": {
        **FEDERATION,
        "k": 3,
        "aggregator": "paper_unbiased",
        "combine": "additive",
        "u0_dim": 2,
        "eta": {"kind": "inverse", "c": 0.5, "t0": 10.0},
        "eta0": {"kind": "inverse", "c": 0.2, "t0": 10.0},
    },
    "synth": SYNTH,
    "channel": CHANNEL,
}
CONFIGS["off_default"] = OFF_DEFAULT

DIGESTS["off_default"] = {
    "trace_cloud_local_seed3.csv": "98c067f359b9bb8eb9bd4b70b0b0bd7e915bcbb7f2628af43ea8a884fefa3dc0",
    "trace_cloud_seed3.csv": "0b3af9684eb63eb5dea075dc8e3e13c0bd45846c97569f6d2a666a43a5d08487",
    "trace_hfl_seed3.csv": "684934d1d76110644336e4c9e8b1af0d3a45ebddcf3d156c1683daa03ee6db77",
    "trace_vhfl_seed3.csv": "318fd545e9b30961d035e9c530f1e6c552721519811509276cb02c07467520c6",
    "w0_cloud_seed3.txt": "65ed270e05b725727efd619ca03c4b42312a5000d4cd73c4fe9ef11f48bef661",
    "w0_vhfl_seed3.txt": "3575360fbd0bbd3e8487772dba6d239e43d36269cefa8bf300c105bfd07dd2bd",
    "wbar_cloud_local_seed3.txt": "f8709dfa803adeee4007c568d5a90dc6ac7c6b711ccfdbd671d8e4c4a27a79fd",
    "wbar_cloud_seed3.txt": "573e7474e7e7be682dbd083c09a5471c612ec3feaf88eb07d8985b01ce3d41ab",
    "wbar_hfl_seed3.txt": "541d95691193bb32b418f1c88f20a279e0a87a028c6d51579d1af73802883734",
    "wbar_vhfl_seed3.txt": "1888972d45923700103b7abf5b8301c102c850c43456164e6a6c4d54ca35feba",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_tiny_run_rewrites_golden_artifacts(tmp_path, name):
    config = parse_config({**copy.deepcopy(CONFIGS[name]), "out_dir": str(tmp_path)})
    run(config)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.name.startswith(("trace_", "wbar_", "w0_"))
    }
    assert written == DIGESTS[name]


QUEUE = {
    "lambda_n": 2.0,
    "alpha1": 0.5,
    "alpha2": 0.5,
    "mu1": 8.0,
    "mu2": 2.0,
    "t_p_grid": [0.0, 0.25, 1.0, 3.0],
    "n_jobs": 20_000,
    "seed": 2,
}
BOUNDS = {
    "l_smooth": 1.0, "mu_pl": 0.5, "sigma2": 0.4, "sigma0_2": 0.2,
    "g2": 1.0, "lambda_niid": 2.0, "f_init": 3.0, "f_star": 0.5,
    "f0": 1.0, "local_epochs": 5, "k": 10, "global_epochs": 100, "gamma": 0.8,
}

ANALYTIC_CONFIGS = {
    "queue_analyze": {"mode": "queue_analyze", "seeds": [1], "queue": QUEUE},
    "queue_simulate": {"mode": "queue_simulate", "seeds": [1], "queue": QUEUE},
    "delay_plan": {
        "mode": "delay_plan",
        "seeds": [1],
        "queue": QUEUE,
        "delay_plan": {"gamma_targets": [0.3, 0.75, 0.95], "tol": 1e-8},
    },
    "bounds_sweep_k": {
        "mode": "bounds_sweep",
        "seeds": [1],
        "bounds": BOUNDS,
        "bounds_sweep": {"param": "k", "values": [1, 3, 10]},
    },
    "bounds_sweep_gamma": {
        "mode": "bounds_sweep",
        "seeds": [1],
        "bounds": BOUNDS,
        "bounds_sweep": {"param": "gamma", "values": [0.1, 0.55, 1.0]},
    },
}

ANALYTIC_DIGESTS = {
    "queue_analyze": {
        "gamma_table.csv": "dd699bb6b19414d44945836240943e43bea8ae5a07d28eab51a7fddd749561fa",
        "queue_report.txt": "38478e4bdef85c8086d1ebf29cb349b062ef4c3cd9b59ffd6753839727ca6ba3",
    },
    "queue_simulate": {
        "gamma_vs_tp.csv": "d162e5e341a892a79856213a8ca75f5cefc41ad55a53c03f2a28f28a9b3a8d25",
        "queue_report.txt": "570ae4cff532b9704b959959b881d99e60e3309d8da75429b538517063590dfa",
    },
    "delay_plan": {
        "deadline_plan.csv": "3232265a219550fa69370f47443d500d14263d4dc428d038b267539a406ae7ff",
        "queue_report.txt": "ec3b7beadf92752716a1df76b733c6789264df362f21f018ada63da0183ab238",
    },
    "bounds_sweep_k": {
        "bounds_sweep.csv": "d5584cc303015b9c38d292bcaef5e0ae23a837ff204ef799d6ef923ec3bcb47f",
    },
    "bounds_sweep_gamma": {
        "bounds_sweep.csv": "2adef63522f401bfaf81edd3e79116eb62483a744b7a5af06db659d3d7556bf5",
    },
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_CONFIGS))
def test_tiny_analytic_run_rewrites_golden_artifacts(tmp_path, name):
    config = parse_config({**copy.deepcopy(ANALYTIC_CONFIGS[name]), "out_dir": str(tmp_path)})
    run(config)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.name != "resolved_config.json"
    }
    assert written == ANALYTIC_DIGESTS[name]


# Hand-built shards of unequal sizes, 7, 12, 12 and 5 training rows, where
# ``datagen.generate`` always makes equal ones: a cohort of all four clients
# trains as a group of two and two singletons, and every batch size of 5 leaves a
# short last batch but on the 5-row shard.
MIXED_TRAIN = (7, 12, 12, 5)
MIXED_TEST = (3, 2, 2, 4)


def mixed_dataset() -> FederationDataset:
    rng = substream(17, "mixed-shards")
    sizes = MIXED_TRAIN + MIXED_TEST
    ids = rng.permutation(200)[: sum(sizes)]
    x_local = rng.standard_normal((len(ids), 3))
    x_global = rng.standard_normal((len(ids), 2))
    y = np.tanh(x_local @ rng.standard_normal((3, 2))) + 0.8 * np.tanh(x_global @ rng.standard_normal((2, 2)))
    ends = np.cumsum(sizes)
    parts = [slice(end - n, end) for n, end in zip(sizes, ends)]
    total = sum(MIXED_TRAIN)
    shards = [
        ClientShard(j % 4, ids[part], x_local[part], y[part], MIXED_TRAIN[j % 4] / total)
        for j, part in enumerate(parts)
    ]
    return FederationDataset(tuple(shards[:4]), tuple(shards[4:]), GlobalStore(ids, x_global))


MIXED_FED = FederationConfig(
    n_clients=4,
    k=4,
    local_epochs=2,
    batch_size=5,
    global_epochs=3,
    eta=Schedule("constant", 0.05),
    eta0=Schedule("constant", 0.02),
    seed=9,
    u0_dim=3,
    w0_hidden=(5,),
    local_hidden=(6,),
    activation="tanh",
)
MIXED_RUNS = {
    "vhfl": (fedcore.run_vhfl, MIXED_FED),
    "hfl": (fedcore.run_hfl, dataclasses.replace(MIXED_FED, k=3, activation="relu")),
    "vhfl_additive": (
        fedcore.run_vhfl,
        dataclasses.replace(MIXED_FED, k=3, combine="additive", u0_dim=2, aggregator="paper_unbiased"),
    ),
}
MIXED_DIGESTS = {
    "vhfl": "1d497649a59efab5878ea9b7e7cbce95a40cedc490c4887aa207bef8cf161a96",
    "hfl": "7c6cdf1346b17f84724e19b4faf32237d01999a18bb293627f6f9c165222bb3b",
    "vhfl_additive": "5aebe9debe3bef566bb9786408a840aa0e8470fa1c5a6593e0f8ee2268ebac87",
}


def run_digest(center: fedcore.CenterState, trace: list[fedcore.TraceRow]) -> str:
    """sha256 over the trace rows, every float in hex, and the final nets' checkpoints."""
    rows = [
        f"{r.epoch},{r.train_mse.hex()},{r.test_mse.hex()},{r.test_error_ratio.hex()},{r.k_received}"
        for r in trace
    ]
    nets = [nnet.dumps_net(net) for net in (center.w0, center.wbar) if net is not None]
    return hashlib.sha256("\n".join(rows + nets).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MIXED_RUNS))
def test_unequal_shards_rewrite_golden_run(name):
    train, config = MIXED_RUNS[name]
    assert run_digest(*train(config, mixed_dataset())) == MIXED_DIGESTS[name]
