"""Golden artifacts: tiny training runs must rewrite the same bytes.

The digests pin the trace CSV and the checkpoint files of four tiny
configs: ``vhfl``, ``hfl`` behind a He2 channel that drops uploads,
``cloud`` and ``cloud_local``. A change that reorders a float64 sum, or
that changes any step of training, changes them. They were computed
before the training loop moved to in-place kernels, with Python 3.11.7,
numpy 2.4.6 and its bundled OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
x86-64). Another BLAS build or CPU kernel may round differently; there,
recompute the digests at a trusted commit before reading a failure as a
regression.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from vhfl_lab.harness import parse_config, run

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
        "trace_vhfl_seed3.csv": "86bdf458bc81a3a9d6c78e4798419c16d14cebfc819ea42bc42cd593144f2eca",
        "w0_vhfl_seed3.txt": "b7e42f813271e4677e03932977ac3ead7c03e10f1602e8810632bfee10f785ee",
        "wbar_vhfl_seed3.txt": "1c217360eefb87b8b5c18a7a5e3726d9cdae262abd3d3dd4ad03437f739d1d1d",
    },
    "hfl": {
        "trace_hfl_seed3.csv": "de91ac9cecae02bb648b4e59a79546669e3ddf272d9b6fd1eaa368bfa540affb",
        "wbar_hfl_seed3.txt": "cd6c7a64d6e41252165c3714fc15796a103cab20f56a55bb1c7ee0b7b9d807e4",
    },
    "cloud": {
        "trace_cloud_seed3.csv": "7158111510621ccd5363aa503c6c8aa2817fbd183fad0d2ec2e18b03a42617c5",
        "w0_cloud_seed3.txt": "36598ea701b8286400d4a107717dbd10d470a0817809d9fc46e36021ad67fa4b",
        "wbar_cloud_seed3.txt": "7d0d8e7522f014bdd64a24119ee88aa1615e343ff3d759399e188569fa84d3e9",
    },
    "cloud_local": {
        "trace_cloud_local_seed3.csv": "84f19d9f238db45737b1c042b34537aed9f96a19361ac7be9786f2f37c5d154b",
        "wbar_cloud_local_seed3.txt": "066acee0b8904f66add97da6e5b6461b2503be0e5cd8e2b8af5c38052bb900c8",
    },
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
