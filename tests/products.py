"""One layer's matrix products through both numpy entry points, and the
stacked label maps of ``datagen.generate``, for the tests.

``nnet._product`` issues a 2-d product whose operands are C- or
F-contiguous through ``np.dot`` and any other through ``np.matmul``.
``datagen.generate`` runs the truth maps over ``(N, n, d)`` stacks, where
the per-client loop of ``tests/reference.py`` runs them on each client's
2-d rows. Run as a script, this module prints, as one JSON object, the
kernel that numpy's bundled OpenBLAS runs, per product how many of a
seeded sweep of draws write different bits through the two entry points,
and how many of a seeded sweep of small configs ``generate`` builds with
other bits than the loop:

    OPENBLAS_CORETYPE=Haswell python tests/products.py
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

# the products that nnet._product sends to np.dot
CONTIGUOUS = ("x @ w", "xF @ w", "x.mT @ dz", "dz @ W")
# w0's backward under concat, on the side gradient's strided view: np.matmul
SIDE = ("x.mT @ side", "side @ W")


def layer_products(rng: np.random.Generator, rows: int, in_dim: int, out_dim: int) -> dict[str, tuple]:
    """The (a, b) operands of one layer's products in the emitters' layouts:
    the forward pass on C- and F-ordered rows ``x = [a | 1]``, with ``w`` the
    layer's ``(in_dim + 1, out_dim)`` block [Wᵀ; b], a view of a flat
    parameter vector, and ``W = w[:-1].mT``; the backward pass from a fresh
    output gradient ``dz``; and the same from ``side``, the first
    ``out_dim`` columns of a wider input gradient, as w0's backward takes it
    under concat."""
    x = np.concatenate([rng.standard_normal((rows, in_dim)), np.ones((rows, 1))], axis=1)
    w = rng.standard_normal((in_dim + 1) * out_dim).reshape(in_dim + 1, out_dim)
    dz = rng.standard_normal((rows, out_dim))
    side = rng.standard_normal((rows, out_dim + 4))[:, :out_dim]
    return {
        "x @ w": (x, w),
        "xF @ w": (np.asfortranarray(x), w),
        "x.mT @ dz": (x.mT, dz),
        "dz @ W": (dz, w[:-1].mT),
        "x.mT @ side": (x.mT, side),
        "side @ W": (side, w[:-1].mT),
    }


def by_dot_and_matmul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a @ b`` through ``np.dot`` and through ``np.matmul``, each into a
    fresh C-ordered buffer as the emitters write it."""
    by_dot, by_matmul = np.empty((a.shape[0], b.shape[1])), np.empty((a.shape[0], b.shape[1]))
    np.dot(a, b, by_dot)
    np.matmul(a, b, by_matmul)
    return by_dot, by_matmul


def sweep(seed: int, draws: int) -> dict[str, int]:
    """Per product, how many of ``draws`` layers with 1 to 64 rows and widths
    1 to 16 write different bits through the two entry points."""
    rng = np.random.default_rng(seed)
    differ = dict.fromkeys(CONTIGUOUS + SIDE, 0)
    for _ in range(draws):
        rows, in_dim, out_dim = rng.integers(1, 65), rng.integers(1, 17), rng.integers(1, 17)
        for name, (a, b) in layer_products(rng, rows, in_dim, out_dim).items():
            by_dot, by_matmul = by_dot_and_matmul(a, b)
            differ[name] += by_dot.tobytes() != by_matmul.tobytes()
    return differ


def generate_sweep(seed: int, draws: int) -> int:
    """How many of ``draws`` configs of 1 to 12 clients of 3 to 40 rows,
    widths 1 to 5 and 1 to 3 labels, with and without noise and shift,
    ``datagen.generate`` builds with other bits than ``reference_generate``."""
    from reference import dataset_bits, reference_generate
    from vhfl_lab.datagen import SynthConfig, generate

    rng = np.random.default_rng(seed)
    differ = 0
    for _ in range(draws):
        config = SynthConfig(
            n_clients=int(rng.integers(1, 13)),
            samples_per_client=int(rng.integers(3, 41)),
            d_local=int(rng.integers(1, 6)),
            d_global=int(rng.integers(1, 6)),
            d_label=int(rng.integers(1, 4)),
            noise_std=float(rng.choice([0.0, 0.1])),
            noniid_shift=float(rng.choice([0.0, 1.0])),
            seed=int(rng.integers(2**16)),
        )
        differ += dataset_bits(generate(config)) != dataset_bits(reference_generate(config))
    return differ


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, from ``tools/artifact_digests.py``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.openblas_core()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps({"core": openblas_core(), "differ": sweep(0, 495), "generate": generate_sweep(0, 60)}))
