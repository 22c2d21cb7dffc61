"""Minimal dense neural-network engine.

Exact forward/backward passes over a fixed stack of affine+activation
layers, MSE loss, plain SGD, and gradients with respect to the batch
inputs (the quantity exchanged in vertical training). The public
functions are pure; nets are immutable and all arithmetic is float64.

Validate at the edges, run unchecked kernels inside the loop. The public
``forward``/``mse_loss``/``backward``/``sgd_step`` check every argument
and then call the private kernels ``_forward``/``_mse_grad``/
``_backward``/``_sgd``, which work on plain per-layer ``(W, b,
activation)`` tuples (see ``_params``) and check nothing. A training loop
copies a net's arrays once with ``_params``, steps them in place with the
kernels, and builds one validated net with ``_net`` when its phase ends.
Both paths run the same float64 operations in the same order, so their
results agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh")

_CHECKPOINT_MAGIC = "densenet 1"


def _as_batch(x: object, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


@dataclass(frozen=True)
class DenseLayer:
    """One affine map plus pointwise activation; ``weights`` is (out_dim, in_dim)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"weights must be a matrix with positive dims, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match out_dim {w.shape[0]}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class DenseNet:
    """Ordered stack of dense layers with chained dimensions."""

    layers: tuple[DenseLayer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a net needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise ValueError(
                    f"layer {i} out_dim {layers[i].out_dim} does not chain into "
                    f"layer {i + 1} in_dim {layers[i + 1].in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class ForwardTrace:
    """Cached per-layer pre/post activations for one batch."""

    inputs: np.ndarray
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Gradients:
    """Per-layer parameter gradients; ``input_grad`` is present iff requested."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    input_grad: np.ndarray | None = None


# One layer's parameters as the kernels see them: (weights, bias, activation).
Params = list[tuple[np.ndarray, np.ndarray, str]]


def _params(net: DenseNet) -> Params:
    """Private copies of a net's arrays, for a loop that steps them in place."""
    return [(layer.weights.copy(), layer.bias.copy(), layer.activation) for layer in net.layers]


def _view(net: DenseNet) -> Params:
    """A net's own arrays, for kernels that only read them."""
    return [(layer.weights, layer.bias, layer.activation) for layer in net.layers]


def _net(params: Params) -> DenseNet:
    """Build (and validate) a net that holds the given arrays without copying."""
    return DenseNet(tuple(DenseLayer(w, b, act) for w, b, act in params))


def _forward(params: Params, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer pre- and post-activations; the output is ``post[-1]``."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    a = x
    for w, b, act in params:
        z = a @ w.T + b
        a = _activate(act, z)
        pre.append(z)
        post.append(a)
    return pre, post


def _output(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Unchecked forward pass of a validated net on validated rows."""
    return _forward(_view(net), x)[1][-1]


def _mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mean squared L2 error)/d(pred)."""
    return (2.0 / pred.shape[0]) * (pred - target)


def _backward(
    params: Params,
    x: np.ndarray,
    pre: Sequence[np.ndarray],
    post: Sequence[np.ndarray],
    da: np.ndarray,
    want_input_grad: bool,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray | None]:
    """Parameter gradients, and d(loss)/d(x) if wanted, given d(loss)/d(outputs)."""
    n = len(params)
    wgrads: list[np.ndarray] = [np.empty(0)] * n
    bgrads: list[np.ndarray] = [np.empty(0)] * n
    for i in range(n - 1, -1, -1):
        w, _, act = params[i]
        if act == "identity":
            dz = da  # the derivative is 1, and x * 1.0 == x bit for bit
        elif act == "relu":
            # subgradient at 0 fixed to 0
            dz = da * (pre[i] > 0.0)
        else:
            # post[i] is tanh(pre[i]), and np.tanh is deterministic
            dz = da * (1.0 - post[i] * post[i])
        layer_in = x if i == 0 else post[i - 1]
        wgrads[i] = dz.T @ layer_in
        bgrads[i] = dz.sum(axis=0)
        if i > 0 or want_input_grad:
            da = dz @ w
    return wgrads, bgrads, da if want_input_grad else None


def _sgd(params: Params, wgrads: Sequence[np.ndarray], bgrads: Sequence[np.ndarray], eta: float) -> None:
    """p <- p - eta*g in place; bit for bit the same as the out-of-place step."""
    for (w, b, _), gw, gb in zip(params, wgrads, bgrads):
        w -= eta * gw
        b -= eta * gb


def forward(net: DenseNet, batch: object) -> tuple[np.ndarray, ForwardTrace]:
    """Run the net on a (batch, in_dim) matrix; returns outputs and a trace."""
    x = _as_batch(batch, "batch")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"batch has {x.shape[1]} columns, net expects {net.in_dim}")
    pre, post = _forward(_view(net), x)
    return post[-1], ForwardTrace(inputs=x, pre=tuple(pre), post=tuple(post))


def mse_loss(pred: object, target: object) -> tuple[float, np.ndarray]:
    """Mean over the batch of squared L2 error; also returns d(loss)/d(pred)."""
    p = _as_batch(pred, "pred")
    t = _as_batch(target, "target")
    if p.shape != t.shape:
        raise ValueError(f"pred shape {p.shape} != target shape {t.shape}")
    diff = p - t
    loss = float(np.sum(diff * diff) / p.shape[0])
    return loss, _mse_grad(p, t)


def _check_trace(net: DenseNet, trace: ForwardTrace) -> None:
    if len(trace.pre) != net.n_layers or len(trace.post) != net.n_layers:
        raise ValueError("trace does not match net layer count")
    if trace.inputs.shape[1] != net.in_dim:
        raise ValueError("trace inputs do not match net input dim")
    for i, layer in enumerate(net.layers):
        if trace.pre[i].shape != (trace.batch_size, layer.out_dim):
            raise ValueError(f"trace pre-activation {i} has stale shape")


def backward(
    net: DenseNet,
    trace: ForwardTrace,
    loss_grad: object,
    want_input_grad: bool = False,
) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss given d(loss)/d(outputs)."""
    _check_trace(net, trace)
    da = _as_batch(loss_grad, "loss_grad")
    if da.shape != trace.post[-1].shape:
        raise ValueError(f"loss_grad shape {da.shape} does not match outputs {trace.post[-1].shape}")
    wgrads, bgrads, input_grad = _backward(
        _view(net), trace.inputs, trace.pre, trace.post, da, want_input_grad
    )
    return Gradients(weights=tuple(wgrads), biases=tuple(bgrads), input_grad=input_grad)


def sgd_step(net: DenseNet, grads: Gradients, eta: float) -> DenseNet:
    """Return the net after one step p <- p - eta*g; inputs are untouched."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if len(grads.weights) != net.n_layers or len(grads.biases) != net.n_layers:
        raise ValueError("gradients do not match net layer count")
    for layer, gw, gb in zip(net.layers, grads.weights, grads.biases):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ValueError("gradient shapes do not match layer shapes")
    params = _params(net)
    _sgd(params, grads.weights, grads.biases, eta)
    return _net(params)


def random_net(
    dims: Sequence[int],
    activations: Sequence[str],
    rng: np.random.Generator,
) -> DenseNet:
    """Build a net with the given layer widths.

    ``dims`` lists in/out sizes (len = layers + 1); weights are uniform in
    +-sqrt(6 / (fan_in + fan_out)), biases start at zero.
    """
    if len(dims) < 2:
        raise ValueError("dims must list at least input and output sizes")
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = int(dims[i]), int(dims[i + 1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights=w, bias=np.zeros(fan_out), activation=act))
    return DenseNet(layers=tuple(layers))


def zeros_net(dims: Sequence[int], activations: Sequence[str]) -> DenseNet:
    """Net with all parameters zero; its output is identically zero."""
    if len(dims) < 2:
        raise ValueError("dims must list at least input and output sizes")
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = [
        DenseLayer(
            weights=np.zeros((int(dims[i + 1]), int(dims[i]))),
            bias=np.zeros(int(dims[i + 1])),
            activation=act,
        )
        for i, act in enumerate(activations)
    ]
    return DenseNet(layers=tuple(layers))


def dumps_net(net: DenseNet) -> str:
    """Serialize to the text checkpoint format (17 significant digits)."""
    lines = [_CHECKPOINT_MAGIC, f"layers {net.n_layers}"]
    for layer in net.layers:
        lines.append(f"layer {layer.in_dim} {layer.out_dim} {layer.activation}")
        for row in layer.weights:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in layer.bias))
    return "\n".join(lines) + "\n"


def loads_net(text: str) -> DenseNet:
    """Parse the text checkpoint format; round-trips bit-exactly.

    Blank lines and '#' comment lines are ignored.
    """
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0].strip() != _CHECKPOINT_MAGIC:
        raise ValueError("not a dense-net checkpoint")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "layers":
        raise ValueError("malformed layer count")
    n_layers = int(head[1])
    pos = 2
    layers = []
    for _ in range(n_layers):
        fields = lines[pos].split()
        if len(fields) != 4 or fields[0] != "layer":
            raise ValueError(f"malformed layer header: {lines[pos]!r}")
        in_dim, out_dim, act = int(fields[1]), int(fields[2]), fields[3]
        pos += 1
        rows = []
        for _ in range(out_dim):
            row = np.array([float(v) for v in lines[pos].split()], dtype=np.float64)
            if row.shape != (in_dim,):
                raise ValueError("weight row length does not match in_dim")
            rows.append(row)
            pos += 1
        bias = np.array([float(v) for v in lines[pos].split()], dtype=np.float64)
        pos += 1
        layers.append(DenseLayer(weights=np.vstack(rows), bias=bias, activation=act))
    return DenseNet(layers=tuple(layers))


def save_net(net: DenseNet, path: str | Path) -> None:
    Path(path).write_text(dumps_net(net), encoding="utf-8")


def load_net(path: str | Path) -> DenseNet:
    return loads_net(Path(path).read_text(encoding="utf-8"))
