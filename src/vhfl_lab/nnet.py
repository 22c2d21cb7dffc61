"""Minimal dense neural-network engine.

Exact forward/backward passes over a fixed stack of affine+activation
layers, MSE loss, plain SGD, and gradients with respect to the batch
inputs (the quantity exchanged in vertical training). The public
functions are pure; nets are immutable and all arithmetic is float64.

Validate at the edges, run unchecked kernels inside the loop. The public
``forward``/``mse_loss``/``backward``/``sgd_step`` check every argument
and then call the private kernels ``_forward``/``_mse_grad``/
``_backward``/``_sgd``, which check nothing. Both paths run the same
float64 operations in the same order, so their results agree bit for bit.

One parameter layout. A training phase copies the nets it trains into one
contiguous float64 buffer with ``_pack``: net after net, layer after
layer, each layer's weights row-major and then its bias, P values in all.
The buffer has shape ``(P,)``, or ``(G, P)`` for a stack of G copies, and
a gradient buffer of the same layout sits beside it (:class:`Flat`). The
kernels see each layer as a :class:`Layer` of views into the buffer, with
the forward pass's transposed weights and bias row taken once per phase;
the views stay valid because every update writes the buffer in place.
``_backward`` writes each layer's gradients into its views of the gradient
buffer, and ``_sgd`` is the one update ``data -= eta * grad`` over the
whole buffer. When the phase ends, ``_net`` builds one validated net that
holds views of the buffer. A phase packs a fresh buffer, so it never
rewrites a net an earlier phase handed out. A net's arrays are never
written, so each net builds its own :class:`Layer` view once, for the
public ``forward`` and ``backward``; ``backward`` writes into fresh
arrays, and ``sgd_step`` steps a fresh packed copy of its net.

The layout leaves every bit as the allocating code had it. The update is
elementwise, so each parameter sees the same multiply and subtract
whatever the buffer's shape. ``np.matmul(..., out=)`` and
``np.add.reduce(..., out=)`` issue the same BLAS call and the same
reduction per slice as their allocating forms, because a weight or bias
view has the row-major strides of a fresh array of its shape; only where
the result lands changes.

The kernels also step a stack of G nets at once: batches of shape
``(G, b, in)``, weights ``(G, out, in)`` and biases ``(G, out)``. np.matmul
issues one BLAS call per slice with the slice's own shape, and every
reduction runs over one slice's rows, so each net of the stack gets the
bits it would get alone. Rows of different nets are never pooled into one
matrix: a BLAS kernel may round a row differently with the row count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh")


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

    @functools.cached_property
    def _kernel_layers(self) -> tuple[Layer, ...]:
        """The kernels' view of the net's own arrays. A net's arrays are never
        written, so it is built once per net."""
        return tuple(_layer(layer.weights, layer.bias, layer.activation) for layer in self.layers)


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


# One layer's parameters as nets store them: (weights, bias, activation).
Params = list[tuple[np.ndarray, np.ndarray, str]]
# One layer's gradients as the kernels write them: (weights, bias).
Grads = list[tuple[np.ndarray, np.ndarray]]


class Layer(NamedTuple):
    """One layer as the kernels see it: its parameters ``w``/``b``, with an
    optional leading stack axis, and the forward pass's ``w_t = w.mT`` and
    ``b_row = b[..., None, :]``, taken once."""

    w: np.ndarray
    b: np.ndarray
    act: str
    w_t: np.ndarray
    b_row: np.ndarray


def _layer(w: np.ndarray, b: np.ndarray, act: str) -> Layer:
    return Layer(w, b, act, w.mT, b[..., None, :])


@dataclass(frozen=True, eq=False)
class Flat:
    """Nets in the flat layout: parameters ``data`` and gradients ``grad`` of
    shape ``(*lead, P)``, and per net its layers and their gradients, views
    of ``data`` and of ``grad``."""

    data: np.ndarray
    grad: np.ndarray
    nets: tuple[tuple[Layer, ...], ...]
    grads: tuple[Grads, ...]


def _views(buf: np.ndarray, nets: Sequence[DenseNet]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per net and layer, the (weights, bias) views of a ``(*lead, P)`` buffer
    in the flat layout of ``nets``: layer by layer, the weights row-major and
    then the bias."""
    lead = buf.shape[:-1]
    views = []
    start = 0
    for net in nets:
        layers = []
        for layer in net.layers:
            mid = start + layer.weights.size
            stop = mid + layer.out_dim
            layers.append((buf[..., start:mid].reshape(*lead, *layer.weights.shape), buf[..., mid:stop]))
            start = stop
        views.append(layers)
    return views


def _pack(nets: Sequence[DenseNet], copies: int | None = None) -> Flat:
    """Fresh buffers in the flat layout of ``nets``: the data a copy of the
    nets, or ``copies`` copies stacked as ``(copies, P)``; the gradients unset."""
    values = np.concatenate([a.ravel() for net in nets for layer in net.layers for a in (layer.weights, layer.bias)])
    data = np.empty(values.shape if copies is None else (copies, values.size))
    data[...] = values
    grad = np.empty_like(data)
    nets_layers = tuple(
        tuple(_layer(w, b, layer.activation) for layer, (w, b) in zip(net.layers, params))
        for net, params in zip(nets, _views(data, nets))
    )
    return Flat(data, grad, nets_layers, tuple(_views(grad, nets)))


def _view(net: DenseNet) -> Params:
    """A net's own arrays, as :func:`_net` takes them."""
    return [(layer.weights, layer.bias, layer.activation) for layer in net.layers]


def _net(params: Sequence[Sequence]) -> DenseNet:
    """Build (and validate) a net that holds the given arrays without copying;
    each entry starts with (weights, bias, activation), as a :class:`Layer` does."""
    return DenseNet(tuple(DenseLayer(w, b, act) for w, b, act, *_ in params))


def _forward(layers: Sequence[Layer], x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer pre- and post-activations; the output is ``post[-1]``."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    a = x
    for layer in layers:
        z = a @ layer.w_t + layer.b_row
        a = _activate(layer.act, z)
        pre.append(z)
        post.append(a)
    return pre, post


def _output(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Unchecked forward pass of a validated net on validated rows."""
    return _forward(net._kernel_layers, x)[1][-1]


def _mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mean squared L2 error)/d(pred)."""
    return (2.0 / pred.shape[-2]) * (pred - target)


def _backward(
    layers: Sequence[Layer],
    grads: Grads,
    x: np.ndarray,
    pre: Sequence[np.ndarray],
    post: Sequence[np.ndarray],
    da: np.ndarray,
    want_input_grad: bool,
) -> np.ndarray | None:
    """Write each layer's parameter gradients into its entry of ``grads``,
    given d(loss)/d(outputs); returns d(loss)/d(x) if wanted."""
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.act == "identity":
            dz = da  # the derivative is 1, and x * 1.0 == x bit for bit
        elif layer.act == "relu":
            # subgradient at 0 fixed to 0
            dz = da * (pre[i] > 0.0)
        else:
            # post[i] is tanh(pre[i]), and np.tanh is deterministic
            dz = da * (1.0 - post[i] * post[i])
        gw, gb = grads[i]
        np.matmul(dz.mT, x if i == 0 else post[i - 1], out=gw)
        np.add.reduce(dz, axis=-2, out=gb)
        if i > 0 or want_input_grad:
            da = dz @ layer.w
    return da if want_input_grad else None


def _sgd(flat: Flat, eta: float) -> None:
    """p <- p - eta*g over the whole buffer, in place; elementwise, so bit for
    bit the per-layer out-of-place step."""
    np.subtract(flat.data, eta * flat.grad, out=flat.data)


def forward(net: DenseNet, batch: object) -> tuple[np.ndarray, ForwardTrace]:
    """Run the net on a (batch, in_dim) matrix; returns outputs and a trace."""
    x = _as_batch(batch, "batch")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"batch has {x.shape[1]} columns, net expects {net.in_dim}")
    pre, post = _forward(net._kernel_layers, x)
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
    grads = [(np.empty(layer.weights.shape), np.empty(layer.bias.shape)) for layer in net.layers]
    input_grad = _backward(net._kernel_layers, grads, trace.inputs, trace.pre, trace.post, da, want_input_grad)
    weights, biases = zip(*grads)
    return Gradients(weights=weights, biases=biases, input_grad=input_grad)


def sgd_step(net: DenseNet, grads: Gradients, eta: float) -> DenseNet:
    """Return the net after one step p <- p - eta*g; inputs are untouched."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if len(grads.weights) != net.n_layers or len(grads.biases) != net.n_layers:
        raise ValueError("gradients do not match net layer count")
    for layer, gw, gb in zip(net.layers, grads.weights, grads.biases):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ValueError("gradient shapes do not match layer shapes")
    flat = _pack([net])
    for (gw, gb), w_grad, b_grad in zip(flat.grads[0], grads.weights, grads.biases):
        gw[...] = w_grad
        gb[...] = b_grad
    _sgd(flat, eta)
    return _net(flat.nets[0])


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


def dumps_net(net: DenseNet) -> str:
    """Serialize to the text checkpoint format (17 significant digits)."""
    lines = ["densenet 1", f"layers {net.n_layers}"]
    for layer in net.layers:
        lines.append(f"layer {layer.in_dim} {layer.out_dim} {layer.activation}")
        for row in layer.weights:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in layer.bias))
    return "\n".join(lines) + "\n"

