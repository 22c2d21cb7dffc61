"""Minimal dense neural-network engine.

Exact forward/backward passes over a fixed chain of affine+activation
layers, MSE loss, plain SGD, and gradients with respect to the batch
inputs (the quantity exchanged in vertical training). The public
functions are pure; nets are immutable and all arithmetic is float64.

A net is its layer shapes plus one parameter vector. A :class:`DenseLayer`
is a layer's ``in_dim``, ``out_dim`` and activation; a :class:`DenseNet`
chains its layers and holds ``params``, one finite float64 vector of shape
``(P,)``: layer by layer, the weights row-major and then the bias. So every
operation on parameters is one vector operation. A stack of G nets is a
``(G, P)`` buffer, a gradient buffer of the same layout sits beside it, an
SGD step is the one update ``data -= eta * grad`` (``_sgd``), and building
a net from a vector checks it with one ``isfinite`` pass. The net gives the
per-layer ``(w, b)`` views of any ``(*lead, P)`` buffer
(:meth:`DenseNet.views`), and the kernels' :class:`Layer` views over one
(:meth:`DenseNet.kernel_layers`), with the forward pass's transposed
weights and bias row taken once. ``_backward`` writes each layer's
gradients into its views of the gradient buffer. A net's ``params`` is a
read-only view, so nothing writes it through the net: a training phase
copies the vectors it trains into a fresh buffer, and the nets it hands
out hold views of that buffer, which no later phase writes.

Validate at the edges, run unchecked kernels inside the loop. The public
``forward``/``mse_loss``/``backward``/``sgd_step`` check every argument
and then call the private kernels ``_forward``/``_mse_grad``/
``_backward``, which check nothing. Both paths run the same float64
operations in the same order, so their results agree bit for bit.
``forward``, ``mse_loss`` and ``backward`` take a batch or a ``(*lead, b,
in)`` stack of batches through the one net; ``backward`` returns the
``(*lead, P)`` gradient vectors in the layout of ``params``, and
``sgd_step`` takes one ``(P,)`` vector. An argument that must be finite
and is not raises :class:`NonFiniteError`.

The layout leaves every bit as per-layer arrays would have it. The update
is elementwise, so each parameter sees the same multiply and subtract
whatever the buffer's shape. ``np.matmul(..., out=)`` and
``np.add.reduce(..., out=)`` issue the same BLAS call and the same
reduction per slice as their allocating forms, because a weight or bias
view has the row-major strides of a fresh array of its shape; only where
the result lands changes.

The kernels also step a stack of G nets at once: batches of shape
``(G, b, in)``, weights ``(G, out, in)`` and biases ``(G, out)``, or one
net's 2-d weights broadcast over the stack. np.matmul issues one BLAS call
per slice with the slice's own shape, and every reduction runs over one
slice's rows, so each net of the stack, and each batch through one net,
gets the bits it would get alone. Rows of different slices are never
pooled into one matrix: a BLAS kernel may round a row differently with the
row count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh")


class NonFiniteError(ValueError):
    """An array that must be finite holds inf or nan."""


def _as_batch(x: object, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"{name} must be a 2-d array or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


@dataclass(frozen=True)
class DenseLayer:
    """The shape of one affine map plus pointwise activation: its weights are
    (out_dim, in_dim) and its bias out_dim values."""

    in_dim: int
    out_dim: int
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"a layer needs positive dims, got {self.in_dim} -> {self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class Layer(NamedTuple):
    """One layer as the kernels see it: its parameters ``w``/``b``, with an
    optional leading stack axis, and the forward pass's ``w_t = w.mT`` and
    ``b_row = b[..., None, :]``, taken once."""

    w: np.ndarray
    b: np.ndarray
    act: str
    w_t: np.ndarray
    b_row: np.ndarray


# One layer's gradients as the kernels write them: (weights, bias).
Grads = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class DenseNet:
    """A chain of layer shapes and its ``(P,)`` parameter vector."""

    layers: tuple[DenseLayer, ...]
    params: np.ndarray

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
        params = np.asarray(self.params, dtype=np.float64)
        size = sum(layer.out_dim * (layer.in_dim + 1) for layer in layers)
        if params.shape != (size,):
            raise ValueError(f"params have shape {params.shape}, the layers hold ({size},)")
        if not np.isfinite(params).all():
            raise NonFiniteError("net parameters must be finite")
        # a read-only view, so no write through the net can undo the finite
        # check; the buffer it views stays writable
        params = params.view()
        params.flags.writeable = False
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "params", params)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def views(self, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, the (weights, bias) views of a ``(*lead, P)`` buffer in
        the net's layout."""
        lead = buf.shape[:-1]
        views = []
        start = 0
        for layer in self.layers:
            mid = start + layer.out_dim * layer.in_dim
            stop = mid + layer.out_dim
            views.append((buf[..., start:mid].reshape(*lead, layer.out_dim, layer.in_dim), buf[..., mid:stop]))
            start = stop
        return views

    def kernel_layers(self, buf: np.ndarray) -> tuple[Layer, ...]:
        """The kernels' :class:`Layer` views of a ``(*lead, P)`` buffer."""
        return tuple(
            Layer(w, b, layer.activation, w.mT, b[..., None, :])
            for layer, (w, b) in zip(self.layers, self.views(buf))
        )

    @functools.cached_property
    def _own_layers(self) -> tuple[Layer, ...]:
        """The kernels' view of ``params``; they are never written, so it is
        built once per net."""
        return self.kernel_layers(self.params)


@dataclass(frozen=True)
class ForwardTrace:
    """Cached per-layer pre/post activations for one batch or stack."""

    inputs: np.ndarray
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]


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
    return _forward(net._own_layers, x)[1][-1]


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


def _sgd(data: np.ndarray, grad: np.ndarray, eta: float) -> None:
    """p <- p - eta*g over a whole buffer, in place."""
    np.subtract(data, eta * grad, out=data)


def forward(net: DenseNet, batch: object) -> tuple[np.ndarray, ForwardTrace]:
    """Run the net on a (*lead, batch, in_dim) stack; returns outputs and a trace."""
    x = _as_batch(batch, "batch")
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"batch has {x.shape[-1]} columns, net expects {net.in_dim}")
    pre, post = _forward(net._own_layers, x)
    return post[-1], ForwardTrace(inputs=x, pre=tuple(pre), post=tuple(post))


def mse_loss(pred: object, target: object) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean over each batch of squared L2 error, a float for one batch and an
    array of the ``lead`` shape for a stack; also returns d(loss)/d(pred)."""
    p = _as_batch(pred, "pred")
    t = _as_batch(target, "target")
    if p.shape != t.shape:
        raise ValueError(f"pred shape {p.shape} != target shape {t.shape}")
    diff = p - t
    return np.sum(diff * diff, axis=(-2, -1)) / p.shape[-2], _mse_grad(p, t)


def _check_trace(net: DenseNet, trace: ForwardTrace) -> None:
    if len(trace.pre) != net.n_layers or len(trace.post) != net.n_layers:
        raise ValueError("trace does not match net layer count")
    if trace.inputs.shape[-1] != net.in_dim:
        raise ValueError("trace inputs do not match net input dim")
    for i, layer in enumerate(net.layers):
        if trace.pre[i].shape != (*trace.inputs.shape[:-1], layer.out_dim):
            raise ValueError(f"trace pre-activation {i} has stale shape")


def backward(
    net: DenseNet,
    trace: ForwardTrace,
    loss_grad: object,
    want_input_grad: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact reverse-mode gradients of a scalar loss per batch given
    d(loss)/d(outputs): the ``(*lead, P)`` parameter gradients in the layout
    of ``params``, and d(loss)/d(inputs) if wanted, else None."""
    _check_trace(net, trace)
    da = _as_batch(loss_grad, "loss_grad")
    if da.shape != trace.post[-1].shape:
        raise ValueError(f"loss_grad shape {da.shape} does not match outputs {trace.post[-1].shape}")
    grad = np.empty((*da.shape[:-2], net.params.size))
    input_grad = _backward(net._own_layers, net.views(grad), trace.inputs, trace.pre, trace.post, da, want_input_grad)
    return grad, input_grad


def sgd_step(net: DenseNet, grad: object, eta: float) -> DenseNet:
    """Return the net after one step p <- p - eta*g on a ``(P,)`` gradient;
    inputs are untouched."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != net.params.shape:
        raise ValueError(f"gradient has shape {g.shape}, the net's params {net.params.shape}")
    return DenseNet(net.layers, net.params - eta * g)


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
    params = []
    for i, act in enumerate(activations):
        fan_in, fan_out = int(dims[i]), int(dims[i + 1])
        layers.append(DenseLayer(fan_in, fan_out, act))
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params += [rng.uniform(-limit, limit, size=fan_out * fan_in), np.zeros(fan_out)]
    return DenseNet(tuple(layers), np.concatenate(params))


def dumps_net(net: DenseNet) -> str:
    """Serialize to the text checkpoint format (17 significant digits)."""
    lines = ["densenet 1", f"layers {net.n_layers}"]
    for layer, (weights, bias) in zip(net.layers, net.views(net.params)):
        lines.append(f"layer {layer.in_dim} {layer.out_dim} {layer.activation}")
        for row in weights:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in bias))
    return "\n".join(lines) + "\n"
