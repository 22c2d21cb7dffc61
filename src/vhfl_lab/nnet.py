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
weights and bias row taken once. The backward pass writes each layer's
gradients into its views of the gradient buffer. A net's ``params`` is a
read-only view, so nothing writes it through the net: a training phase
copies the vectors it trains into a buffer of its own, and no net it hands
out views memory that a later step writes.

Validate at the edges, run unchecked kernels inside the loop. The public
``forward``/``mse_loss``/``backward``/``sgd_step`` check every argument
and then run the private kernels, which check nothing, so a training phase
that runs the kernels itself gets the public functions' bits; ``fedcore``
checks each local-phase shape once through ``forward``, ``mse_loss`` and
``backward``, where it builds the phase.
``forward``, ``mse_loss`` and ``backward`` take a batch or a ``(*lead, b,
in)`` stack of batches through the one net; ``backward`` returns the
``(*lead, P)`` gradient vectors in the layout of ``params``, and
``sgd_step`` takes one ``(P,)`` vector. An argument that must be finite
and is not raises :class:`NonFiniteError`.

The layout leaves every bit as per-layer arrays would have it. The update
is elementwise, so each parameter sees the same multiply and subtract
whatever the buffer's shape. A product and ``np.add.reduce(..., out=)``
issue the same BLAS call and the same reduction per slice as their
allocating forms, because a weight or bias view has the row-major strides
of a fresh array of its shape; only where the result lands changes.

Every product enters numpy through one rule, ``_product``: ``np.dot`` when
both operands are 2-d and each is C- or F-contiguous, ``np.matmul``
otherwise. On such operands the two entry points make the same BLAS call,
an F-ordered operand passed as a transposed matrix, and write the same
bits; np.dot costs less per call. They part on one layout the kernels
meet: under concat w0's backward pass starts from the side gradient
``input_grad[..., :width]``, a strided view. np.matmul passes its transpose
to BLAS in place, np.dot multiplies a row-major copy, and the kernels round
the two calls differently, so the products on that view stay on np.matmul.
The two agree on contiguous operands under the SkylakeX, Haswell and
Katmai kernels, the last two forced in child processes by
``tests/test_nnet.py``.

The kernels also step a stack of G nets at once: batches of shape
``(G, b, in)``, weights ``(G, out, in)`` and biases ``(G, out)``, or one
net's 2-d weights broadcast over the stack. A stack's products stay on
np.matmul, which issues one BLAS call per slice with the slice's own shape,
and every reduction runs over one slice's rows, so each net of the stack,
and each batch through one net, gets the bits it would get alone. Rows of
different slices are never pooled into one matrix: a BLAS kernel may round
a row differently with the row count.

Each pass has one form, an emitter that appends its operations to a list
of ``(ufunc, args)`` pairs. ``_forward_ops`` appends, per layer,
``a @ w_t``, ``+ b_row`` and the activation, and returns the
output's buffer and the :class:`Trace` that ``_backward_ops`` takes; that
one appends, per layer from the last, the activation's derivative times
d(loss)/d(outputs), ``dz.mT @ prev``, ``add.reduce(dz, axis=-2)`` and
``dz @ w``. Every result is written into a buffer of a pool keyed by role
and shape, and the weights and gradients a list names are views of the
caller's buffers, so each replay reads the current parameters. An ``out=``
buffer gets the bits of the allocating form, as above. A training phase
emits a step once and replays it (see ``fedcore``). A one-shot call,
``_output``, ``forward`` or ``backward``, emits into a pool, fresh unless
the caller passes one to ``_output``, and runs the list once (``_run``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


# A step's operations as the emitters write them: (ufunc, positional args).
Ops = list[tuple[Callable[..., object], tuple]]
# The 1.0 of the tanh derivative as a 0-d float64 array, which a ufunc takes
# faster than a Python float, with the same float64 loop and bits.
_ONE = np.array(1.0)


class Trace(NamedTuple):
    """A forward pass's input and its per-layer pre- and post-activations."""

    inputs: np.ndarray
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]


def _buffer(pool: dict, role: tuple, shape: tuple[int, ...]) -> np.ndarray:
    """The pool's float64 buffer of ``role`` and ``shape``, allocated on first use."""
    if (role, shape) not in pool:
        pool[role, shape] = np.empty(shape)
    return pool[role, shape]


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> tuple[Callable[..., object], tuple]:
    """The op ``a @ b`` into ``out``: ``np.dot`` when both operands are 2-d
    and C- or F-contiguous, else ``np.matmul`` (see the module docstring);
    np.dot also needs a C-contiguous ``out``, which every emitted one is."""
    dot = a.ndim == b.ndim == 2 and a.flags.forc and b.flags.forc and out.flags.c_contiguous
    return np.dot if dot else np.matmul, (a, b, out)


def _forward_ops(layers: Sequence[Layer], x: np.ndarray, ops: Ops, pool: dict) -> tuple[np.ndarray, Trace]:
    """Append the forward pass on ``x`` to ``ops``, each result in a buffer of
    ``pool``; returns the output's buffer and the trace that
    :func:`_backward_ops` takes."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    a = x
    for i, layer in enumerate(layers):
        z = _buffer(pool, ("pre", i), (*a.shape[:-1], layer.b.shape[-1]))
        ops += (_product(a, layer.w_t, z), (np.add, (z, layer.b_row, z)))
        a = z if layer.act == "identity" else _buffer(pool, ("post", i), z.shape)
        if layer.act != "identity":
            # numpy deprecates a positional out for np.maximum
            ops.append((functools.partial(np.maximum, out=a), (z, 0.0)) if layer.act == "relu" else (np.tanh, (z, a)))
        pre.append(z)
        post.append(a)
    return a, Trace(x, tuple(pre), tuple(post))


def _backward_ops(
    layers: Sequence[Layer], grads: Grads, trace: Trace, da: np.ndarray, ops: Ops, pool: dict, want_input_grad: bool
) -> np.ndarray | None:
    """Append the backward pass from d(loss)/d(outputs) ``da`` to ``ops``,
    writing each layer's parameter gradients into its entry of ``grads`` and
    every other result into a buffer of ``pool``; returns the buffer of
    d(loss)/d(x) if wanted."""
    x, pre, post = trace
    for i, layer in reversed(list(enumerate(layers))):
        # identity: the derivative is 1, and da * 1.0 == da bit for bit
        dz = da if layer.act == "identity" else _buffer(pool, ("dz", i), da.shape)
        if layer.act == "relu":
            # the subgradient at 0 is 0; the mask as 1.0 or 0.0, and da times
            # it rounds as da times the bool
            ops += ((np.greater, (pre[i], 0.0, dz)), (np.multiply, (da, dz, dz)))
        elif layer.act == "tanh":
            # post[i] is tanh(pre[i]), and np.tanh is deterministic
            ops += ((np.multiply, (post[i], post[i], dz)), (np.subtract, (_ONE, dz, dz)), (np.multiply, (da, dz, dz)))
        gw, gb = grads[i]
        ops += (_product(dz.mT, x if i == 0 else post[i - 1], gw), (np.add.reduce, (dz, -2, None, gb)))
        if i > 0 or want_input_grad:
            da = _buffer(pool, ("da", i), (*da.shape[:-1], layer.w.shape[-1]))
            ops.append(_product(dz, layer.w, da))
    return da if want_input_grad else None


def _run(ops: Ops) -> None:
    """Run an emitted list of operations in order."""
    for op, args in ops:
        op(*args)


def _output(net: DenseNet, x: np.ndarray, pool: dict | None = None) -> np.ndarray:
    """Unchecked forward pass of a validated net on validated rows, emitted
    into ``pool``, or a fresh pool, and run once."""
    ops: Ops = []
    out, _ = _forward_ops(net._own_layers, x, ops, {} if pool is None else pool)
    _run(ops)
    return out


def _sgd(data: np.ndarray, grad: np.ndarray, eta: float | np.ndarray, out: np.ndarray | None = None) -> None:
    """p <- p - eta*g over a whole buffer, in place, with eta*g in ``out`` if
    given."""
    np.subtract(data, np.multiply(eta, grad, out=out), out=data)


def forward(net: DenseNet, batch: object) -> tuple[np.ndarray, Trace]:
    """Run the net on a (*lead, batch, in_dim) stack; returns outputs and a trace."""
    x = _as_batch(batch, "batch")
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"batch has {x.shape[-1]} columns, net expects {net.in_dim}")
    ops: Ops = []
    out, trace = _forward_ops(net._own_layers, x, ops, {})
    _run(ops)
    return out, trace


def mse_loss(pred: object, target: object) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean over each batch of squared L2 error, a float for one batch and an
    array of the ``lead`` shape for a stack; also returns d(loss)/d(pred)."""
    p = _as_batch(pred, "pred")
    t = _as_batch(target, "target")
    if p.shape != t.shape:
        raise ValueError(f"pred shape {p.shape} != target shape {t.shape}")
    diff = p - t
    return np.sum(diff * diff, axis=(-2, -1)) / p.shape[-2], (2.0 / p.shape[-2]) * diff


def _check_trace(net: DenseNet, trace: Trace) -> None:
    if len(trace.pre) != net.n_layers or len(trace.post) != net.n_layers:
        raise ValueError("trace does not match net layer count")
    if trace.inputs.shape[-1] != net.in_dim:
        raise ValueError("trace inputs do not match net input dim")
    for i, layer in enumerate(net.layers):
        if trace.pre[i].shape != (*trace.inputs.shape[:-1], layer.out_dim):
            raise ValueError(f"trace pre-activation {i} has stale shape")


def backward(
    net: DenseNet,
    trace: Trace,
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
    ops: Ops = []
    input_grad = _backward_ops(net._own_layers, net.views(grad), trace, da, ops, {}, want_input_grad)
    _run(ops)
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
