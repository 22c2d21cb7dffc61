"""Minimal dense neural-network engine.

Exact forward/backward passes over a fixed chain of affine+activation
layers, MSE loss, plain SGD, and gradients with respect to the batch
inputs (the quantity exchanged in vertical training). The public
functions are pure; nets are immutable and all arithmetic is float64.

A net is its layer shapes plus one parameter vector. A :class:`DenseLayer`
is a layer's ``in_dim``, ``out_dim`` and activation; a :class:`DenseNet`
chains its layers and holds ``params``, one finite float64 vector of shape
``(P,)``: layer by layer, one ``(in + 1, out)`` block ``[Wᵀ; b]``
row-major, the transposed weights with the bias as the last row. So every
operation on parameters is one vector operation. A stack of G nets is a
``(G, P)`` buffer, a gradient buffer of the same layout sits beside it, an
SGD step is the one update ``data -= eta * grad`` (``_sgd``), and building
a net from a vector checks it with one ``isfinite`` pass. The net gives the
per-layer block views of any ``(*lead, P)`` buffer
(:meth:`DenseNet.views`), and the kernels' :class:`Layer` views over one
(:meth:`DenseNet.kernel_layers`). The backward pass writes each layer's
gradients into its views of the gradient buffer. A net's ``params`` is a
read-only view, so nothing writes it through the net: a training phase
copies the vectors it trains into a buffer of its own, and no net it hands
out views memory that a later step writes.

Every layer input carries a ones column as its last, ``[a | 1]``
(:func:`with_ones`), so one product ``[a | 1] @ [Wᵀ; b]`` is the affine
map, and in the backward pass one product ``[a | 1]ᵀ @ dz`` writes the
weight and bias gradients into the block. The kernels take their inputs
with that column. The forward pass writes the ones of each hidden layer's
output buffer when it emits its list, and a training phase writes the
ones of its input stacks with their rows, so a replayed step writes none;
the public ``forward`` adds the column to a copy of the batch.
``dumps_net`` writes each layer's weight rows and bias, so the checkpoint
text does not depend on the layout.

The public ``mse_loss`` returns d(loss)/d(pred) = (2/b)(pred - y). A
training phase steps on the unscaled ``out - y`` instead and folds the 2/b
into the rate that its SGD update multiplies by, ``eta * (2/b)``
(``fedcore``), one multiply a step fewer; the two round differently in
the last place.

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
whatever the buffer's shape. A product issues the same BLAS call as its
allocating form, because a block view has the row-major strides of a
fresh array of its shape; only where the result lands changes.

Every product enters numpy through one rule, ``_product``: ``np.dot`` when
both operands are 2-d and each is C- or F-contiguous, ``np.matmul``
otherwise. On such operands the two entry points make the same BLAS call,
an F-ordered operand passed as a transposed matrix, and write the same
bits; np.dot costs less per call. np.dot takes a strided operand as a
row-major copy, where np.matmul passes it to BLAS in place. Under concat
w0's backward pass starts from the side gradient ``input_grad[...,
:width]``, a strided view, and the products on it stay on np.matmul: the
two rounded differently when the weight gradient took the view's
transpose, and ``tests/products.py`` measures both on it. A product into
the first columns of a wider buffer, as an identity hidden layer writes
beside its ones and w0's last layer writes u0 into wbar's input, has a
strided ``out``, which np.dot does not take; np.matmul writes it with the
bits of a product into a fresh buffer. The two agree on contiguous
operands under the SkylakeX, Haswell and Katmai kernels, the last two
forced in child processes by ``tests/test_nnet.py``.

The kernels also step a stack of G nets at once: batches of shape ``(G,
b, in + 1)`` and blocks ``(G, in + 1, out)``, or one net's 2-d blocks
broadcast over the stack. A stack's products stay on np.matmul, which
issues one BLAS call per slice with the slice's own shape, so each net of
the stack, and each batch through one net, gets the bits it would get
alone. Rows of different slices are never pooled into one matrix: a BLAS
kernel may round a row differently with the row count.

Each pass has one form, an emitter that appends its operations to a list
of ``(ufunc, args)`` pairs. ``_forward_ops`` appends, per layer, ``[a |
1] @ [Wᵀ; b]`` and the activation, and returns the output's buffer and
the :class:`Trace` that ``_backward_ops`` takes; that one appends, per layer from the last, the activation's derivative times
d(loss)/d(outputs), ``[a | 1]ᵀ @ dz`` into the layer's gradient block and
``dz @ W``. Every result is written into a buffer of a pool keyed by role
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
    (out_dim, in_dim) and its bias out_dim values, held as one (in_dim + 1,
    out_dim) block [Wᵀ; b]."""

    in_dim: int
    out_dim: int
    activation: str = "identity"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"a layer needs positive dims, got {self.in_dim} -> {self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class Layer(NamedTuple):
    """One layer as the kernels see it, with an optional leading stack axis:
    its ``(in + 1, out)`` block [Wᵀ; b] and its ``(out, in)`` weights W, the
    view ``block[..., :-1, :].mT`` that the input gradient's product takes."""

    block: np.ndarray
    weights: np.ndarray
    act: str


# Each layer's gradient block, as the kernels write it.
Grads = list[np.ndarray]


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

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Per layer, the ``(*lead, in + 1, out)`` block view [Wᵀ; b] of a
        ``(*lead, P)`` buffer in the net's layout."""
        lead = buf.shape[:-1]
        views = []
        start = 0
        for layer in self.layers:
            stop = start + (layer.in_dim + 1) * layer.out_dim
            views.append(buf[..., start:stop].reshape(*lead, layer.in_dim + 1, layer.out_dim))
            start = stop
        return views

    def kernel_layers(self, buf: np.ndarray) -> tuple[Layer, ...]:
        """The kernels' :class:`Layer` views of a ``(*lead, P)`` buffer."""
        return tuple(
            Layer(block, block[..., :-1, :].mT, layer.activation) for layer, block in zip(self.layers, self.views(buf))
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
    """A forward pass's per-layer inputs, each ``[a | 1]``, and its per-layer
    pre- and post-activations."""

    inputs: tuple[np.ndarray, ...]
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]


def with_ones(x: np.ndarray, pool: dict | None = None, start: int = 0) -> np.ndarray:
    """A layer input ``[a | 1]``: ``x`` in the columns from ``start`` of a
    fresh array of ``start + d + 1`` columns, and ones in its last column;
    the first ``start`` columns are left to the caller. With a pool, the
    pool's buffer of that shape, written when it is allocated: a pool holds
    the rows of one ``x`` per shape."""
    shape = (*x.shape[:-1], start + x.shape[-1] + 1)
    if pool is not None and (("ones", start), shape) in pool:
        return pool[("ones", start), shape]
    out = np.empty(shape) if pool is None else _buffer(pool, ("ones", start), shape)
    out[..., start:-1] = x
    out[..., -1] = 1.0
    return out


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


def _forward_ops(
    layers: Sequence[Layer], x: np.ndarray, ops: Ops, pool: dict, out: np.ndarray | None = None
) -> tuple[np.ndarray, Trace]:
    """Append the forward pass on the rows ``x = [a | 1]`` to ``ops``, each
    result in a buffer of ``pool`` and the output in ``out`` if given; a
    hidden layer's output lands in the first columns of the next layer's
    input, whose ones are written here, once per list. Returns the output's
    buffer and the trace that :func:`_backward_ops` takes."""
    inputs, pre, post = [x], [], []
    for i, layer in enumerate(layers):
        shape = (*x.shape[:-1], layer.block.shape[-1])
        if i + 1 < len(layers):
            inputs.append(_buffer(pool, ("post", i), (*shape[:-1], shape[-1] + 1)))
            inputs[-1][..., -1] = 1.0
            a = inputs[-1][..., :-1]
        else:
            a = _buffer(pool, ("post", i), shape) if out is None else out
        z = a if layer.act == "identity" else _buffer(pool, ("pre", i), shape)
        ops.append(_product(inputs[i], layer.block, z))
        if layer.act != "identity":
            # numpy deprecates a positional out for np.maximum
            ops.append((functools.partial(np.maximum, out=a), (z, 0.0)) if layer.act == "relu" else (np.tanh, (z, a)))
        pre.append(z)
        post.append(a)
    return post[-1], Trace(tuple(inputs), tuple(pre), tuple(post))


def _backward_ops(
    layers: Sequence[Layer], grads: Grads, trace: Trace, da: np.ndarray, ops: Ops, pool: dict, want_input_grad: bool
) -> np.ndarray | None:
    """Append the backward pass from d(loss)/d(outputs) ``da`` to ``ops``,
    writing each layer's parameter gradients into its entry of ``grads`` and
    every other result into a buffer of ``pool``; returns the buffer of
    d(loss)/d(x) if wanted."""
    inputs, pre, post = trace
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
        ops.append(_product(inputs[i].mT, dz, grads[i]))
        if i > 0 or want_input_grad:
            da = _buffer(pool, ("da", i), (*da.shape[:-1], layer.weights.shape[-1]))
            ops.append(_product(dz, layer.weights, da))
    return da if want_input_grad else None


def _run(ops: Ops) -> None:
    """Run an emitted list of operations in order."""
    for op, args in ops:
        op(*args)


def _output(net: DenseNet, x: np.ndarray, pool: dict | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked forward pass of a validated net on validated rows ``[a | 1]``,
    emitted into ``pool``, or a fresh pool, and run once; the output lands in
    ``out`` if given."""
    ops: Ops = []
    out, _ = _forward_ops(net._own_layers, x, ops, {} if pool is None else pool, out)
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
    out, trace = _forward_ops(net._own_layers, with_ones(x), ops, {})
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
    if not len(trace.inputs) == len(trace.pre) == len(trace.post) == net.n_layers:
        raise ValueError("trace does not match net layer count")
    if trace.inputs[0].shape[-1] != net.in_dim + 1:
        raise ValueError("trace inputs do not match net input dim")
    for i, layer in enumerate(net.layers):
        if trace.pre[i].shape != (*trace.inputs[0].shape[:-1], layer.out_dim):
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
        # drawn as (out, in) weight rows, laid out as the block's Wᵀ rows
        params += [rng.uniform(-limit, limit, size=(fan_out, fan_in)).T.ravel(), np.zeros(fan_out)]
    return DenseNet(tuple(layers), np.concatenate(params))


def dumps_net(net: DenseNet) -> str:
    """Serialize to the text checkpoint format (17 significant digits)."""
    lines = ["densenet 1", f"layers {net.n_layers}"]
    for layer, block in zip(net.layers, net.views(net.params)):
        lines.append(f"layer {layer.in_dim} {layer.out_dim} {layer.activation}")
        # the (out, in) weight rows, then the bias
        for row in block[:-1].T:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in block[-1]))
    return "\n".join(lines) + "\n"
