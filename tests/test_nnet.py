from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import products
from nets import allocating_backward, allocating_forward, arrays, net_of
from vhfl_lab import nnet
from vhfl_lab.rng import substream


def finite_difference_grads(net, x, y, step=1e-5):
    """Central finite differences of the MSE loss over every parameter, as one
    vector in the layout of ``params``."""
    fd = np.zeros_like(net.params)
    for k in range(fd.size):
        for sign in (+1.0, -1.0):
            params = net.params.copy()
            params[k] += sign * step
            out, _ = nnet.forward(nnet.DenseNet(net.layers, params), x)
            fd[k] += sign * nnet.mse_loss(out, y)[0]
    return fd / (2.0 * step)


def rel_err(a, b, floor=1e-6):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def test_forward_identity_layer():
    net = net_of((np.eye(3), np.zeros(3)))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 4.0]])
    out, _ = nnet.forward(net, x)
    assert np.array_equal(out, x)


def test_forward_scalar_affine():
    net = net_of(([[2.0]], [1.0]))
    out, _ = nnet.forward(net, [[3.0]])
    assert out == np.array([[7.0]])


def test_forward_matches_straightline_oracle():
    rng = substream(0, "fwd-oracle")
    net = nnet.random_net([4, 6, 3], ["tanh", "identity"], rng)
    x = rng.standard_normal((5, 4))
    out, _ = nnet.forward(net, x)
    (w1, b1), (w2, b2) = arrays(net)
    expected = np.tanh(x @ w1.T + b1) @ w2.T + b2
    assert rel_err(out, expected) < 1e-12


def test_forward_rejects_bad_input():
    net = net_of((np.eye(2), np.zeros(2)))
    with pytest.raises(ValueError):
        nnet.forward(net, np.ones((3, 5)))
    with pytest.raises(ValueError):
        nnet.forward(net, np.array([[1.0, np.nan]]))


def test_forward_determinism():
    rng = substream(1, "det")
    net = nnet.random_net([3, 5, 2], ["relu", "identity"], rng)
    x = rng.standard_normal((4, 3))
    a, _ = nnet.forward(net, x)
    b, _ = nnet.forward(net, x)
    assert np.array_equal(a, b)


def test_mse_perfect_prediction():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    loss, grad = nnet.mse_loss(pred, pred.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(pred))


def test_mse_scalar_case():
    loss, grad = nnet.mse_loss([[1.0]], [[0.0]])
    assert loss == 1.0
    assert np.array_equal(grad, np.array([[2.0]]))


def test_mse_matches_scalar_loop_oracle():
    rng = substream(2, "mse-oracle")
    pred = rng.standard_normal((7, 3))
    target = rng.standard_normal((7, 3))
    loss, grad = nnet.mse_loss(pred, target)
    acc = 0.0
    for i in range(7):
        for j in range(3):
            acc += (pred[i, j] - target[i, j]) ** 2
    assert abs(loss - acc / 7) < 1e-12 * max(1.0, abs(loss))
    for i in range(7):
        for j in range(3):
            assert abs(grad[i, j] - 2.0 * (pred[i, j] - target[i, j]) / 7) < 1e-15


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        nnet.mse_loss(np.ones((2, 2)), np.ones((2, 3)))


def test_mse_nonnegative_and_zero_iff_equal():
    rng = substream(3, "mse-prop")
    for _ in range(50):
        pred = rng.standard_normal((4, 2))
        target = rng.standard_normal((4, 2))
        loss, _ = nnet.mse_loss(pred, target)
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.array_equal(pred, target))


def test_backward_zero_loss_grad():
    rng = substream(4, "bw-zero")
    net = nnet.random_net([3, 4, 2], ["tanh", "identity"], rng)
    x = rng.standard_normal((5, 3))
    out, trace = nnet.forward(net, x)
    grad, input_grad = nnet.backward(net, trace, np.zeros_like(out), want_input_grad=True)
    assert np.array_equal(grad, np.zeros_like(net.params))
    assert np.array_equal(input_grad, np.zeros_like(x))


def test_backward_matches_finite_differences():
    rng = substream(5, "bw-fd")
    net = nnet.random_net([4, 8, 6, 2], ["tanh", "tanh", "identity"], rng)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 2))
    out, trace = nnet.forward(net, x)
    _, lgrad = nnet.mse_loss(out, y)
    grad, input_grad = nnet.backward(net, trace, lgrad)
    assert input_grad is None
    # rel_err is a maximum over entries, so this bounds every layer's weights and bias
    assert rel_err(grad, finite_difference_grads(net, x, y)) < 1e-4


def test_input_grad_identity_layer_is_chain_rule():
    rng = substream(6, "bw-input")
    w = rng.standard_normal((3, 5))
    net = net_of((w, np.zeros(3)))
    x = rng.standard_normal((4, 5))
    out, trace = nnet.forward(net, x)
    lgrad = rng.standard_normal(out.shape)
    _, input_grad = nnet.backward(net, trace, lgrad, want_input_grad=True)
    assert rel_err(input_grad, lgrad @ w) < 1e-12


def test_input_grad_matches_finite_differences():
    rng = substream(7, "bw-input-fd")
    net = nnet.random_net([3, 6, 2], ["tanh", "identity"], rng)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((4, 2))
    out, trace = nnet.forward(net, x)
    _, lgrad = nnet.mse_loss(out, y)
    _, input_grad = nnet.backward(net, trace, lgrad, want_input_grad=True)
    step = 1e-5
    fd = np.zeros_like(x)
    for (r, c), _ in np.ndenumerate(x):
        for sign in (+1.0, -1.0):
            xp = x.copy()
            xp[r, c] += sign * step
            o, _ = nnet.forward(net, xp)
            fd[r, c] += sign * nnet.mse_loss(o, y)[0]
    fd /= 2.0 * step
    assert rel_err(input_grad, fd) < 1e-4


def test_backward_rejects_stale_trace():
    rng = substream(8, "bw-stale")
    net = nnet.random_net([3, 4, 2], ["tanh", "identity"], rng)
    other = nnet.random_net([3, 5, 2], ["tanh", "identity"], rng)
    x = rng.standard_normal((2, 3))
    out, trace = nnet.forward(other, x)
    with pytest.raises(ValueError):
        nnet.backward(net, trace, np.zeros_like(out))


def test_sgd_zero_grads_no_change():
    rng = substream(9, "sgd")
    net = nnet.random_net([2, 3, 1], ["relu", "identity"], rng)
    stepped = nnet.sgd_step(net, np.zeros_like(net.params), 0.1)
    assert stepped.layers == net.layers
    assert np.array_equal(stepped.params, net.params)


def test_sgd_scalar_arithmetic():
    net = net_of(([[2.0]], [0.0]))
    stepped = nnet.sgd_step(net, np.array([0.5, 0.0]), 1.0)
    assert arrays(stepped)[0][0][0, 0] == 1.5


def test_sgd_two_steps_equal_one_combined_step():
    rng = substream(10, "sgd-linear")
    net = nnet.random_net([3, 2], ["identity"], rng)
    g1 = rng.standard_normal(net.params.size)
    g2 = rng.standard_normal(net.params.size)
    eta = 0.05
    two = nnet.sgd_step(nnet.sgd_step(net, g1, eta), g2, eta)
    one = nnet.sgd_step(net, g1 + g2, eta)
    (two_w, two_b), (one_w, one_b) = arrays(two)[0], arrays(one)[0]
    assert rel_err(two_w, one_w) < 1e-12
    assert np.allclose(two_b, one_b, atol=1e-15)


def test_sgd_rejects_nonpositive_eta():
    net = net_of((np.eye(2), np.zeros(2)))
    grad = np.zeros(6)
    with pytest.raises(ValueError):
        nnet.sgd_step(net, grad, 0.0)
    with pytest.raises(ValueError):
        nnet.sgd_step(net, grad, -0.1)


@pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), (2, 3)])
def test_sgd_rejects_a_gradient_of_another_shape(shape):
    net = net_of((np.eye(2), np.zeros(2)))
    with pytest.raises(ValueError, match=rf"^gradient has shape \({shape[0]},"):
        nnet.sgd_step(net, np.zeros(shape), 0.1)


def test_gradient_exactness_random_nets():
    rng = substream(11, "sweep")
    for trial in range(6):
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 9)) for _ in range(n_layers + 1)]
        acts = [str(rng.choice(["tanh", "identity"])) for _ in range(n_layers)]
        net = nnet.random_net(dims, acts, rng)
        x = rng.standard_normal((3, dims[0]))
        y = rng.standard_normal((3, dims[-1]))
        out, trace = nnet.forward(net, x)
        _, lgrad = nnet.mse_loss(out, y)
        grad, _ = nnet.backward(net, trace, lgrad)
        worst = rel_err(grad, finite_difference_grads(net, x, y))
        assert worst < 1e-4, f"trial {trial}: {worst}"


def test_dense_layer_validation():
    with pytest.raises(ValueError, match="positive dims"):
        net_of((np.ones((0, 2)), np.zeros(0)))
    with pytest.raises(ValueError, match=r"params have shape \(7,\), the layers hold \(6,\)"):
        net_of((np.ones((2, 2)), np.zeros(3)))
    with pytest.raises(nnet.NonFiniteError):
        net_of((np.array([[np.inf, 0.0]]), np.zeros(1)))
    with pytest.raises(ValueError, match="unknown activation"):
        net_of((np.ones((1, 1)), np.zeros(1), "sigmoid"))


def test_net_params_are_read_only_so_the_finite_check_holds():
    built = nnet.random_net([2, 3, 1], ["tanh", "identity"], substream(6, "read-only"))
    buffer = np.zeros((2, built.params.size))
    viewing = nnet.DenseNet(built.layers, buffer[1])
    for net in (built, viewing):
        with pytest.raises(ValueError, match="read-only"):
            net.params[0] = np.inf
        assert np.isfinite(net.params).all()
    # the net's view is read-only, the buffer it views is not
    buffer[1, 0] = 5.0
    assert buffer.flags.writeable and viewing.params[0] == 5.0


def test_net_dimension_chaining():
    with pytest.raises(ValueError, match="does not chain"):
        net_of((np.ones((3, 2)), np.zeros(3)), (np.ones((1, 4)), np.zeros(1)))


def test_checkpoint_roundtrip_bit_exact():
    rng = substream(12, "ckpt")
    for _ in range(5):
        dims = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5)))]
        acts = [str(rng.choice(nnet.ACTIVATIONS)) for _ in range(len(dims) - 1)]
        net = nnet.random_net(dims, acts, rng)
        lines = nnet.dumps_net(net).splitlines()
        assert lines[:2] == ["densenet 1", f"layers {net.n_layers}"]
        pos = 2
        for layer, (weights, bias) in zip(net.layers, arrays(net)):
            assert lines[pos] == f"layer {layer.in_dim} {layer.out_dim} {layer.activation}"
            # one line per weight row, then the bias; every token reads back to the same bits
            rows = [[float(v) for v in line.split()] for line in lines[pos + 1 : pos + 2 + layer.out_dim]]
            assert np.array(rows[:-1]).tobytes() == weights.tobytes()
            assert np.array(rows[-1]).tobytes() == bias.tobytes()
            pos += 2 + layer.out_dim
        assert pos == len(lines)


# ------------------------------------------------------ flat-layout kernels

# the layer widths of the shipped configs: wbar under concat and alone, and w0
LAB_DIMS = ([8, 16, 1], [4, 16, 1], [4, 16, 4])


def same_bits(a, b):
    """Equal shapes and identical bytes, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 14, 16])
@pytest.mark.parametrize("copies", [None, 1, 3, 10, 25])
def test_backward_into_flat_views_matches_allocating_reference(copies, rows):
    rng = substream(13, "flat-backward", copies or 0, rows)
    lead = () if copies is None else (copies,)
    for dims in LAB_DIMS:
        for acts in (["tanh", "identity"], ["relu", "tanh"], ["identity", "relu"]):
            net = nnet.random_net(dims, acts, rng)
            # a different net in every slice, so a mixed-up slice shows
            data = rng.standard_normal((*lead, net.params.size))
            grad = np.empty_like(data)
            layers, grads = net.kernel_layers(data), net.views(grad)
            x = rng.standard_normal((*lead, rows, dims[0]))
            # the emitted passes, each run once as a one-shot call runs them
            ops = []
            out, trace = nnet._forward_ops(layers, nnet.with_ones(x), ops, {})
            nnet._run(ops)
            blocks = [(layer.block.copy(), layer.act) for layer in layers]
            ref_inputs, ref_pre, ref_post = allocating_forward(blocks, x)
            for got, want in zip(trace.inputs + trace.pre + trace.post, ref_inputs + ref_pre + ref_post):
                assert same_bits(np.ascontiguousarray(got), want)
            da = rng.standard_normal(out.shape)
            ops = []
            input_grad = nnet._backward_ops(layers, grads, trace, da, ops, {}, True)
            nnet._run(ops)
            ref_grads, ref_input = allocating_backward(blocks, trace.inputs, trace.pre, trace.post, da)
            assert same_bits(input_grad, ref_input)
            for block, ref_block in zip(grads, ref_grads):
                assert np.shares_memory(block, grad)
                assert same_bits(block, ref_block)
            # the gradient views tile the buffer: every value was written
            assert grad.size == sum(block.size for block in ref_grads)


@pytest.mark.parametrize("copies", [None, 1, 3, 25])
def test_flat_sgd_matches_per_layer_step(copies):
    rng = substream(14, "flat-sgd", copies or 0)
    # two nets in one buffer, as the pooled phase concatenates wbar and w0
    nets = [nnet.random_net(dims, ["tanh", "identity"], rng) for dims in LAB_DIMS[:2]]
    values = np.concatenate([net.params for net in nets])
    data = np.empty(values.shape if copies is None else (copies, values.size))
    data[...] = values
    grad = np.empty_like(data)
    split = nets[0].params.size
    parts = [(nets[0], slice(0, split)), (nets[1], slice(split, None))]
    per_net = [net.kernel_layers(data[..., part]) for net, part in parts]
    for net, net_layers in zip(nets, per_net):
        for layer, (w, b) in zip(net_layers, arrays(net)):
            # every slice holds a copy of the net, in memory of its own
            assert np.array_equal(layer.weights, np.broadcast_to(w, layer.weights.shape))
            assert np.array_equal(layer.block[..., -1, :], np.broadcast_to(b, layer.block.shape[:-2] + b.shape))
            assert not np.shares_memory(data, w)
    data[...] = rng.standard_normal(data.shape)
    layers = [layer for net_layers in per_net for layer in net_layers]
    grads = [block for net, part in parts for block in net.views(grad[..., part])]
    # the update as a training phase emits it, replayed at each rate
    rate, ops = np.empty(()), []
    nnet._sgd_ops(data, grad, rate, np.empty_like(data), ops)
    for eta in (0.05, 0.3):
        grad[...] = rng.standard_normal(grad.shape)
        before = [layer.block.copy() for layer in layers]
        rate[...] = eta
        nnet._run(ops)
        for layer, block, gblock in zip(layers, before, grads):
            assert same_bits(layer.block, block - eta * gblock)


def test_public_step_runs_the_flat_kernels_on_fresh_buffers():
    rng = substream(15, "flat-public")
    net = nnet.random_net([4, 16, 1], ["tanh", "identity"], rng)
    x = rng.standard_normal((14, 4))
    out, trace = nnet.forward(net, x)
    _, lgrad = nnet.mse_loss(out, rng.standard_normal((14, 1)))
    grad, _ = nnet.backward(net, trace, lgrad)
    blocks = [(block, layer.activation) for layer, block in zip(net.layers, net.views(net.params))]
    inputs, pre, post = allocating_forward(blocks, x)
    ref_grads, _ = allocating_backward(blocks, inputs, pre, post, lgrad)
    assert same_bits(out, post[-1])
    # the hidden tanh layer writes a buffer of its own, which backward reads,
    # and its copy in the next layer's input holds the same bits
    for own, inp in zip(trace.post[:-1], trace.inputs[1:]):
        assert own.flags.c_contiguous and not np.shares_memory(own, inp)
        assert same_bits(own, np.ascontiguousarray(inp[..., :-1]))
    assert grad.shape == net.params.shape
    for block, ref_block in zip(net.views(grad), ref_grads):
        assert same_bits(block, ref_block)
    stepped = nnet.sgd_step(net, grad, 0.05)
    for new, old, gblock in zip(stepped.views(stepped.params), net.views(net.params), ref_grads):
        assert same_bits(new, old - 0.05 * gblock)
    assert not np.shares_memory(stepped.params, net.params)
    assert not np.shares_memory(stepped.params, grad)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_one_shot_passes_allocate_per_call(lead):
    """Two one-shot calls on the same net and shape return arrays that share
    no memory: no pool outlives a call, so none aliases u0 or a trace."""
    rng = substream(18, "one-shot", len(lead))
    net = nnet.random_net([4, 5, 3], ["relu", "tanh"], rng)
    x = rng.standard_normal((*lead, 6, 4))
    lgrad = rng.standard_normal((*lead, 6, 3))
    first, second = (nnet.forward(net, x) for _ in range(2))
    for a, b in zip((first[0], *first[1].pre, *first[1].post), (second[0], *second[1].pre, *second[1].post)):
        assert not np.shares_memory(a, b)
    grads = [nnet.backward(net, trace, lgrad, want_input_grad=True) for _, trace in (first, second)]
    for a, b in zip(grads[0], grads[1]):
        assert not np.shares_memory(a, b)
    x = nnet.with_ones(x)
    assert not np.shares_memory(nnet._output(net, x), nnet._output(net, x))


# ------------------------------------------------------- the API on a stack


@pytest.mark.parametrize("want_input_grad", [False, True])
@pytest.mark.parametrize("activation", nnet.ACTIVATIONS)
@pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
def test_public_api_on_a_stack_gives_each_batch_its_bits_alone(lead, activation, want_input_grad):
    rng = substream(16, "stacked-public", len(lead), lead[-1], activation)
    for dims in LAB_DIMS:
        net = nnet.random_net(dims, [activation, activation], rng)
        x = rng.standard_normal((*lead, 14, dims[0]))
        y = rng.standard_normal((*lead, 14, dims[-1]))
        out, trace = nnet.forward(net, x)
        loss, lgrad = nnet.mse_loss(out, y)
        grad, input_grad = nnet.backward(net, trace, lgrad, want_input_grad)
        assert loss.shape == lead and grad.shape == (*lead, net.params.size)
        assert (input_grad is None) == (not want_input_grad)
        for at in np.ndindex(lead):
            out_alone, trace_alone = nnet.forward(net, x[at])
            loss_alone, lgrad_alone = nnet.mse_loss(out_alone, y[at])
            grad_alone, input_alone = nnet.backward(net, trace_alone, lgrad_alone, want_input_grad)
            assert np.array_equal(out[at], out_alone)
            for a, b in zip(trace.pre + trace.post, trace_alone.pre + trace_alone.post):
                assert np.array_equal(a[at], b)
            assert np.array_equal(loss[at], loss_alone) and np.array_equal(lgrad[at], lgrad_alone)
            assert np.array_equal(grad[at], grad_alone)
            if want_input_grad:
                assert np.array_equal(input_grad[at], input_alone)


def test_public_api_checks_hold_on_a_stack():
    rng = substream(17, "stacked-checks")
    net = nnet.random_net([3, 4, 2], ["tanh", "identity"], rng)
    other = nnet.random_net([3, 5, 2], ["tanh", "identity"], rng)
    x = rng.standard_normal((4, 2, 3))
    with pytest.raises(ValueError, match="must be a 2-d array or a stack of them"):
        nnet.forward(net, x[0, 0])
    with pytest.raises(ValueError, match="^batch has 2 columns, net expects 3$"):
        nnet.forward(net, x[..., :2])
    with pytest.raises(nnet.NonFiniteError):
        nnet.forward(net, np.where(np.arange(3) == 1, np.nan, x))
    out, stale = nnet.forward(other, x)
    with pytest.raises(ValueError, match="stale shape"):
        nnet.backward(net, stale, np.zeros_like(out))
    out, trace = nnet.forward(net, x)
    with pytest.raises(ValueError, match=r"pred shape \(4, 2, 2\) != target shape \(2, 2\)"):
        nnet.mse_loss(out, out[0])
    # a loss gradient must match the outputs, stack axes included
    for bad in (out[0], out[:3], out[:, :1], np.zeros((4, 2, 3))):
        with pytest.raises(ValueError, match="does not match outputs"):
            nnet.backward(net, trace, bad)
    with pytest.raises(nnet.NonFiniteError):
        nnet.backward(net, trace, np.full_like(out, np.inf))


# ------------------------------------------------- the product's entry point


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 64),
    in_dim=st.integers(1, 16),
    out_dim=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_dot_writes_matmuls_bits_wherever_the_product_rule_sends_it(rows, in_dim, out_dim, seed):
    """Every layout that ``_product`` issues through ``np.dot`` gets the bits
    of ``np.matmul``; the side gradient's strided view stays on np.matmul,
    where np.dot takes a row-major copy of it."""
    layer = products.layer_products(np.random.default_rng(seed), rows, in_dim, out_dim)
    for name, (a, b) in layer.items():
        out = np.empty((a.shape[0], b.shape[1]))
        op, args = nnet._product(a, b, out)
        assert [id(arg) for arg in args] == [id(a), id(b), id(out)]
        # the side gradient's view of one row is contiguous too
        assert (op is np.dot) == (name in products.CONTIGUOUS or rows == 1), name
        if op is np.dot:
            assert same_bits(*products.by_dot_and_matmul(a, b)), name
    # a stack of the same layers stays on np.matmul, one BLAS call per slice
    x, block = layer["x @ w"]
    stack = np.stack([x, x])
    assert nnet._product(stack, block, np.empty((2, rows, out_dim)))[0] is np.matmul


@pytest.mark.skipif(products.openblas_core() == "unknown", reason="numpy has no bundled OpenBLAS to force a kernel on")
def test_contiguous_products_agree_under_other_openblas_kernels():
    """In a child process per forced OpenBLAS kernel, np.dot and np.matmul
    write the same bits for every contiguous layer product of a seeded sweep,
    and ``datagen.generate``'s stacked label maps give the bits of the
    per-client loop on every config of a seeded sweep. ``Zen`` is not
    forced: this numpy's OpenBLAS runs ``Haswell`` for it."""
    found = {}
    for core in ("Haswell", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core}
        out = subprocess.run([sys.executable, products.__file__], env=env, capture_output=True, text=True, check=True)
        found[core] = json.loads(out.stdout)
    for core, report in found.items():
        assert all(report["differ"][name] == 0 for name in products.CONTIGUOUS), (core, report)
        assert report["generate"] == 0, (core, report)
    # each child runs the kernel it forced; Prescott's is named Katmai
    assert {core: report["core"] for core, report in found.items()} == {"Haswell": "Haswell", "Prescott": "Katmai"}
