"""Nets from explicit per-layer arrays, for the tests.

A net is its layer shapes plus one parameter vector, each layer one
``(in + 1, out)`` block ``[Wᵀ; b]``; a test writes a net down as its
(weights, bias) arrays, weights ``(out, in)``, and reads them back the same
way. The passes below are written with ``@`` on fresh arrays over the
blocks, as references for the emitted ones.
"""

from __future__ import annotations

import numpy as np

from vhfl_lab import nnet


def net_of(*layers: tuple) -> nnet.DenseNet:
    """A net of ``(weights, bias)`` or ``(weights, bias, activation)`` per layer."""
    arrays = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64), *act) for w, b, *act in layers]
    shapes = tuple(nnet.DenseLayer(w.shape[1], w.shape[0], *act) for w, _, *act in arrays)
    # the block [Wᵀ; b] row-major is Wᵀ's rows, then b
    return nnet.DenseNet(shapes, np.concatenate([a.ravel() for w, b, *_ in arrays for a in (w.T, b)]))


def arrays(net: nnet.DenseNet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the (weights, bias) views of the net's parameter vector."""
    return [(block[..., :-1, :].mT, block[..., -1, :]) for block in net.views(net.params)]


def ones_column(x: np.ndarray) -> np.ndarray:
    """``[x | 1]`` as a fresh array."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def allocating_forward(layers, x):
    """The forward pass written with fresh arrays over ``(block,
    activation)`` per layer: ``[a | 1] @ block`` and the activation; the
    per-layer inputs ``[a | 1]`` and pre- and post-activations."""
    inputs, pre, post = [], [], []
    for block, act in layers:
        inputs.append(ones_column(x))
        z = inputs[-1] @ block
        x = z if act == "identity" else np.maximum(z, 0.0) if act == "relu" else np.tanh(z)
        pre.append(z)
        post.append(x)
    return inputs, pre, post


def allocating_backward(layers, inputs, pre, post, da):
    """The backward pass written with fresh arrays over ``(block,
    activation)`` per layer: the block's gradient ``[a | 1].mT @ dz`` per
    layer, and the input gradient ``dz @ W`` with ``W = block[:-1].mT``."""
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        block, act = layers[i]
        if act == "identity":
            dz = da
        elif act == "relu":
            dz = da * (pre[i] > 0.0)
        else:
            dz = da * (1.0 - post[i] * post[i])
        grads[i] = inputs[i].mT @ dz
        da = dz @ block[..., :-1, :].mT
    return grads, da
