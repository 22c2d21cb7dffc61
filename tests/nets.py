"""Nets from explicit per-layer arrays, for the tests.

A net is its layer shapes plus one parameter vector; a test writes a net
down as its (weights, bias) arrays, and reads them back the same way. The
passes below are written with ``@`` on fresh arrays, as references for the
emitted ones.
"""

from __future__ import annotations

import numpy as np

from vhfl_lab import nnet


def net_of(*layers: tuple) -> nnet.DenseNet:
    """A net of ``(weights, bias)`` or ``(weights, bias, activation)`` per layer."""
    arrays = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64), *act) for w, b, *act in layers]
    shapes = tuple(nnet.DenseLayer(w.shape[1], w.shape[0], *act) for w, _, *act in arrays)
    return nnet.DenseNet(shapes, np.concatenate([a.ravel() for w, b, *_ in arrays for a in (w, b)]))


def arrays(net: nnet.DenseNet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the (weights, bias) views of the net's parameter vector."""
    return net.views(net.params)


def allocating_forward(layers, x):
    """The forward pass written with fresh arrays over ``(w, b, activation)``
    per layer: ``a @ w.mT + b`` and the activation; the per-layer pre- and
    post-activations."""
    pre, post = [], []
    for w, b, act in layers:
        z = x @ w.mT + b
        x = z if act == "identity" else np.maximum(z, 0.0) if act == "relu" else np.tanh(z)
        pre.append(z)
        post.append(x)
    return pre, post


def allocating_backward(params, x, pre, post, da):
    """The backward pass written with fresh arrays over ``(w, activation)``
    per layer: ``dz.mT @ x`` and ``dz.sum(axis=-2)`` per layer, and the input
    gradient ``dz @ w``."""
    wgrads, bgrads = [None] * len(params), [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, act = params[i]
        if act == "identity":
            dz = da
        elif act == "relu":
            dz = da * (pre[i] > 0.0)
        else:
            dz = da * (1.0 - post[i] * post[i])
        layer_in = x if i == 0 else post[i - 1]
        wgrads[i] = dz.mT @ layer_in
        bgrads[i] = dz.sum(axis=-2)
        da = dz @ w
    return wgrads, bgrads, da
