"""Nets from explicit per-layer arrays, for the tests.

A net is its layer shapes plus one parameter vector; a test writes a net
down as its (weights, bias) arrays, and reads them back the same way.
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
