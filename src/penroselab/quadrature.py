"""Fixed-panel Gauss-Legendre quadrature.

Arc lengths and volumes between two radii go through QUADPACK in
:mod:`penroselab.geometry`.  This module holds the vectorised pieces that
need the same integral at many points at once:

- ``gauss_panel``: one 8-point Gauss-Legendre panel per interval, for
  arrays of intervals.
- ``PanelAntiderivative``: a fixed piecewise Gauss-Legendre antiderivative
  F(x) = integral from x to the right edge, cheap to evaluate anywhere and
  smooth enough for line searches.
"""

from __future__ import annotations

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def gauss_panel(f, a, b):
    """8-point Gauss-Legendre estimate of the integral of f over [a, b].

    ``a`` may be an array (with scalar or matching ``b``); f must accept arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = f(nodes.reshape(-1)).reshape(nodes.shape)
    return (vals * _GL_WEIGHTS).sum(axis=-1) * half


class PanelAntiderivative:
    """Right-anchored antiderivative on a fixed panel subdivision.

    Given edges x_0 < ... < x_P and an integrand f, precomputes per-panel
    Gauss-Legendre integrals so that F(x) = integral_x^{x_P} f can be
    evaluated anywhere in [x_0, x_P] with one extra 8-point panel.
    """

    def __init__(self, f, edges):
        self.f = f
        self.edges = np.asarray(edges, dtype=float)
        panels = gauss_panel(f, self.edges[:-1], self.edges[1:])
        suffix = np.zeros(len(self.edges))
        suffix[:-1] = np.cumsum(panels[::-1])[::-1]
        self.suffix = suffix

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        xs = np.atleast_1d(x_arr)
        idx = np.clip(np.searchsorted(self.edges, xs, side="right") - 1, 0, len(self.edges) - 2)
        partial = gauss_panel(self.f, xs, self.edges[idx + 1])
        out = partial + self.suffix[idx + 1]
        return float(out[0]) if scalar else out
