"""Fixed-panel Gauss-Legendre quadrature.

Arc lengths and volumes between two radii go through QUADPACK in
:mod:`penroselab.geometry`.  This module holds the vectorised pieces that
need the same integral at many points at once:

- ``gauss_panel``: one 8-point Gauss-Legendre panel per interval, for
  arrays of intervals; ``gauss_nodes`` gives its nodes.
- ``PanelAntiderivative``: a fixed piecewise Gauss-Legendre antiderivative
  F(x) = integral from x to the right edge, cheap to evaluate anywhere and
  smooth enough for root finding.  ``PanelTable`` is the same object with
  its edge sums supplied by the caller; ``PanelTable.from_nodes`` sums them
  from the integrand's values at the nodes, exactly as
  ``PanelAntiderivative`` would.
- ``edge_suffix`` / ``node_suffix``: that antiderivative at the panel edges
  and at the Gauss nodes themselves, from the integrand's values at the
  nodes alone.  Inside a panel the node values come from the tail matrix
  ``_GL_TAIL``: entry [j, k] is the integral from node j to the panel's
  right end of the k-th Lagrange basis polynomial on the 8 nodes, so it is
  exact for the degree-7 interpolant.  One evaluation of f at the nodes
  thus gives both a panel table and f's antiderivative at every node.
"""

from __future__ import annotations

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _tail_matrix():
    """T[j, k] = integral from node j to 1 of the k-th Lagrange basis polynomial."""
    poly = np.polynomial.polynomial
    x = _GL_NODES.astype(np.longdouble)  # extended precision keeps T correctly rounded
    tail = np.empty((8, 8))
    for k in range(8):
        others = np.delete(x, k)
        anti = poly.polyint(poly.polyfromroots(others) / np.prod(x[k] - others))
        tail[:, k] = poly.polyval(1, anti) - poly.polyval(x, anti)
    return tail


_GL_TAIL = _tail_matrix()


def gauss_nodes(a, b):
    """The 8 Gauss-Legendre nodes of each interval [a, b] (trailing axis) and the half-widths."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * _GL_NODES, half


def gauss_panel(f, a, b):
    """8-point Gauss-Legendre estimate of the integral of f over [a, b].

    ``a`` may be an array (with scalar or matching ``b``); f must accept arrays.
    """
    nodes, half = gauss_nodes(a, b)
    return _panel_sums(f(nodes.reshape(-1)).reshape(nodes.shape), half)


def _panel_sums(vals, half):
    return (vals * _GL_WEIGHTS).sum(axis=-1) * half


def _suffix(panels):
    out = np.zeros(len(panels) + 1)
    out[:-1] = np.cumsum(panels[::-1])[::-1]
    return out


def edge_suffix(vals, half):
    """Integral from each edge to the last, from f at the nodes of ``gauss_nodes(edges)``.

    ``vals`` has shape (P, 8) for P panels and ``half`` shape (P,); the
    result has one entry per edge, the last one 0.  The panel sums are a
    matmul: equal to ``gauss_panel``'s up to rounding, and much faster on
    thousands of panels.
    """
    return _suffix((vals @ _GL_WEIGHTS) * half)


def node_suffix(vals, half):
    """Integral from each Gauss node to the last edge, shaped like ``vals``.

    The tail matrix covers the node's own panel, the edge suffix the rest.
    """
    return (vals @ _GL_TAIL.T) * half[:, None] + edge_suffix(vals, half)[1:, None]


class PanelTable:
    """Right-anchored antiderivative from its values at fixed panel edges.

    F(x) = integral_x^{x_P} f is ``suffix`` at the edge above x plus one
    8-point panel of f from x to that edge.
    """

    def __init__(self, f, edges, suffix, panels=None):
        self.f = f
        self.edges = np.asarray(edges, dtype=float)
        self.suffix = suffix
        self.panels = panels

    @classmethod
    def from_nodes(cls, f, edges, vals, half, head=()):
        """The table ``PanelAntiderivative(f, edges)`` builds, from f at ``gauss_nodes(edges)``.

        The panels are summed as ``gauss_panel`` sums them, so for an
        elementwise f the table at an edge returns its stored edge value bit
        for bit (``edge_suffix`` agrees only up to rounding).  It keeps the
        panel sums as ``panels``; ``head`` gives the first ones, ``vals`` the rest.
        """
        panels = np.append(head, _panel_sums(vals, half))
        return cls(f, edges, _suffix(panels), panels)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        xs = np.atleast_1d(x_arr)
        idx = np.searchsorted(self.edges[1:-1], xs, side="right")  # panel of x, end panels extended
        partial = gauss_panel(self.f, xs, self.edges[idx + 1])
        out = partial + self.suffix[idx + 1]
        return float(out[0]) if scalar else out


class PanelAntiderivative(PanelTable):
    """Right-anchored antiderivative on a fixed panel subdivision.

    Given edges x_0 < ... < x_P and an integrand f, precomputes per-panel
    Gauss-Legendre integrals so that F(x) = integral_x^{x_P} f can be
    evaluated anywhere in [x_0, x_P] with one extra 8-point panel.
    """

    def __init__(self, f, edges):
        edges = np.asarray(edges, dtype=float)
        super().__init__(f, edges, _suffix(gauss_panel(f, edges[:-1], edges[1:])))
