"""8-point Gauss-Legendre panels: the package's one quadrature rule.

- ``gauss_panel``: one panel per interval, for arrays of intervals;
  ``gauss_nodes`` gives its nodes.
- ``gauss_adaptive``: the integral over pieces between given cuts, on equal
  panels per piece doubled until two sums agree to ``RTOL``, or
  :class:`QuadratureError`; arc lengths and volumes between two radii in
  :mod:`penroselab.geometry` go through it.
- ``PanelAntiderivative``: F(x) = integral from x to the last of fixed
  edges, from one fresh panel of f per query, smooth enough for root
  finding and able to follow integrands no node interpolant can.
- ``node_tails`` and ``NodeTable``: the same antiderivative at every Gauss
  node and anywhere, from f at the nodes alone: the 8 Lagrange basis
  polynomials, integrated (``_GL_TAIL``) and averaged (``_GL_MEAN``) from t
  to the panel's right end, make both exact for the degree-7 interpolant,
  so a query calls f not at all.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _tail_polynomials():
    """M[m, k] = coefficient of t^m in the mean over [t, 1] of the k-th Lagrange basis polynomial.

    That mean is the integral from t to 1, a degree-8 polynomial vanishing at
    1, divided by 1 - t.  Also returns T[j, k], the integral from node j.
    """
    poly = np.polynomial.polynomial
    x = _GL_NODES.astype(np.longdouble)  # extended precision keeps M and T correctly rounded
    tail, mean = np.empty((9, 8), dtype=np.longdouble), np.empty((8, 8), dtype=np.longdouble)
    for k in range(8):
        others = np.delete(x, k)
        anti = poly.polyint(poly.polyfromroots(others) / np.prod(x[k] - others))
        tail[:, k] = -anti
        tail[0, k] += poly.polyval(1, anti)
        mean[:, k] = poly.polydiv(tail[:, k], [1, -1])[0]
    return mean.astype(float), poly.polyval(x, tail).T.astype(float)


_GL_MEAN, _GL_TAIL = _tail_polynomials()


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


RTOL = 1e-13  # two successive sums of a piece agree to this, relative
MAX_DOUBLINGS = 12  # a piece not converged on 2^12 times its first panel count raises


def gauss_adaptive(f, cuts) -> float:
    """Integral of f from cuts[0] to cuts[-1], each piece between consecutive cuts to ``RTOL``.

    A piece starts on one equal panel per unit of its length (at least one),
    and the finer of the first two finite sums that agree is kept.  The
    caller names the span of a refusal, as only it knows the variable.
    """
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        panels, old = max(1, int(np.ceil(b - a))), np.nan
        for _ in range(MAX_DOUBLINGS + 1):
            edges = np.linspace(a, b, panels + 1)
            new = float(gauss_panel(f, edges[:-1], edges[1:]).sum())
            if np.isfinite(new) and abs(new - old) <= RTOL * abs(new):  # an inf after a finite sum would pass
                break
            old, panels = new, 2 * panels
        else:
            raise QuadratureError(f"no two sums within {RTOL:g} in {MAX_DOUBLINGS} doublings")
        total += new
    return total


def _panel_sums(vals, half):
    return (vals * _GL_WEIGHTS).sum(axis=-1) * half


def _suffix(panels):
    out = np.zeros(len(panels) + 1)
    out[:-1] = np.cumsum(panels[::-1])[::-1]
    return out


def node_tails(vals, half):
    """Integral from each Gauss node to its panel's right edge, shaped like ``vals``.

    ``vals`` holds f at ``gauss_nodes`` of P panels, shape (P, 8), and
    ``half`` their half-widths, shape (P,).
    """
    return (vals @ _GL_TAIL.T) * half[:, None]


class NodeTable:
    """Right-anchored antiderivative F(x) = integral_x^{x_P} f from f at the panels' Gauss nodes alone.

    ``vals`` holds f at ``gauss_nodes`` of the panels of ``edges``; a cut
    table takes all but its last panel from ``head``, and ``vals`` is that
    last panel alone.  The panels are summed as ``gauss_panel`` sums them
    into the edge values ``suffix``.  Inside a panel [a, b], F(x) = F(b) +
    (b - x) S, with S the mean over [x, b] of the degree-7 interpolant of the
    node values: a polynomial in the panel coordinate whose coefficients
    (highest first) are the node values times ``_GL_MEAN``, one 2-D matmul
    row per panel: the last panel's is ``top``, those below are ``coef``,
    shared with ``head`` and never written.  So F keeps its relative
    accuracy up to b and never calls f.  A float is the one computing path;
    anything else is answered element by element through it, so float and
    array queries agree by construction.  An edge query returns its stored
    value, so 0 at the last edge.
    """

    def __init__(self, edges, vals, half, head: NodeTable | None = None):
        self.edges = np.asarray(edges, dtype=float)
        self.last = len(self.edges) - 2  # index of the last panel
        panels = _panel_sums(vals, half)
        coef = vals @ _GL_MEAN[::-1].T
        self.top = coef[-1]
        self.panels = panels if head is None else np.append(head.panels[: self.last], panels)
        self.coef = coef if head is None else head.coef
        self.suffix = _suffix(self.panels)

    def __call__(self, x):
        if not isinstance(x, float):  # anything else element by element through the float path
            x = np.asarray(x, dtype=float)
            return np.array([self(v) for v in x.ravel().tolist()]).reshape(x.shape)
        edges, last = self.edges, self.last
        j = min(int(edges.searchsorted(x)), last + 1)  # first edge at or above x, at most the last
        if edges[j] == x:
            return float(self.suffix[j])
        i = max(j, 1) - 1
        a, b = edges[i : i + 2].tolist()
        t = (x - 0.5 * (a + b)) / (0.5 * (b - a))
        mean = 0.0
        for c in (self.top if i == last else self.coef[i]).tolist():
            mean = mean * t + c
        return float(self.suffix[i + 1]) + (b - x) * mean


class PanelAntiderivative:
    """Right-anchored antiderivative on a fixed panel subdivision.

    Given edges x_0 < ... < x_P and an integrand f, ``suffix`` holds the
    Gauss-Legendre integral from each edge to x_P, so that F(x) =
    integral_x^{x_P} f is the suffix at the edge above x plus one fresh
    8-point panel of f from x to that edge (the end panels extended).  A
    float and an array take the same path.
    """

    def __init__(self, f, edges):
        self.f = f
        self.edges = np.asarray(edges, dtype=float)
        self.suffix = _suffix(gauss_panel(f, self.edges[:-1], self.edges[1:]))

    def __call__(self, x):
        idx = np.searchsorted(self.edges[1:-1], x, side="right")  # panel of x, end panels extended
        return gauss_panel(self.f, x, self.edges[idx + 1]) + self.suffix[idx + 1]
