"""Prescribed-mean-curvature bubbles in the rotationally symmetric reduction.

The prescribed family is

    h_{eps,beta}(t) = eps coth(3 eps t / 4 + beta),   t > -4 beta / (3 eps),

strictly decreasing, blowing up at the left end of its domain, tending to eps
as beta grows, and satisfying 2h' + (3/2) h^2 = (3/2) eps^2 identically.

A bubble problem fixes an anchor sphere S_{r0}, a Lipschitz-shrunk signed
arc-length coordinate rho(r) <= 0 inside the anchor, and the weighted
functional over radial balls {r < x}:

    A(x) = area(S_x) + integral_x^{r0} h(rho(r)) dV/dr dr.

Because dA/dx = (H(S_x) - h(rho(x))) area(S_x) u^{2/(n-2)}, an interior
minimizer satisfies the first-variation identity H = h o rho exactly, and
the functional blows up at the inner barrier where h does.  So every
interior minimizer is a sign change of g = H - h o rho from - to +:
minimization brackets each such change between consecutive anchor-table
edges, refines it to a few ulps in r with ``masses._root`` (Brent's method),
and keeps the root with the lowest functional value.  Every edge from the
barrier radius up is a bracket end: g can change sign several times near it.

The work splits by what it depends on.  A table per schedule holds, from one
evaluation of u at 4096 x 8 Gauss nodes between the floor and r0, the arc
length to the anchor at every node and every panel edge, and the volume
weight 4 pi u^6 r^2 at every node.  ``horizon_sequence`` reuses it for every
curvature; ``rigidity_iteration`` cuts it at each re-anchored step's anchor,
evaluating u on one partial panel.  One object per curvature: a
``MuBubbleProblem`` does all its work when it is made, on the table it is
given or on a fresh one.  Its barrier radius comes from inverting the table:
``searchsorted`` on the edge values of rho finds its panel, and Brent's
method finds it inside that panel.  The bulk term reuses the table's panels
from 1.02 times the barrier radius up; below, where h blows up, fresh
8-point panels halve in width toward it.

Beta selection has two layers.  ``choose_beta`` enforces only the anchor
barrier h(0) <= 0.9 H(S_{r0}), at twice the least such beta,
arccoth(0.9 H(S_{r0}) / eps).  ``select_beta``
additionally floors beta with the depth bound

    arccoth(1.8) + (3/4) area(S_{r0}) / A_inf + pi,

which keeps h below 1.8 eps throughout the region a minimizer can occupy
(arc-length depth at most area(S_{r0})/(eps A_inf) plus the diameter bound
4 pi/(3 eps)); that is what drives the bubble's mean curvature below 2 eps
and makes the horizon-approaching and shrinking-curvature schedules work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BarrierError,
    DegenerateMinimizerError,
    EpsilonTooLargeError,
    OutOfCollectionError,
    ParameterError,
    PenroseLabError,
    UnsupportedDimensionError,
)
from .geometry import (
    _arc_weight,
    geodesic_distance,
    intrinsic_diameter,
    sphere_area,
    sphere_mean_curvature,
    volume_between,
)
from .masses import _hawking_value, _root, area_infimum_radial, penrose_check, EQUALITY_TOL
from .profiles import RadialProfile
from .quadrature import PanelTable, edge_suffix, gauss_nodes, node_suffix

LIP_FACTOR_DEFAULT = 1.0 - 1e-6
_PANELS = 4096
_GRADED_FROM = 1.02  # below this multiple of the barrier radius the bulk panels are graded
_HALVINGS = 30  # the graded panels halve in width this many times toward the barrier radius
_BETA_MARGIN = 0.9
_DEPTH_COTH = 1.8  # h is kept below this multiple of eps on the reachable region


def _coth(x):
    return 1.0 / np.tanh(x)


def _arccoth(x: float) -> float:
    return 0.5 * math.log((x + 1.0) / (x - 1.0))


@dataclass(frozen=True)
class PrescribedMeanCurvature:
    """The (eps, beta) prescribed curvature eps coth(3 eps t/4 + beta).

    A float t takes a scalar path with the same checks and the same numpy
    ``tanh`` as an array, so its value is the array path's bit for bit.
    """

    epsilon: float
    beta: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")

    @property
    def barrier(self) -> float:
        """Left end of the domain, -4 beta / (3 eps)."""
        return -4.0 * self.beta / (3.0 * self.epsilon)

    def _arg(self, t):
        scalar = isinstance(t, float)  # a float is checked by plain comparison, with no array made
        arg = 0.75 * self.epsilon * (t if scalar else np.asarray(t, dtype=float)) + self.beta
        if (arg <= 0) if scalar else np.any(arg <= 0):
            raise BarrierError(f"argument at or below the barrier t = {self.barrier}")
        return arg

    def __call__(self, t):
        out = self.epsilon * _coth(self._arg(t))
        return float(out) if isinstance(t, float) or np.ndim(t) == 0 else out

    def slope(self, t):
        """h'(t) = -(3 eps^2/4)(coth^2 - 1), from the chain rule."""
        c = _coth(self._arg(t))
        out = -0.75 * self.epsilon**2 * (c * c - 1.0)
        return float(out) if np.ndim(t) == 0 else out

    def ode_residual(self, t):
        """2h' + (3/2)h^2 - (3/2)eps^2, identically zero in exact arithmetic."""
        h = self.__call__(t)
        out = 2.0 * self.slope(t) + 1.5 * np.asarray(h) ** 2 - 1.5 * self.epsilon**2
        return float(out) if np.ndim(t) == 0 else out


def _volume_weight(r, w):
    """dV/dr = 4 pi u^6 r^2 at radius r, from the arc weight w = u(r)^2; n = 3."""
    return w * w * w * r * r * (4.0 * math.pi)  # one product chain: numpy reuses its temporaries


class _AnchorTable:
    """What a bubble problem needs of its profile and anchor alone.

    The panels are geomspace(floor, r0, 4097), the floor being the inner edge
    of a closed domain, else max(lo (1 + 1e-12), 1e-15 r0).  One evaluation
    of u at their 4096 x 8 Gauss nodes gives the arc length to the anchor at
    every edge (``arc``, the panel table behind rho) and at every node (the
    quadrature tail matrix inside the node's panel), and the volume weight
    4 pi u^6 r^2 at every node.  A schedule builds one table for all its
    steps, ``cut`` at the anchor of each step it re-anchors inside it.
    """

    def __init__(self, profile: RadialProfile, anchor_radius: float):
        dom = profile.domain
        floor = dom.lo if dom.lo_closed else max(dom.lo * (1 + 1e-12), 1e-15 * anchor_radius)
        self.edges = np.geomspace(floor, anchor_radius, _PANELS + 1)
        nodes, self.half = gauss_nodes(self.edges[:-1], self.edges[1:])
        arc_weight = profile.u(nodes) ** 2  # u^{2/(n-2)}, n = 3
        self.arc = PanelTable.from_nodes(_arc_weight(profile), self.edges, arc_weight, self.half)
        self.arc_nodes = node_suffix(arc_weight, self.half)
        self.volume_weight = _volume_weight(nodes, arc_weight)

    def cut(self, anchor: float) -> _AnchorTable:
        """The table of an anchor inside this one: the edges below it, one partial panel up to it.

        Only the partial panel evaluates u.  The edge arc lengths are re-summed
        from the per-panel ones, so ``arc`` at an edge returns its stored value
        bit for bit; the node arc lengths, which only weight the bulk, are shifted.
        """
        floor, top = self.edges[[0, -1]]
        if anchor == top:
            return self
        if not floor < anchor < top:
            raise OutOfCollectionError(f"anchor {anchor} lies outside the table's ({floor:.6g}, {top:.6g}]")
        m = int(np.searchsorted(self.edges, anchor)) - 1  # edges[m] < anchor <= edges[m + 1]
        cut = object.__new__(_AnchorTable)
        cut.edges = np.append(self.edges[: m + 1], anchor)
        nodes, half = gauss_nodes(cut.edges[m:-1], cut.edges[m + 1 :])
        weight = self.arc.f(nodes)
        cut.half = np.append(self.half[:m], half)
        cut.arc = PanelTable.from_nodes(self.arc.f, cut.edges, weight, half, head=self.arc.panels[:m])
        shift = self.arc.suffix[m] - cut.arc.panels[m]  # arc length from the anchor to the old top edge
        cut.arc_nodes = np.concatenate([self.arc_nodes[:m] - shift, node_suffix(weight, half)])
        cut.volume_weight = np.concatenate([self.volume_weight[:m], _volume_weight(nodes, weight)])
        return cut


def _shrunk(arc, lip):
    """rho = -lip * arc: the Lipschitz-shrunk signed arc length to the anchor (<= 0 inside)."""
    return lambda r: -lip * arc(r)


def _bulk_density(profile, h, dist):
    """The bulk weight h(rho) dV/dr as a function of r."""
    return lambda r: h(dist(r)) * _volume_weight(r, profile.u(r) ** 2)


def _first_variation(profile, h, dist):
    """g = H(S_rho) - h(rho(rho)); dA/drho = g area(S_rho) u(rho)^2."""
    return lambda rho: sphere_mean_curvature(profile, rho) - h(dist(rho))


class MuBubbleProblem:
    """Anchor sphere, prescribed curvature, and Lipschitz-shrunk distance, on an anchor table.

    Made in one step: the anchor is checked, then the barrier radius, g at
    the edges, ``dist``, ``first_variation`` and the bulk table are built on
    ``table``, or on a fresh :class:`_AnchorTable` when it is None.

    The barrier radius r_b is where rho reaches the barrier of h, backed off
    by 1e-6 in rho.  rho rises monotonically to 0 at the anchor, so when the
    table's floor edge already lies above the barrier there is none and
    everything starts at the floor.  Otherwise ``searchsorted`` on the edge
    values of rho finds its panel, and :func:`masses._root` runs inside it.

    ``g`` is H - h(rho) at ``edges``, the lowest radius and the anchor edges
    above it, from one vector call of H: rho at an anchor edge is its stored
    value, which ``dist`` returns there, so these brackets are the ones
    Brent's method sees.  The bulk table weights the anchor panels from the
    first edge at or above 1.02 r_b with the stored node data, evaluating no
    u.  Below it, where h blows up, fresh panels halve in width toward r_b.
    A query adds one 8-point panel of the weight up to the edge above it.

    ``dist``, ``first_variation`` and the bulk density are closures over the
    profile, h and the arc table, never bound methods, and none of them
    points back at the problem.  So a finished problem is freed by reference
    counting alone, even though ``brentq`` keeps each function it is given
    in a reference cycle of its own until the cyclic collector runs.
    """

    def __init__(
        self,
        profile: RadialProfile,
        anchor_radius: float,
        h: PrescribedMeanCurvature,
        lip_factor: float = LIP_FACTOR_DEFAULT,
        table: _AnchorTable | None = None,
    ):
        if profile.n != 3:
            raise UnsupportedDimensionError("bubble problems are defined only for n = 3")
        if not 0 < lip_factor < 1:
            raise ParameterError(f"lip_factor must lie in (0, 1), got {lip_factor}")
        profile.require_radius(anchor_radius)
        h0 = float(sphere_mean_curvature(profile, anchor_radius))
        if not h0 > h(0.0):
            raise BarrierError(
                f"anchor sphere is not a barrier: H(S_r) = {h0:.6g} <= h(0) = {h(0.0):.6g}"
                f" at the anchor r = {anchor_radius:.6g}"
            )
        self.profile = profile
        self.anchor_radius = float(anchor_radius)
        self.h = h
        self.lip_factor = lip = float(lip_factor)
        table = _AnchorTable(profile, self.anchor_radius) if table is None else table
        self.floor = table.edges[0]
        self.dist = dist = _shrunk(table.arc, lip)
        self.first_variation = _first_variation(profile, h, dist)

        edges = table.edges
        edge_rho = -lip * table.arc.suffix  # rho at each edge, exactly as dist returns it
        self.barrier_radius = r_b = None
        k = j = 0  # first anchor edge above the barrier radius; first anchor edge of the bulk table
        if edge_rho[0] <= h.barrier:
            target = h.barrier * (1.0 - 1e-6)  # back off in rho, not in r
            k = int(np.searchsorted(edge_rho, target, side="right"))
            r_b = self.barrier_radius = _root(lambda r: dist(r) - target, edges[k - 1], edges[k])
            j = min(int(np.searchsorted(edges, _GRADED_FROM * r_b)), len(edges) - 1)
        self.edges, rho = edges[k:], edge_rho[k:]

        bulk_edges = edges[j:]
        half = table.half[j:]
        weight = h(-lip * table.arc_nodes[j:]) * table.volume_weight[j:]
        if r_b is not None:
            self.edges = np.concatenate([[r_b], self.edges])
            rho = np.concatenate([[dist(r_b)], rho])
            graded = r_b + (edges[j] - r_b) * 0.5 ** np.arange(_HALVINGS, 0, -1)
            fresh = np.concatenate([[r_b], graded, edges[j : j + 1]])
            nodes, fresh_half = gauss_nodes(fresh[:-1], fresh[1:])
            fresh_weight = profile.u(nodes) ** 2
            fresh_rho = -lip * (node_suffix(fresh_weight, fresh_half) + table.arc.suffix[j])
            bulk_edges = np.concatenate([fresh[:-1], bulk_edges])
            half = np.concatenate([fresh_half, half])
            weight = np.concatenate([h(fresh_rho) * _volume_weight(nodes, fresh_weight), weight])
        self.g = sphere_mean_curvature(profile, self.edges) - h(rho)
        self.bulk = PanelTable(_bulk_density(profile, h, dist), bulk_edges, edge_suffix(weight, half))

    def functional(self, rho):
        return np.asarray(sphere_area(self.profile, rho)) + self.bulk(rho)


def dist_to_anchor(problem: MuBubbleProblem, r: float) -> float:
    """Signed, Lipschitz-shrunk arc length from S_r to the anchor sphere.

    Negative inside the anchor, zero at it, positive outside; the shrink
    factor keeps the Lipschitz constant strictly below one.  Radii below the
    anchor table's floor raise :class:`OutOfCollectionError`.
    """
    profile = problem.profile
    profile.require_radius(r)
    r0 = problem.anchor_radius
    if r >= r0:
        return problem.lip_factor * geodesic_distance(profile, r0, r)
    if r < problem.floor:
        raise OutOfCollectionError(f"r = {r} lies below the anchor table's floor {problem.floor:.6g}")
    return float(problem.dist(r))


def functional_eval(problem: MuBubbleProblem, rho: float) -> float:
    """Area of S_rho plus the prescribed-curvature bulk term out to the anchor.

    Radii outside [table floor, r0] raise :class:`OutOfCollectionError`;
    radii below the barrier radius raise :class:`BarrierError`.
    """
    problem.profile.require_radius(rho)
    if not problem.floor <= rho <= problem.anchor_radius:
        raise OutOfCollectionError(
            f"rho = {rho} lies outside [{problem.floor:.6g}, r0 = {problem.anchor_radius}]"
        )
    if rho < problem.bulk.edges[0]:
        raise BarrierError(f"rho = {rho} lies below the barrier radius {problem.bulk.edges[0]:.6g}")
    return float(problem.functional(rho))


@dataclass(frozen=True)
class MuBubbleSolution:
    rho_star: float
    area: float
    functional_value: float
    mean_curvature: float
    el_residual: float
    second_order_ok: bool
    problem: MuBubbleProblem = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "rho_star": self.rho_star,
            "area": self.area,
            "functional_value": self.functional_value,
            "mean_curvature": self.mean_curvature,
            "el_residual": self.el_residual,
            "second_order_ok": self.second_order_ok,
        }


def minimize(problem: MuBubbleProblem) -> MuBubbleSolution:
    """Minimizer of the bubble functional from the first-variation identity.

    Every interior minimizer is a - to + sign change of g = H - h o rho.
    Each one between consecutive ``edges`` is refined by Brent's
    method; the functional is evaluated once, as a vector over the roots, the
    anchor and the lowest edge, and the root with the lowest value is kept.
    Its bracket signs are the second-order certificate.

    Raises :class:`DegenerateMinimizerError` when g has no such sign change,
    when the best root is not below the anchor value (beta too small), or,
    with no barrier radius, not below the value at the floor (no interior
    bubble).
    """
    x, g = problem.edges, problem.g
    brackets = np.nonzero((g[:-1] < 0) & (g[1:] >= 0))[0]
    if not len(brackets):
        raise DegenerateMinimizerError("H - h(rho) never changes sign from - to +; no interior bubble")
    roots = [_root(problem.first_variation, x[i], x[i + 1]) for i in brackets]
    values = problem.functional(np.array([*roots, problem.anchor_radius, x[0]]))
    best = int(np.argmin(values[:-2]))
    rho, fval = roots[best], float(values[best])
    if not fval < values[-2]:
        raise DegenerateMinimizerError("functional minimized at the anchor sphere; beta too small")
    if problem.barrier_radius is None and not fval < values[-1]:
        raise DegenerateMinimizerError("functional minimized at the inner edge; no interior bubble")

    profile = problem.profile
    mean_curv = float(sphere_mean_curvature(profile, rho))
    return MuBubbleSolution(
        rho_star=rho,
        area=float(sphere_area(profile, rho)),
        functional_value=fval,
        mean_curvature=mean_curv,
        el_residual=abs(mean_curv - problem.h(problem.dist(rho))),
        second_order_ok=bool(g[brackets[best]] < 0 < g[brackets[best] + 1]),
        problem=problem,
    )


def choose_beta(profile: RadialProfile, anchor_radius: float, epsilon: float) -> float:
    """Twice the smallest beta with h(0) = eps coth(beta) <= 0.9 H(S_{r0}), in closed form.

    The 0.9 margin makes the effective requirement epsilon < 0.9 H(S_{r0});
    larger epsilon raises :class:`EpsilonTooLargeError`, and so does a
    nonpositive one.
    """
    if not epsilon > 0:
        raise EpsilonTooLargeError(f"epsilon = {epsilon} must be positive")
    h0 = float(sphere_mean_curvature(profile, anchor_radius))
    at = f"at the anchor r = {anchor_radius:.6g}"
    if not epsilon < h0:
        raise EpsilonTooLargeError(f"epsilon = {epsilon} >= H(S_r) = {h0:.6g} {at}")
    target = _BETA_MARGIN * h0 / epsilon  # need coth(beta) <= target
    if target <= 1.0:
        raise EpsilonTooLargeError(
            f"epsilon = {epsilon} leaves no margin below 0.9 H(S_r) = {_BETA_MARGIN * h0:.6g} {at}"
        )
    return 2.0 * _arccoth(target)


def select_beta(
    profile: RadialProfile,
    anchor_radius: float,
    epsilon: float,
    area_infimum: float | None = None,
) -> float:
    """Beta large enough for both the anchor barrier and curvature control.

    On top of :func:`choose_beta`, floors beta at

        arccoth(1.8) + (3/4) area(S_{r0}) / A_inf + pi,

    so that h stays below 1.8 eps wherever the minimizer can sit: its depth
    in the shrunk arc-length coordinate is at most area(S_{r0})/(eps A_inf)
    plus the diameter bound 4 pi/(3 eps), and three-quarters of eps times
    that total is epsilon-independent.  Skipped when the area infimum
    vanishes (nothing pins the bubble then).
    """
    base = choose_beta(profile, anchor_radius, epsilon)
    if area_infimum is None:
        area_infimum = area_infimum_radial(profile).value
    if area_infimum <= 1e-12:
        return base
    a0 = float(sphere_area(profile, anchor_radius))
    depth = _arccoth(_DEPTH_COTH) + 0.75 * a0 / area_infimum + math.pi
    return max(base, depth)


def build_problem(
    profile: RadialProfile,
    anchor_radius: float,
    epsilon: float,
    beta: float | None = None,
    area_infimum: float | None = None,
    lip_factor: float = LIP_FACTOR_DEFAULT,
    table: _AnchorTable | None = None,
) -> MuBubbleProblem:
    """Assemble a bubble problem on ``table`` (fresh when None), selecting beta when not supplied."""
    if beta is None:
        beta = select_beta(profile, anchor_radius, epsilon, area_infimum)
    return MuBubbleProblem(
        profile, anchor_radius, PrescribedMeanCurvature(epsilon, beta), lip_factor, table
    )


@dataclass(frozen=True)
class DiameterReport:
    intrinsic_diameter: float
    bound: float
    within_bound: bool


def diameter_report(solution: MuBubbleSolution) -> DiameterReport:
    """Intrinsic diameter of the bubble sphere against the 4 pi/(3 eps) bound, eps the bubble's own.

    Report only: the bound presumes a spectral condition that is not
    re-verified here, so exceeding it is recorded, never fatal.
    """
    diam = float(intrinsic_diameter(solution.problem.profile, solution.rho_star))
    bound = 4.0 * math.pi / (3.0 * solution.problem.h.epsilon)
    return DiameterReport(intrinsic_diameter=diam, bound=bound, within_bound=diam <= bound)


def halving_schedule() -> list[float]:
    """The default curvature schedule: 0.2 halved seven times, to 1.5625e-3, then the floor 1e-3."""
    return [0.2 * 0.5**k for k in range(8)] + [1e-3]


@dataclass(frozen=True)
class HorizonStep:
    epsilon: float
    beta: float | None
    solution: MuBubbleSolution | None
    error: str | None
    mass_lower_bound: float | None

    def to_dict(self) -> dict:
        row = {
            "epsilon": self.epsilon,
            "beta": self.beta,
            "error": self.error,
            "mass_lower_bound": self.mass_lower_bound,
        }
        if self.solution is not None:
            row.update(self.solution.to_dict())
        return row


@dataclass(frozen=True)
class HorizonSequenceResult:
    anchor_radius: float
    area_infimum: float
    steps: list[HorizonStep]

    @property
    def mass_lower_bounds(self) -> list[float]:
        return [s.mass_lower_bound for s in self.steps if s.mass_lower_bound is not None]

    def to_dict(self) -> dict:
        return {
            "anchor_radius": self.anchor_radius,
            "area_infimum": self.area_infimum,
            "steps": [s.to_dict() for s in self.steps],
        }


def horizon_sequence(
    profile: RadialProfile,
    anchor_radius: float,
    epsilons: list[float] | None = None,
) -> HorizonSequenceResult:
    """Solve the bubble problem along a decreasing curvature schedule.

    Each step emits the mass lower bound sqrt(A/16pi)(1 - A H^2/16pi) of its
    bubble sphere.  A step that raises :class:`PenroseLabError` is recorded
    on the step and the schedule continues; any other exception propagates.
    """
    if epsilons is None:
        epsilons = halving_schedule()
    a_inf = area_infimum_radial(profile).value
    steps: list[HorizonStep] = []
    table = None  # the anchor's table, built once select_beta has accepted the anchor, then shared
    for eps in epsilons:
        beta = None
        try:
            beta = select_beta(profile, anchor_radius, eps, area_infimum=a_inf)
            if table is None:
                table = _AnchorTable(profile, anchor_radius)
            sol = minimize(build_problem(profile, anchor_radius, eps, beta=beta, table=table))
            bound = _hawking_value(sol.area, sol.mean_curvature)
            steps.append(HorizonStep(eps, beta, sol, None, float(bound)))
        except PenroseLabError as exc:
            steps.append(HorizonStep(eps, beta, None, f"{type(exc).__name__}: {exc}", None))
    return HorizonSequenceResult(anchor_radius=float(anchor_radius), area_infimum=float(a_inf), steps=steps)


@dataclass(frozen=True)
class RigidityStep:
    k: int
    epsilon: float
    beta: float
    solution: MuBubbleSolution
    area_bound: float | None
    area_bound_ok: bool | None
    annulus_volume: float | None
    annulus_bound: float | None
    annulus_bound_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "beta": self.beta,
            **self.solution.to_dict(),
            "area_bound": self.area_bound,
            "area_bound_ok": self.area_bound_ok,
            "annulus_volume": self.annulus_volume,
            "annulus_bound": self.annulus_bound,
            "annulus_bound_ok": self.annulus_bound_ok,
        }


@dataclass(frozen=True)
class RigidityTrace:
    gamma: float
    epsilon0: float
    lambda0: float
    area_infimum: float
    equality_case: bool
    steps: list[RigidityStep]
    cumulative_volume: float
    cumulative_bound: float
    cumulative_bound_ok: bool

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "epsilon0": self.epsilon0,
            "lambda0": self.lambda0,
            "area_infimum": self.area_infimum,
            "equality_case": self.equality_case,
            "cumulative_volume": self.cumulative_volume,
            "cumulative_bound": self.cumulative_bound,
            "cumulative_bound_ok": self.cumulative_bound_ok,
            "steps": [s.to_dict() for s in self.steps],
        }


def rigidity_iteration(
    profile: RadialProfile,
    anchor_radius: float,
    epsilon: float,
    gamma: float,
    max_steps: int = 20,
    epsilon_floor: float = 1e-6,
) -> RigidityTrace:
    """Shrinking-curvature schedule eps^(gamma^k) with nested re-anchoring.

    Step k+1 anchors at step k's minimizing sphere, which enforces nesting by
    construction; its anchor table is the one built at r0, cut at its anchor
    (:meth:`_AnchorTable.cut`).  Recorded bounds:

    - area_k <= A_inf + Lambda_0 eps_k^2, asserted only when the mass bound
      is saturated (equality-case profiles);
    - annulus volume between consecutive spheres <= Lambda_0 eps_k^(2-gamma);
    - cumulative volume <= Lambda_0 eps^(gamma(2-gamma))
      (1 - eps^((gamma-1)(2-gamma)))^(-1),

    with eps_0 = sqrt(8 pi / area(S_{r0})) the admissible-curvature threshold
    and Lambda_0 = A_inf area(S_{r0}) / (2 pi).  The schedule stops before
    the first eps_k below ``epsilon_floor``; an epsilon below it, which would
    leave no step, raises :class:`ParameterError`.
    """
    if profile.n != 3:
        raise UnsupportedDimensionError("rigidity_iteration is defined only for n = 3")
    if not 1.0 < gamma < 2.0:
        raise ParameterError(f"gamma must lie in (1, 2), got {gamma}")
    a0 = float(sphere_area(profile, anchor_radius))
    eps0 = math.sqrt(8.0 * math.pi / a0)
    if not 0 < epsilon < eps0:
        raise EpsilonTooLargeError(f"need 0 < epsilon < {eps0:.6g}, got {epsilon}")
    if epsilon < epsilon_floor:
        raise ParameterError(f"epsilon = {epsilon} lies below epsilon_floor = {epsilon_floor:g}")
    report = penrose_check(profile)
    a_inf = report.area_infimum
    lambda0 = a_inf * a0 / (2.0 * math.pi)
    equality = abs(report.ratio - 1.0) <= EQUALITY_TOL

    solutions: list[MuBubbleSolution] = []
    anchor = float(anchor_radius)
    table = _AnchorTable(profile, anchor)
    for k in range(max_steps + 1):
        eps_k = epsilon ** (gamma**k)
        if eps_k < epsilon_floor:
            break
        problem = build_problem(profile, anchor, eps_k, area_infimum=a_inf, table=table.cut(anchor))
        solutions.append(minimize(problem))
        anchor = solutions[-1].rho_star

    # the annulus of step k lies between its sphere and the next step's, inside it
    steps: list[RigidityStep] = []
    cumulative = 0.0
    for k, (sol, inner) in enumerate(zip(solutions, [*solutions[1:], None])):
        h = sol.problem.h
        area_bound = a_inf + lambda0 * h.epsilon**2
        vol = bound = None
        if inner is not None:
            vol = volume_between(profile, inner.rho_star, sol.rho_star)
            cumulative += vol
            bound = lambda0 * h.epsilon ** (2.0 - gamma)
        steps.append(
            RigidityStep(
                k=k,
                epsilon=h.epsilon,
                beta=h.beta,
                solution=sol,
                area_bound=area_bound,
                area_bound_ok=(sol.area <= area_bound) if equality else None,
                annulus_volume=vol,
                annulus_bound=bound,
                annulus_bound_ok=None if vol is None else vol <= bound,
            )
        )
    cum_bound = (
        lambda0
        * epsilon ** (gamma * (2.0 - gamma))
        / (1.0 - epsilon ** ((gamma - 1.0) * (2.0 - gamma)))
    )
    return RigidityTrace(
        gamma=float(gamma),
        epsilon0=eps0,
        lambda0=lambda0,
        area_infimum=a_inf,
        equality_case=equality,
        steps=steps,
        cumulative_volume=cumulative,
        cumulative_bound=cum_bound,
        cumulative_bound_ok=cumulative <= cum_bound,
    )
