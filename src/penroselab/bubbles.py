"""Prescribed-mean-curvature bubbles in the rotationally symmetric reduction.

The prescribed family is

    h_{eps,beta}(t) = eps coth(3 eps t / 4 + beta),   t > -4 beta / (3 eps),

strictly decreasing, blowing up at the left end of its domain, tending to eps
as beta grows, and satisfying 2h' + (3/2) h^2 = (3/2) eps^2 identically.

A bubble problem fixes an anchor sphere S_{r0}, a Lipschitz-shrunk signed
arc-length coordinate rho(r) <= 0 inside the anchor (the arc length times
``LIP_FACTOR`` = 1 - 1e-6: the proof needs only a Lipschitz constant below
one, so one factor serves every problem), and the weighted
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
evaluation of u at 1024 x 8 Gauss nodes between the floor and r0 (up to
4096 x 8 for a profile too steep for 1024 panels), the arc length to the
anchor at every node and every panel edge, and the volume weight
4 pi u^6 r^2 at every node.  ``horizon_sequence`` reuses it for every
curvature; ``rigidity_iteration`` cuts it at each re-anchored step's anchor,
evaluating u on one partial panel and sharing the rest.  Between the edges,
rho comes from the same node values (a :class:`~penroselab.quadrature.NodeTable`:
the edge value plus the exact integral of the interpolant of u^2 on the
panel's 8 nodes), so no query of rho evaluates u.  One object per
curvature: a ``MuBubbleProblem`` inverts the table for its barrier radius:
``searchsorted`` on the edge values of rho finds its panel, and Brent's
method finds it inside that panel, where rho at the edges is the stored
edge value bit for bit.  The bulk term is weighted at the same nodes, on a
table each read of the functional builds from its lowest radius up to r0;
in the three panels above the barrier radius's own, where h blows up, such
a read integrates on fresh panels halving toward it instead.  A problem
keeps no state.

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
)
from .geometry import _at, _Sphere, intrinsic_diameter, sphere_area, sphere_mean_curvature, volume_between
from .masses import VERDICT_EQUALITY, GridScan, _root, hawking_mass
from .profiles import RadialProfile
from .quadrature import NodeTable, PanelAntiderivative, gauss_nodes, node_tails

LIP_FACTOR = 1.0 - 1e-6  # the smoothed distance's Lipschitz constant, below one
EL_RESIDUAL_TOL = 1e-6  # a bubble whose |H - h(rho)| is at most this satisfies its first variation
_PANELS = (1024, 4096)  # a full anchor table's panel count, and the count for a profile too steep for it
_STEEP = 1.5  # too steep: some panel's volume weight at its two end nodes differs by more than this factor
_BAND_PANELS = 3  # the graded band ends this many panels above the barrier radius's panel
_HALVINGS = 30  # the graded panels halve in width this many times toward the barrier radius
_BETA_MARGIN = 0.9
_DEPTH_COTH = 1.8  # h is kept below this multiple of eps on the reachable region
MAX_STEPS = 20  # rigidity_iteration's last step k
EPSILON_FLOOR = 1e-6  # rigidity_iteration stops before any eps_k below this


def _require_epsilon(epsilon: float) -> None:
    """The one refusal of a curvature epsilon outside (0, inf), NaN included, by every bubble entry point."""
    if not 0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")


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
        _require_epsilon(self.epsilon)
        if not 0 < self.beta < math.inf:  # beta = inf makes h = eps, with no barrier
            raise ParameterError(f"beta must be positive and finite, got {self.beta}")

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
        out = self.epsilon * (1.0 / np.tanh(self._arg(t)))  # eps coth; eps / tanh rounds apart
        return float(out) if isinstance(t, float) or np.ndim(t) == 0 else out


def _evaluate(profile, edges):
    """Half-widths, and u's sphere quantities at the Gauss nodes, of the panels between ``edges``."""
    nodes, half = gauss_nodes(edges[:-1], edges[1:])
    return half, _Sphere(profile.n, nodes, profile.u(nodes))


class _AnchorTable:
    """What a bubble problem needs of its profile and anchor alone.

    A full table's panels are geomspace(floor, r0, P + 1), the floor being
    the inner edge of a closed domain, else 1e-15 r0 (an open end is at r = 0).
    P is 1024, or 4096 when the volume weight at some panel's two end nodes
    differs by more than a factor of 1.5 on 1024 panels: a steep profile such
    as u = r^30 pays a second u call, which replaces the first.
    One evaluation of u at the P x 8 Gauss nodes gives the arc length to the
    anchor at every edge and anywhere between (``arc``, the node table behind
    rho), and ``rows`` per node: the half-width, the tail (the arc length to
    the panel's right edge, by the quadrature tail matrix) and the volume
    weight 4 pi u^6 r^2.  ``nodes`` adds to each tail ``arc`` at that edge,
    so nodes and edges take their arc lengths from the same sums.  Tails are
    stored, not derived per read: a one-row matmul rounds differently from
    the same row in a larger one, and ``nodes(p)`` is ``nodes(0)[p:]``.

    Given ``full``, the table is full's cut at the anchor: full's edges below
    the anchor's panel m and one partial panel up to the anchor, the only one
    where u is evaluated.  Tails do not depend on the anchor, so the cut
    shares full's rows below m, and ``arc`` shares its interpolant rows.
    """

    def __init__(self, profile: RadialProfile, anchor_radius: float, full: _AnchorTable | None = None):
        if full is None:
            floor = profile.domain.lo or 1e-15 * anchor_radius
            coarse, fine = _PANELS
            m, edges = 0, np.geomspace(floor, anchor_radius, coarse + 1)
            half, sphere = _evaluate(profile, edges)
            ends = sphere.dvol[:, [0, -1]]
            if np.any(ends.max(axis=1) > _STEEP * ends.min(axis=1)):
                edges = np.geomspace(floor, anchor_radius, fine + 1)
                half, sphere = _evaluate(profile, edges)
        else:
            m = int(np.searchsorted(full.edges, anchor_radius)) - 1  # edges[m] < anchor <= edges[m + 1]
            edges = np.append(full.edges[: m + 1], anchor_radius)
            half, sphere = _evaluate(profile, edges[m:])
        self.profile, self.full, self.m, self.edges = profile, full, m, edges  # m: the first panel evaluated here
        self.arc = NodeTable(edges, sphere.ds, half, None if full is None else full.arc)
        self.rows = (half, node_tails(sphere.ds, half), sphere.dvol)

    def nodes(self, p: int):
        """Half-widths, node arc lengths to the anchor and node volume weights of panels p and up."""
        m, head = self.m, (self.full or self).rows
        half, tail, vol = (np.concatenate([x[p:m], y[max(p - m, 0) :]]) for x, y in zip(head, self.rows))
        return half, tail + self.arc.suffix[p + 1 :, None], vol

    def cut(self, anchor: float) -> _AnchorTable:
        """The table of an anchor inside this one: the constructor given the full table.

        A cut of a cut is the full table's cut; a cut at the top edge is this table.
        """
        floor, top = self.edges[[0, -1]]
        if anchor == top:
            return self
        if not floor < anchor < top:
            raise OutOfCollectionError(f"anchor {anchor} lies outside the table's ({floor:.6g}, {top:.6g}]")
        return _AnchorTable(self.profile, anchor, self.full or self)


class MuBubbleProblem:
    """Anchor sphere, prescribed curvature, and Lipschitz-shrunk distance, on an anchor table.

    Made in one step: the anchor is checked, then the barrier radius, g at
    the edges, ``dist`` and ``first_variation`` are built on ``table``, or
    on a fresh :class:`_AnchorTable` when it is None.

    The barrier radius r_b is where rho reaches the barrier of h, backed off
    by 1e-6 in rho.  rho rises monotonically to 0 at the anchor, so when the
    table's floor edge already lies above the barrier there is none and
    everything starts at the floor.  Otherwise ``searchsorted`` on the edge
    values of rho finds its panel, and :func:`masses._root` runs inside it.
    ``dist`` answers from the table's node weights and evaluates no u, and
    returns the stored edge values at the panel's ends.

    ``g`` is H - h(rho) at ``edges``, the lowest radius and the anchor edges
    above it, from one vector call of H.  ``minimize`` hands Brent's method
    these values at the ends of each bracket, which saves it two evaluations:
    a scalar H at an edge is the vector one bit for bit (n = 3).  Each read of ``functional`` builds its bulk tables
    (``_bulk_tables``): a :class:`~penroselab.quadrature.NodeTable` of
    h(rho) dV/dr at the table's nodes, from the panel of the lowest radius
    read (never below the band's top edge) up to r0.  Its sums accumulate
    from r0 down, so a table from a lower panel gives the same values.  The
    band spans r_b's panel and the three above it, where h blows up faster
    than a node interpolant follows; a graded band integrates the weight on
    fresh panels halving toward r_b up to its top edge, and a query there
    adds the bulk table at that edge, or nothing when the band reaches r0;
    its sums and queries take rho from ``dist``.

    ``dist``, ``first_variation`` and the bulk density are closures over the
    profile, h and the arc table, never bound methods, and none of them
    points back at the problem.  So a finished problem is freed by reference
    counting alone.
    """

    def __init__(
        self,
        profile: RadialProfile,
        anchor_radius: float,
        h: PrescribedMeanCurvature,
        table: _AnchorTable | None = None,
    ):
        profile.require_three("MuBubbleProblem")
        h0 = float(sphere_mean_curvature(profile, anchor_radius))
        if not h0 > h(0.0):
            raise BarrierError(
                f"anchor sphere is not a barrier: H(S_r) = {h0:.6g} <= h(0) = {h(0.0):.6g}"
                f" at the anchor r = {anchor_radius:.6g}"
            )
        self.profile = profile
        self.anchor_radius = float(anchor_radius)
        self.h = h
        table = _AnchorTable(profile, self.anchor_radius) if table is None else table
        self.floor = table.edges[0]
        arc = table.arc
        self.dist = dist = lambda r: -LIP_FACTOR * arc(r)  # rho: the shrunk signed arc length, <= 0 inside
        self.first_variation = lambda r: sphere_mean_curvature(profile, r) - h(dist(r))  # g; dA/dr = g area u^2

        edges = table.edges
        edge_rho = -LIP_FACTOR * table.arc.suffix  # rho at each edge, exactly as dist returns it
        self.barrier_radius = r_b = None
        k = j = 0  # first anchor edge above the barrier radius; the graded band's top edge
        if edge_rho[0] <= h.barrier:
            target = h.barrier * (1.0 - 1e-6)  # back off in rho, not in r
            k = int(np.searchsorted(edge_rho, target, side="right"))
            r_b = self.barrier_radius = _root(lambda r: dist(r) - target, edges[k - 1], edges[k])
            j = min(k + _BAND_PANELS, len(edges) - 1)
        self.edges, rho = edges[k:], edge_rho[k:]
        if r_b is not None:
            self.edges = np.concatenate([[r_b], self.edges])
            rho = np.concatenate([[dist(r_b)], rho])
        self.g = sphere_mean_curvature(profile, self.edges) - h(rho)
        self._table, self._graded_from = table, j

    def functional(self, rho: float) -> float:
        """A(rho) = area(S_rho) + integral_rho^{r0} h(rho) dV.

        Radii outside [table floor, r0] raise :class:`OutOfCollectionError`;
        radii below the barrier radius raise :class:`BarrierError`.
        """
        self.profile.require_radius(rho)
        if not self.floor <= rho <= self.anchor_radius:
            raise OutOfCollectionError(f"rho = {rho} lies outside [{self.floor:.6g}, r0 = {self.anchor_radius}]")
        if rho < self.edges[0]:
            raise BarrierError(f"rho = {rho} lies below the barrier radius {self.edges[0]:.6g}")
        bulk, graded = self._bulk_tables(rho)
        term = 0.0 if graded is None else float(graded(rho))
        if bulk is not None:
            term += bulk(rho if graded is None else graded.edges[-1])
        return float(sphere_area(self.profile, rho)) + term

    def _bulk_tables(self, lo: float):
        """(bulk, graded): the bulk table from the panel of ``lo`` up to r0; the band below it, else None.

        ``bulk`` is None when the band reaches r0, as the bulk term is 0 there.
        """
        edges, j, h = self._table.edges, self._graded_from, self.h
        bulk = None
        if j < len(edges) - 1:
            p = min(max(int(edges.searchsorted(lo, side="right")) - 1, j), len(edges) - 2)  # lowest panel read
            half, arc, vol = self._table.nodes(p)
            bulk = NodeTable(edges[p:], h(-LIP_FACTOR * arc) * vol, half)
        if lo >= edges[j]:
            return bulk, None
        r_b, top = self.barrier_radius, float(edges[j])  # fresh panels halving in width toward r_b
        fresh = np.concatenate([[r_b], r_b + (top - r_b) * 0.5 ** np.arange(_HALVINGS, 0, -1), [top]])
        profile, dist = self.profile, self.dist
        density = lambda r: h(dist(r)) * _Sphere(profile.n, r, profile.u(r)).dvol  # h(rho) dV/dr
        return bulk, PanelAntiderivative(density, fresh)


@dataclass(frozen=True)
class MuBubbleSolution:
    rho_star: float
    area: float
    functional_value: float
    mean_curvature: float
    el_residual: float
    second_order_ok: bool
    problem: MuBubbleProblem = field(repr=False, compare=False)


def minimize(problem: MuBubbleProblem) -> MuBubbleSolution:
    """Minimizer of the bubble functional from the first-variation identity.

    Every interior minimizer is a - to + sign change of g = H - h o rho.
    Each one between consecutive ``edges`` is refined by Brent's method,
    which starts from the problem's g at the two edges instead of
    re-evaluating them.  The functional is read at each root and, only when
    there is no barrier radius, at the floor.  At the anchor it is the
    anchor sphere's area, as its bulk integral is empty.  The root with the
    lowest value is kept; its bracket signs are the second-order certificate.

    Raises :class:`DegenerateMinimizerError` when g has no such sign change,
    when the best root is not below the anchor value (beta too small), or,
    with no barrier radius, not below the value at the floor (no interior
    bubble).
    """
    profile, x, g = problem.profile, problem.edges, problem.g
    brackets = np.nonzero((g[:-1] < 0) & (g[1:] >= 0))[0]
    if not len(brackets):
        raise DegenerateMinimizerError("H - h(rho) never changes sign from - to +; no interior bubble")
    roots = [_root(problem.first_variation, x[i], x[i + 1], g[i], g[i + 1]) for i in brackets]
    values = [problem.functional(r) for r in roots]
    best = int(np.argmin(values))
    rho, fval = roots[best], values[best]
    if not fval < sphere_area(profile, problem.anchor_radius):
        raise DegenerateMinimizerError("functional minimized at the anchor sphere; beta too small")
    if problem.barrier_radius is None and not fval < problem.functional(x[0]):
        raise DegenerateMinimizerError("functional minimized at the inner edge; no interior bubble")

    sphere = _at(profile, rho, du=True)
    mean_curv = float(sphere.mean_curvature)
    return MuBubbleSolution(
        rho_star=rho,
        area=float(sphere.area),
        functional_value=fval,
        mean_curvature=mean_curv,
        el_residual=abs(mean_curv - problem.h(problem.dist(rho))),
        second_order_ok=bool(g[brackets[best]] < 0 < g[brackets[best] + 1]),
        problem=problem,
    )


def choose_beta(profile: RadialProfile, anchor_radius: float, epsilon: float) -> float:
    """Twice the smallest beta with h(0) = eps coth(beta) <= 0.9 H(S_{r0}), in closed form.

    The 0.9 margin makes the effective requirement epsilon < 0.9 H(S_{r0});
    larger epsilon raises :class:`EpsilonTooLargeError`.
    """
    _require_epsilon(epsilon)
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
        area_infimum = GridScan(profile).area_infimum.value
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
    table: _AnchorTable | None = None,
) -> MuBubbleProblem:
    """Assemble a bubble problem on ``table`` (fresh when None), selecting beta when not supplied."""
    if beta is None:
        beta = select_beta(profile, anchor_radius, epsilon, area_infimum)
    return MuBubbleProblem(profile, anchor_radius, PrescribedMeanCurvature(epsilon, beta), table)


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
    # the class behind ``error``, for callers that branch on it; repr=False keeps it out of reports
    error_type: type[PenroseLabError] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class HorizonSequenceResult:
    anchor_radius: float
    area_infimum: float
    steps: list[HorizonStep]

    @property
    def mass_lower_bounds(self) -> list[float]:
        return [s.mass_lower_bound for s in self.steps if s.mass_lower_bound is not None]


def horizon_sequence(
    profile: RadialProfile,
    anchor_radius: float,
    epsilons: list[float] | None = None,
) -> HorizonSequenceResult:
    """Solve the bubble problem along a decreasing curvature schedule.

    Each step emits the mass lower bound sqrt(A/16pi)(1 - A H^2/16pi) of its
    bubble sphere, the Hawking mass -r^2 u'(u + w) at r = rho*.  A step that
    raises :class:`PenroseLabError` is recorded on the step and the schedule
    continues; any other exception propagates.
    A dimension other than three raises :class:`UnsupportedDimensionError`,
    an anchor outside the profile's domain :class:`DomainError`, and an
    epsilon outside (0, inf) :class:`ParameterError`, all before any step.
    """
    profile.require_three("horizon_sequence")
    if epsilons is None:
        epsilons = halving_schedule()
    profile.require_radius(anchor_radius)
    for eps in epsilons:
        _require_epsilon(eps)
    a_inf = GridScan(profile).area_infimum.value
    steps: list[HorizonStep] = []
    table = None  # the anchor's table, built once select_beta has accepted the anchor, then shared
    for eps in epsilons:
        beta = None
        try:
            beta = select_beta(profile, anchor_radius, eps, area_infimum=a_inf)
            if table is None:
                table = _AnchorTable(profile, anchor_radius)
            sol = minimize(build_problem(profile, anchor_radius, eps, beta=beta, table=table))
            steps.append(HorizonStep(eps, beta, sol, None, hawking_mass(profile, sol.rho_star)))
        except PenroseLabError as exc:
            steps.append(HorizonStep(eps, beta, None, f"{type(exc).__name__}: {exc}", None, type(exc)))
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
    error: str | None = None  # the refusal that stopped the schedule


def rigidity_iteration(profile: RadialProfile, anchor_radius: float, epsilon: float, gamma: float) -> RigidityTrace:
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
    and Lambda_0 = A_inf area(S_{r0}) / (2 pi).  The schedule stops after
    step ``MAX_STEPS`` = 20, or before the first eps_k below ``EPSILON_FLOOR``
    = 1e-6; an epsilon below the floor, which would leave no step, raises
    :class:`ParameterError`, as does one outside (0, inf).  A step refused
    as too large for its anchor (:class:`EpsilonTooLargeError`) ends the
    schedule and is recorded as ``error``; the bounds cover the steps before it.
    """
    profile.require_three("rigidity_iteration")
    if not 1.0 < gamma < 2.0:
        raise ParameterError(f"gamma must lie in (1, 2), got {gamma}")
    _require_epsilon(epsilon)
    a0 = float(sphere_area(profile, anchor_radius))
    eps0 = math.sqrt(8.0 * math.pi / a0)
    if not epsilon < eps0:
        raise EpsilonTooLargeError(f"need 0 < epsilon < {eps0:.6g}, got {epsilon}")
    if epsilon < EPSILON_FLOOR:
        raise ParameterError(f"epsilon = {epsilon} lies below epsilon_floor = {EPSILON_FLOOR:g}")
    report = GridScan(profile).penrose()
    a_inf = report.area_infimum
    lambda0 = a_inf * a0 / (2.0 * math.pi)
    equality = report.verdict == VERDICT_EQUALITY

    solutions: list[MuBubbleSolution] = []
    anchor = float(anchor_radius)
    table = _AnchorTable(profile, anchor)
    refusal = None
    for k in range(MAX_STEPS + 1):
        eps_k = epsilon ** (gamma**k)
        if eps_k < EPSILON_FLOOR:
            break
        try:
            problem = build_problem(profile, anchor, eps_k, area_infimum=a_inf, table=table.cut(anchor))
        except EpsilonTooLargeError as exc:
            refusal = f"{type(exc).__name__}: {exc}"
            break
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
        error=refusal,
    )
