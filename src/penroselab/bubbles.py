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
minimization brackets each such change on a 512-point logarithmic scan of
g, refines it with Brent's method to a few ulps in r, and keeps the root
with the lowest functional value.  The scan is global because g can change
sign several times near the barrier.

Beta selection has two layers.  ``choose_beta`` enforces only the anchor
barrier h(0) <= 0.9 H(S_{r0}) (bisection, then doubled).  ``select_beta``
additionally floors beta with the depth bound

    arccoth(1.8) + (3/4) area(S_{r0}) / A_inf + pi,

which keeps h below 1.8 eps throughout the region a minimizer can occupy
(arc-length depth at most area(S_{r0})/(eps A_inf) plus the diameter bound
4 pi/(3 eps)); that is what drives the bubble's mean curvature below 2 eps
and makes the horizon-approaching and shrinking-curvature schedules work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

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
from .masses import _hawking_value, area_infimum_radial, penrose_check, EQUALITY_TOL
from .profiles import RadialProfile
from .quadrature import PanelAntiderivative

LIP_FACTOR_DEFAULT = 1.0 - 1e-6
SCAN_POINTS = 512
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_PANELS = 4096
_BETA_MARGIN = 0.9
_DEPTH_COTH = 1.8  # h is kept below this multiple of eps on the reachable region


def _coth(x):
    return 1.0 / np.tanh(x)


def _arccoth(x: float) -> float:
    return 0.5 * math.log((x + 1.0) / (x - 1.0))


@dataclass(frozen=True)
class PrescribedMeanCurvature:
    """The (eps, beta) prescribed curvature eps coth(3 eps t/4 + beta)."""

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
        arg = 0.75 * self.epsilon * np.asarray(t, dtype=float) + self.beta
        if np.any(arg <= 0):
            raise BarrierError(f"argument at or below the barrier t = {self.barrier}")
        return arg

    def __call__(self, t):
        out = self.epsilon * _coth(self._arg(t))
        return float(out) if np.ndim(t) == 0 else out

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


class MuBubbleProblem:
    """Anchor sphere, prescribed curvature, and Lipschitz-shrunk distance."""

    def __init__(
        self,
        profile: RadialProfile,
        anchor_radius: float,
        h: PrescribedMeanCurvature,
        lip_factor: float = LIP_FACTOR_DEFAULT,
    ):
        if profile.n != 3:
            raise UnsupportedDimensionError("bubble problems are defined only for n = 3")
        if not 0 < lip_factor < 1:
            raise ParameterError(f"lip_factor must lie in (0, 1), got {lip_factor}")
        profile.require_radius(anchor_radius)
        h0 = float(sphere_mean_curvature(profile, anchor_radius))
        if not h0 > h(0.0):
            raise BarrierError(
                f"anchor sphere is not a barrier: H(S_r0) = {h0:.6g} <= h(0) = {h(0.0):.6g}"
            )
        self.profile = profile
        self.anchor_radius = float(anchor_radius)
        self.h = h
        self.lip_factor = float(lip_factor)
        self.anchor_mean_curvature = h0
        self._ws: _Workspace | None = None

    def workspace(self) -> "_Workspace":
        if self._ws is None:
            self._ws = _Workspace(self)
        return self._ws


class _Workspace:
    """Cached arc-length and bulk antiderivatives for one bubble problem.

    The arc-length table reaches down to the floor: the inner edge of a
    closed domain, else max(lo (1 + 1e-12), 1e-15 r0).  The bulk table and
    the scan start at the barrier radius when the blow-up barrier lies above
    the floor, else at the floor.
    """

    def __init__(self, problem: MuBubbleProblem):
        self.problem = problem
        profile = problem.profile
        r0 = problem.anchor_radius
        dom = profile.domain
        self.floor = dom.lo if dom.lo_closed else max(dom.lo * (1 + 1e-12), 1e-15 * r0)
        edges = np.geomspace(self.floor, r0, _PANELS + 1)
        self._arc_prefix = PanelAntiderivative(_arc_weight(profile), edges)

        h = problem.h
        self.barrier_radius = None
        target = h.barrier * (1.0 - 1e-6)  # back off in rho, not in r
        if self.dist(self.floor) <= h.barrier:
            self.barrier_radius = float(
                brentq(lambda r: self.dist(r) - target, self.floor, r0, xtol=1e-300, rtol=1e-15)
            )
        self.scan_lo = self.barrier_radius if self.barrier_radius is not None else self.floor

        def dens(r):
            return h(self.dist(r)) * 4.0 * math.pi * profile.u(r) ** 6 * r**2

        bulk_edges = np.geomspace(self.scan_lo, r0, _PANELS + 1)
        self._bulk_prefix = PanelAntiderivative(dens, bulk_edges)

    def dist(self, r):
        """Lipschitz-shrunk signed arc length to the anchor (<= 0 inside)."""
        return -self.problem.lip_factor * self._arc_prefix(r)

    def bulk(self, rho):
        """Weighted volume term of the functional from rho out to the anchor."""
        return self._bulk_prefix(rho)

    def functional(self, rho):
        return np.asarray(sphere_area(self.problem.profile, rho)) + self.bulk(rho)

    def first_variation(self, rho):
        """g = H(S_rho) - h(rho(rho)); dA/drho = g area(S_rho) u(rho)^2."""
        return sphere_mean_curvature(self.problem.profile, rho) - self.problem.h(self.dist(rho))


def dist_to_anchor(problem: MuBubbleProblem, r: float) -> float:
    """Signed, Lipschitz-shrunk arc length from S_r to the anchor sphere.

    Negative inside the anchor, zero at it, positive outside; the shrink
    factor keeps the Lipschitz constant strictly below one.  Radii below the
    workspace floor raise :class:`OutOfCollectionError`.
    """
    profile = problem.profile
    profile.require_radius(r)
    r0 = problem.anchor_radius
    if r >= r0:
        return problem.lip_factor * geodesic_distance(profile, r0, r)
    ws = problem.workspace()
    if r < ws.floor:
        raise OutOfCollectionError(f"r = {r} lies below the workspace floor {ws.floor:.6g}")
    return float(ws.dist(r))


def functional_eval(problem: MuBubbleProblem, rho: float) -> float:
    """Area of S_rho plus the prescribed-curvature bulk term out to the anchor.

    Radii outside [workspace floor, r0] raise :class:`OutOfCollectionError`;
    radii below the barrier radius raise :class:`BarrierError`.
    """
    problem.profile.require_radius(rho)
    ws = problem.workspace()
    if not ws.floor <= rho <= problem.anchor_radius:
        raise OutOfCollectionError(
            f"rho = {rho} lies outside [{ws.floor:.6g}, r0 = {problem.anchor_radius}]"
        )
    if rho < ws.scan_lo:
        raise BarrierError(f"rho = {rho} lies below the barrier radius {ws.scan_lo:.6g}")
    return float(ws.functional(rho))


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
    Each one on the logarithmic scan is refined by Brent's method, and the
    root with the lowest functional value is kept; its bracket signs are the
    second-order certificate.

    Raises :class:`DegenerateMinimizerError` when g has no such sign change,
    when the best root is not below the anchor value (beta too small), or,
    with no barrier radius, not below the value at the inner edge of the
    scan (no interior bubble).
    """
    ws = problem.workspace()
    r0 = problem.anchor_radius
    radii = np.geomspace(ws.scan_lo, r0, SCAN_POINTS)
    g = ws.first_variation(radii)
    best = None
    for i in np.nonzero((g[:-1] < 0) & (g[1:] >= 0))[0]:
        rho = brentq(ws.first_variation, radii[i], radii[i + 1], xtol=1e-300, rtol=_ROOT_RTOL)
        fval = float(ws.functional(rho))
        if best is None or fval < best[1]:
            best = (rho, fval, bool(g[i] < 0 < g[i + 1]))
    if best is None:
        raise DegenerateMinimizerError("H - h(rho) never changes sign from - to +; no interior bubble")
    rho, fval, second_ok = best
    if not fval < float(ws.functional(r0)):
        raise DegenerateMinimizerError("functional minimized at the anchor sphere; beta too small")
    if ws.barrier_radius is None and not fval < float(ws.functional(ws.scan_lo)):
        raise DegenerateMinimizerError("functional minimized at the inner edge; no interior bubble")

    profile = problem.profile
    mean_curv = float(sphere_mean_curvature(profile, rho))
    return MuBubbleSolution(
        rho_star=rho,
        area=float(sphere_area(profile, rho)),
        functional_value=fval,
        mean_curvature=mean_curv,
        el_residual=abs(mean_curv - problem.h(ws.dist(rho))),
        second_order_ok=second_ok,
        problem=problem,
    )


def choose_beta(profile: RadialProfile, anchor_radius: float, epsilon: float) -> float:
    """Smallest beta with h(0) <= 0.9 H(S_{r0}), found by bisection, then doubled.

    The 0.9 margin makes the effective requirement epsilon < 0.9 H(S_{r0});
    larger epsilon raises :class:`EpsilonTooLargeError`, and so does a
    nonpositive one.
    """
    if not epsilon > 0:
        raise EpsilonTooLargeError(f"epsilon = {epsilon} must be positive")
    h0 = float(sphere_mean_curvature(profile, anchor_radius))
    if not epsilon < h0:
        raise EpsilonTooLargeError(f"epsilon = {epsilon} >= H(S_r0) = {h0:.6g}")
    target = _BETA_MARGIN * h0 / epsilon  # need coth(beta) <= target
    if target <= 1.0:
        raise EpsilonTooLargeError(
            f"epsilon = {epsilon} leaves no margin below 0.9 H(S_r0) = {_BETA_MARGIN * h0:.6g}"
        )
    lo, hi = 1e-12, 1.0
    while _coth(hi) > target:
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover
            raise EpsilonTooLargeError("bisection for beta failed to bracket")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _coth(mid) <= target:
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


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
) -> MuBubbleProblem:
    """Assemble a bubble problem, selecting beta when not supplied."""
    if beta is None:
        beta = select_beta(profile, anchor_radius, epsilon, area_infimum)
    return MuBubbleProblem(
        profile, anchor_radius, PrescribedMeanCurvature(epsilon, beta), lip_factor
    )


@dataclass(frozen=True)
class DiameterReport:
    intrinsic_diameter: float
    bound: float
    within_bound: bool


def diameter_report(solution: MuBubbleSolution, epsilon: float) -> DiameterReport:
    """Intrinsic diameter of the bubble sphere against the 4 pi/(3 eps) bound.

    Report only: the bound presumes a spectral condition that is not
    re-verified here, so exceeding it is recorded, never fatal.
    """
    diam = float(intrinsic_diameter(solution.problem.profile, solution.rho_star))
    bound = 4.0 * math.pi / (3.0 * epsilon)
    return DiameterReport(intrinsic_diameter=diam, bound=bound, within_bound=diam <= bound)


def halving_schedule(start: float = 0.2, floor: float = 1e-3) -> list[float]:
    """Geometric halving from ``start`` down to and including ``floor``."""
    vals = []
    v = start
    while v >= floor * (1 - 1e-12):
        vals.append(v)
        v *= 0.5
    if vals and vals[-1] > floor * (1 + 1e-12):
        vals.append(floor)
    return vals


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
    for eps in epsilons:
        beta = None
        try:
            beta = select_beta(profile, anchor_radius, eps, area_infimum=a_inf)
            problem = build_problem(profile, anchor_radius, eps, beta=beta, area_infimum=a_inf)
            sol = minimize(problem)
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
    annulus_volume: float | None = None
    annulus_bound: float | None = None
    annulus_bound_ok: bool | None = None

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
    construction.  Recorded bounds:

    - area_k <= A_inf + Lambda_0 eps_k^2, asserted only when the mass bound
      is saturated (equality-case profiles);
    - annulus volume between consecutive spheres <= Lambda_0 eps_k^(2-gamma);
    - cumulative volume <= Lambda_0 eps^(gamma(2-gamma))
      (1 - eps^((gamma-1)(2-gamma)))^(-1),

    with eps_0 = sqrt(8 pi / area(S_{r0})) the admissible-curvature threshold
    and Lambda_0 = A_inf area(S_{r0}) / (2 pi).
    """
    if profile.n != 3:
        raise UnsupportedDimensionError("rigidity_iteration is defined only for n = 3")
    if not 1.0 < gamma < 2.0:
        raise ParameterError(f"gamma must lie in (1, 2), got {gamma}")
    a0 = float(sphere_area(profile, anchor_radius))
    eps0 = math.sqrt(8.0 * math.pi / a0)
    if not 0 < epsilon < eps0:
        raise EpsilonTooLargeError(f"need 0 < epsilon < {eps0:.6g}, got {epsilon}")
    report = penrose_check(profile)
    a_inf = report.area_infimum
    lambda0 = a_inf * a0 / (2.0 * math.pi)
    equality = abs(report.ratio - 1.0) <= EQUALITY_TOL

    steps: list[RigidityStep] = []
    anchor = float(anchor_radius)
    solutions: list[MuBubbleSolution] = []
    eps_list: list[float] = []
    for k in range(max_steps + 1):
        eps_k = epsilon ** (gamma**k)
        if eps_k < epsilon_floor:
            break
        beta = select_beta(profile, anchor, eps_k, area_infimum=a_inf)
        problem = build_problem(profile, anchor, eps_k, beta=beta, area_infimum=a_inf)
        sol = minimize(problem)
        area_bound = a_inf + lambda0 * eps_k**2
        area_ok = (sol.area <= area_bound) if equality else None
        steps.append(
            RigidityStep(
                k=k,
                epsilon=eps_k,
                beta=beta,
                solution=sol,
                area_bound=area_bound,
                area_bound_ok=area_ok,
            )
        )
        solutions.append(sol)
        eps_list.append(eps_k)
        anchor = sol.rho_star

    cumulative = 0.0
    for k in range(len(steps) - 1):
        vol = volume_between(profile, solutions[k + 1].rho_star, solutions[k].rho_star)
        cumulative += vol
        bound = lambda0 * eps_list[k] ** (2.0 - gamma)
        steps[k] = replace(
            steps[k], annulus_volume=vol, annulus_bound=bound, annulus_bound_ok=vol <= bound
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
