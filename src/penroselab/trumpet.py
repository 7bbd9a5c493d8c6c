"""Gluing a cylindrical end to a Schwarzschild-type end.

The two model factors

    u1(r) = r^{(2-n)/2}        (round cylinder)
    u2(r) = 1 + r^{2-n}        (Schwarzschild-type)

have u1' > u2' exactly on (0, 2^{2/(n-2)}), so with the gluing radius r0 set
to half that threshold a monotone cutoff zeta (1 on [0, r0], 0 on [2r0, inf))
blends the slopes into

    u'(r) = zeta(r) u1'(r) + (1 - zeta(r)) u2'(r),

integrated from infinity with additive constant alpha.  The result is exactly
cylindrical below r0, exactly alpha0 + r^{2-n} above 2r0 (alpha0 = alpha +
u1(r0)), complete at the puncture, and its flat Laplacian splits as

    lap u = zeta lap u1 + (1 - zeta) lap u2 + zeta' (u1' - u2'),

three individually nonpositive terms, so the scalar curvature is nonnegative
by construction.  Mean convexity of every coordinate sphere holds once alpha
clears two explicit lower bounds; the verification report checks both the
sampled positivity and that certificate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PenroseLabError, WeakAlphaWarning
from .geometry import geodesic_distance
from .masses import GridScan
from .profiles import (
    CylinderProfile,
    RadialGrid,
    RadialProfile,
    SchwarzschildLikeProfile,
    dimension,
    unit_sphere_area,
    write_tabulated,
)
from .quadrature import PanelAntiderivative


def find_r0(n: int) -> float:
    """Largest admissible gluing radius: u1' > u2' on (0, 2 r0).

    The slope inequality reduces to r^{(n-2)/2} < 2, so r0 = 2^{2/(n-2)} / 2.
    n passes the one dimension rule, :func:`~penroselab.profiles.dimension`.
    """
    return 0.5 * 2.0 ** (2.0 / (dimension(n) - 2))


@dataclass(frozen=True)
class SmoothCutoff:
    """Bump-quotient cutoff: 1 on [0, r0], 0 on [2 r0, inf), monotone between.

    zeta(t) = phi((2r0 - t)/r0) / [phi((2r0 - t)/r0) + phi((t - r0)/r0)] with
    phi(s) = exp(-1/s) for s > 0 and 0 otherwise; the plateaus are exact.
    """

    r0: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = (2.0 * self.r0 - t) / self.r0
        b = (t - self.r0) / self.r0
        pa, dpa = _phi(a)
        pb, dpb = _phi(b)
        denom = pa + pb
        zeta = pa / denom
        zeta_prime = -(dpa * pb + pa * dpb) / (self.r0 * denom**2)
        return zeta, zeta_prime


def _phi(s):
    """exp(-1/s) for s > 0 (else 0), together with its derivative exp(-1/s)/s^2."""
    s = np.asarray(s, dtype=float)
    val = np.zeros_like(s)
    dval = np.zeros_like(s)
    pos = s > 0
    with np.errstate(over="ignore"):
        val[pos] = np.exp(-1.0 / s[pos])
        dval[pos] = val[pos] / s[pos] ** 2
    return val, dval


def required_alpha(n: int) -> float:
    """The certificate bound max((2 r0)^{2-n}, (2/(n-2)) sup |r u1'| + |r u2'| over [r0, 2 r0]).

    r0 is :func:`find_r0`.  |r u1'| = ((n-2)/2) r^{(2-n)/2} and
    |r u2'| = (n-2) r^{2-n} both decrease in r, so the supremum sits at r0.
    """
    r0 = find_r0(n)
    u1, u2 = _blend(n)[1:3]
    sup = abs(r0 * u1.du(r0)) + abs(r0 * u2.du(r0))
    return max((2.0 * r0) ** (2 - n), (2.0 / (n - 2)) * sup)


def min_alpha(n: int) -> float:
    """Certified shift constant, 1.1 times the binding lower bound :func:`required_alpha`."""
    return 1.1 * required_alpha(n)


@functools.cache  # one entry per dimension n
def _blend(n: int) -> tuple:
    """The glue of dimension n, shared by its trumpets: (zeta, u1, u2, the slope's antiderivative, its value at r0).

    zeta is the cutoff at r0 = :func:`find_r0`, u1 the cylinder, u2 = 1 + r^{2-n}.  The slope zeta u1' + (1 - zeta) u2'
    is integrated on 256 panels of [r0, 2 r0]; alpha only shifts ``alpha0`` and ``c1``.  A trumpet calls the models'
    array evaluators ``_u``/``_du``/``_d2u`` directly, skipping the scalar dispatch.
    """
    r0 = find_r0(n)
    cutoff, u1, u2 = SmoothCutoff(r0), CylinderProfile(n), SchwarzschildLikeProfile(1.0, 1.0, n)

    def slope(r):
        zeta, _ = cutoff(r)
        return zeta * u1._du(r) + (1.0 - zeta) * u2._du(r)

    prefix = PanelAntiderivative(slope, np.linspace(r0, 2.0 * r0, 257))
    return cutoff, u1, u2, prefix, float(prefix(r0))


class TrumpetProfile(RadialProfile):
    """Blended conformal factor: cylindrical throat, Schwarzschild-type tail, glued at r0 = :func:`find_r0`."""

    kind = "trumpet"

    def __init__(self, n: int = 3, alpha: float | None = None):
        super().__init__(n)
        self.r0 = find_r0(n)
        amin = min_alpha(n)
        self.alpha = float(alpha) if alpha is not None else amin
        if not math.isfinite(self.alpha):  # NaN would pass the alpha < amin check unwarned
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < amin:
            warnings.warn(
                f"alpha = {self.alpha:.6g} below the certified bound {amin:.6g}; "
                "verification is expected to fail",
                WeakAlphaWarning,
                stacklevel=2,
            )
        self.cutoff, self._u1, self._u2, self._blend_prefix, i_blend = _blend(n)
        self.alpha0 = self.alpha + self._u1._u(self.r0)
        # below r0 the factor is exactly u1 plus this constant
        self.c1 = self.alpha + (2.0 * self.r0) ** (2 - n) - i_blend
        self.inner_exponent = self._u1.inner_exponent
        self.breakpoints = (self.r0, 2.0 * self.r0)

    def params(self):
        return {"r0": self.r0, "alpha": self.alpha, "alpha0": self.alpha0}

    def _u(self, r):
        n = self.n
        out = np.empty_like(r)
        inner = r <= self.r0
        outer = r >= 2.0 * self.r0
        mid = ~(inner | outer)
        out[inner] = self._u1._u(r[inner]) + self.c1
        out[outer] = self.alpha0 + r[outer] ** (2 - n)
        if np.any(mid):
            out[mid] = self.alpha0 + (2.0 * self.r0) ** (2 - n) - self._blend_prefix(r[mid])
        return out

    def _du(self, r):
        return self._blend_prefix.f(r)  # the blended slope, as integrated

    def _d2u(self, r):
        u1, u2 = self._u1, self._u2
        zeta, dzeta = self.cutoff(r)
        return (
            dzeta * (u1._du(r) - u2._du(r))
            + zeta * u1._d2u(r)
            + (1.0 - zeta) * u2._d2u(r)
        )

    def laplacian_terms(self, r):
        """The three-term split of the flat Laplacian of u, from the models' exact Laplacians.

        Returns (zeta lap u1, (1 - zeta) lap u2, zeta' (u1' - u2')); each is
        nonpositive for an admissible gluing radius.  lap u1 = -((n-2)/2)^2
        r^{-(n+2)/2}, and lap u2 = 0: 1 + r^{2-n} is harmonic.
        """
        r = np.asarray(r, dtype=float)
        zeta, dzeta = self.cutoff(r)
        lap1 = -((0.5 * (self.n - 2)) ** 2) * r ** (-0.5 * (self.n + 2))
        return zeta * lap1, np.zeros_like(r), dzeta * (self._u1._du(r) - self._u2._du(r))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class TrumpetVerification:
    ok: bool
    checks: list[CheckResult]
    mass: float | None
    throat_area: float

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


LAPLACIAN_TERM_TOL = 1e-12
SCALAR_CURVATURE_TOL = 1e-10
THROAT_AREA_TOL = 1e-4


def verify_trumpet(scan: GridScan) -> TrumpetVerification:
    """Run the five verification checks on the grid scan of a built trumpet profile.

    (a) asymptotic flatness: tail fit succeeds and (for n = 3) recovers the
        mass 2 alpha0;
    (b) nonnegative scalar curvature, via the sign of each Laplacian term
        (<= 1e-12 pointwise) and R >= -1e-10 on the grid;
    (c) mean convexity: d/dr [u^{2/(n-2)} r] > 0 at every grid point AND the
        alpha certificate that guarantees positivity off the sampled grid;
    (d) completeness: radial arc length from the puncture diverges;
    (e) throat area limit: sphere areas decrease to the unit-sphere area.

    (a) reads the scan's tail, and (b), (c) and (e) its one evaluation of u, u' and u''.
    """
    profile, radii = scan.profile, scan.radii
    n = profile.n
    checks: list[CheckResult] = []

    # (a) asymptotically flat tail
    mass = None
    try:
        m_fit, tail = scan.tail
        if n == 3:
            mass = 2.0 * profile.alpha0
            af_ok = abs(m_fit - mass) <= 1e-8 * max(1.0, abs(mass))
            detail = {"fit_mass": m_fit, "expected_mass": mass, "fit_residual": tail.fit_residual}
        else:
            af_ok = True
            detail = {"fit_residual": tail.fit_residual, "a": tail.a, "b": tail.b}
    except PenroseLabError as exc:
        af_ok = False
        detail = {"error": str(exc)}
    checks.append(CheckResult("asymptotically_flat", af_ok, detail))

    # (b) scalar curvature sign, through the Laplacian decomposition
    t1, t2, t3 = profile.laplacian_terms(radii)
    terms_max = float(max(t1.max(), t2.max(), t3.max())) + 0.0  # 0 * lap1 beyond 2 r0 is -0.0; report 0.0
    r_min = float(np.min(scan.scalar_curvature()))
    sc_ok = terms_max <= LAPLACIAN_TERM_TOL and r_min >= -SCALAR_CURVATURE_TOL
    checks.append(
        CheckResult(
            "scalar_curvature_nonnegative",
            sc_ok,
            {"max_laplacian_term": terms_max, "min_scalar_curvature": r_min},
        )
    )

    # (c) mean convexity: sampled positivity plus the alpha certificate
    deriv = scan.sphere.radius_slope
    grid_ok = bool(np.all(deriv > 0))
    alpha_req = required_alpha(n)
    cert_ok = profile.alpha >= alpha_req * (1 - 1e-12)
    checks.append(
        CheckResult(
            "mean_convexity",
            grid_ok and cert_ok,
            {
                "grid_positive": grid_ok,
                "min_derivative": float(np.min(deriv)),
                "alpha_certificate": cert_ok,
                "alpha": profile.alpha,
                "required_alpha": alpha_req,
            },
        )
    )

    # (d) completeness toward the puncture
    dist = geodesic_distance(profile, profile.domain.lo, profile.r0)
    checks.append(
        CheckResult("completeness", math.isinf(dist), {"arc_length_from_puncture": dist})
    )

    # (e) throat area limit
    inf_res = scan.area_infimum
    target = unit_sphere_area(n)
    throat_ok = inf_res.throat_limit and abs(inf_res.value - target) <= THROAT_AREA_TOL
    checks.append(
        CheckResult(
            "throat_area",
            throat_ok,
            {
                "limit": inf_res.value,
                "expected": target,
                "throat_limit_flag": inf_res.throat_limit,
            },
        )
    )

    return TrumpetVerification(
        ok=all(c.passed for c in checks),
        checks=checks,
        mass=mass,
        throat_area=float(inf_res.value),
    )


EXPORT_R_LO = 1e-10
EXPORT_R_HI = 1e4
EXPORT_COUNT = 4096


def export_trumpet(profile: TrumpetProfile, dat_path) -> None:
    """Write the profile as a four-column (r, u, u', u'') table readable by ``read_tabulated``.

    The radii are the ``RadialGrid`` of EXPORT_COUNT geometric points from
    EXPORT_R_LO to EXPORT_R_HI, sampled and turned to text once per process.
    The reader interpolates u, u' and u'' by Hermite from these columns; the
    first two alone are a (r, u) table, which is how a reader of (r, u) takes it.
    alpha shifts only ``alpha0`` and ``c1``, so every trumpet of one dimension
    has the same u' and u'' here, bit for bit: ``write_tabulated`` keeps their
    text, and a later export of that dimension formats only its u column.
    The table is kept as written, so reading it back in this process parses nothing.
    """
    grid = RadialGrid(EXPORT_R_LO, EXPORT_R_HI, EXPORT_COUNT)
    r = grid.radii()
    derivatives = (profile.du(r), profile.d2u(r))
    write_tabulated(dat_path, grid, profile.u(r), header="trumpet conformal factor", derivatives=derivatives)
