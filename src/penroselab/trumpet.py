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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PenroseLabError, WeakAlphaWarning
from .geometry import geodesic_distance, scalar_curvature
from .masses import adm_mass_from_tail, area_infimum_radial
from .profiles import (
    CylinderProfile,
    RadialGrid,
    RadialProfile,
    SchwarzschildLikeProfile,
    default_grid,
    unit_sphere_area,
    write_tabulated,
)
from .quadrature import PanelAntiderivative


def find_r0(n: int) -> float:
    """Largest admissible gluing radius: u1' > u2' on (0, 2 r0).

    The slope inequality reduces to r^{(n-2)/2} < 2, so r0 = 2^{2/(n-2)} / 2.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    return 0.5 * 2.0 ** (2.0 / (n - 2))


@dataclass(frozen=True)
class SmoothCutoff:
    """Bump-quotient cutoff: 1 on [0, r0], 0 on [2 r0, inf), monotone between.

    zeta(t) = phi((2r0 - t)/r0) / [phi((2r0 - t)/r0) + phi((t - r0)/r0)] with
    phi(s) = exp(-1/s) for s > 0 and 0 otherwise; the plateaus are exact.
    """

    r0: float

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        ts = np.atleast_1d(t_arr)
        a = (2.0 * self.r0 - ts) / self.r0
        b = (ts - self.r0) / self.r0
        pa, dpa = _phi(a)
        pb, dpb = _phi(b)
        denom = pa + pb
        zeta = pa / denom
        zeta_prime = -(dpa * pb + pa * dpb) / (self.r0 * denom**2)
        if scalar:
            return float(zeta[0]), float(zeta_prime[0])
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


def _models(n: int) -> tuple[CylinderProfile, SchwarzschildLikeProfile]:
    """The two model factors u1 (cylinder) and u2 = 1 + r^{2-n}.

    The blend calls their array evaluators ``_u``/``_du``/``_d2u`` directly,
    which skip the scalar dispatch on the profile's hot path.
    """
    return CylinderProfile(n), SchwarzschildLikeProfile(1.0, 1.0, n)


def required_alpha(n: int, r0: float) -> float:
    """The certificate bound max((2 r0)^{2-n}, (2/(n-2)) sup |r u1'| + |r u2'| over [r0, 2 r0]).

    |r u1'| = ((n-2)/2) r^{(2-n)/2} and |r u2'| = (n-2) r^{2-n} both decrease
    in r, so the supremum sits at r0.
    """
    u1, u2 = _models(n)
    sup = abs(r0 * u1.du(r0)) + abs(r0 * u2.du(r0))
    return max((2.0 * r0) ** (2 - n), (2.0 / (n - 2)) * sup)


def min_alpha(n: int, r0: float) -> float:
    """Certified shift constant, 1.1 times the binding lower bound :func:`required_alpha`."""
    return 1.1 * required_alpha(n, r0)


class TrumpetProfile(RadialProfile):
    """Blended conformal factor: cylindrical throat, Schwarzschild-type tail."""

    kind = "trumpet"

    _BLEND_PANELS = 256

    def __init__(self, n: int = 3, r0: float | None = None, alpha: float | None = None):
        super().__init__(n)
        self.r0 = float(r0) if r0 is not None else find_r0(n)
        amin = min_alpha(n, self.r0)
        self.alpha = float(alpha) if alpha is not None else amin
        if self.alpha < amin:
            warnings.warn(
                f"alpha = {self.alpha:.6g} below the certified bound {amin:.6g}; "
                "verification is expected to fail",
                WeakAlphaWarning,
                stacklevel=2,
            )
        self._u1, self._u2 = _models(n)
        self.alpha0 = self.alpha + self._u1._u(self.r0)
        self.cutoff = SmoothCutoff(self.r0)
        edges = np.linspace(self.r0, 2.0 * self.r0, self._BLEND_PANELS + 1)
        self._blend_prefix = PanelAntiderivative(self._slope, edges)
        self._i_blend = float(self._blend_prefix(self.r0))
        # below r0 the factor is exactly u1 plus this constant
        self.c1 = self.alpha + (2.0 * self.r0) ** (2 - n) - self._i_blend
        self.inner_exponent = self._u1.inner_exponent
        self.breakpoints = (self.r0, 2.0 * self.r0)

    def params(self):
        return {"r0": self.r0, "alpha": self.alpha, "alpha0": self.alpha0}

    def _slope(self, r):
        zeta, _ = self.cutoff(r)
        return zeta * self._u1._du(r) + (1.0 - zeta) * self._u2._du(r)

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
        return self._slope(r)

    def _d2u(self, r):
        u1, u2 = self._u1, self._u2
        zeta, dzeta = self.cutoff(r)
        return (
            dzeta * (u1._du(r) - u2._du(r))
            + zeta * u1._d2u(r)
            + (1.0 - zeta) * u2._d2u(r)
        )

    def laplacian_terms(self, r):
        """The three-term split of the flat Laplacian of u.

        Returns (zeta lap u1, (1 - zeta) lap u2, zeta' (u1' - u2')); each is
        nonpositive for an admissible gluing radius.
        """
        r = np.asarray(r, dtype=float)
        n, u1, u2 = self.n, self._u1, self._u2
        zeta, dzeta = self.cutoff(r)
        lap1 = u1._d2u(r) + (n - 1) / r * u1._du(r)
        lap2 = u2._d2u(r) + (n - 1) / r * u2._du(r)
        return zeta * lap1, (1.0 - zeta) * lap2, dzeta * (u1._du(r) - u2._du(r))


def build_trumpet(n: int = 3, r0: float | None = None, alpha: float | None = None) -> TrumpetProfile:
    """Construct the blended profile; alpha defaults to the certified bound."""
    return TrumpetProfile(n=n, r0=r0, alpha=alpha)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class TrumpetVerification:
    ok: bool
    checks: list[CheckResult]
    mass: float | None
    throat_area: float

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mass": self.mass,
            "throat_area": self.throat_area,
            "checks": [c.to_dict() for c in self.checks],
        }


LAPLACIAN_TERM_TOL = 1e-12
SCALAR_CURVATURE_TOL = 1e-10
THROAT_AREA_TOL = 1e-4


def verify_trumpet(profile: TrumpetProfile, grid: RadialGrid | None = None) -> TrumpetVerification:
    """Run the five verification checks on a built trumpet profile.

    (a) asymptotic flatness: tail fit succeeds and (for n = 3) recovers the
        mass 2 alpha0;
    (b) nonnegative scalar curvature, via the sign of each Laplacian term
        (<= 1e-12 pointwise) and R >= -1e-10 on the grid;
    (c) mean convexity: d/dr [u^{2/(n-2)} r] > 0 at every grid point AND the
        alpha certificate that guarantees positivity off the sampled grid;
    (d) completeness: radial arc length from the puncture diverges;
    (e) throat area limit: sphere areas decrease to the unit-sphere area.
    """
    grid = grid or default_grid(profile)
    radii = grid.radii()
    n = profile.n
    checks: list[CheckResult] = []

    # (a) asymptotically flat tail
    mass = None
    try:
        m_fit, tail = adm_mass_from_tail(profile, grid)
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
    terms_max = float(max(t1.max(), t2.max(), t3.max()))
    r_min = float(np.min(np.asarray(scalar_curvature(profile, radii))))
    sc_ok = terms_max <= LAPLACIAN_TERM_TOL and r_min >= -SCALAR_CURVATURE_TOL
    checks.append(
        CheckResult(
            "scalar_curvature_nonnegative",
            sc_ok,
            {"max_laplacian_term": terms_max, "min_scalar_curvature": r_min},
        )
    )

    # (c) mean convexity: sampled positivity plus the alpha certificate
    u = profile.u(radii)
    deriv = u ** ((4.0 - n) / (n - 2)) * (u + 2.0 / (n - 2) * radii * profile.du(radii))
    grid_ok = bool(np.all(deriv > 0))
    alpha_req = required_alpha(n, profile.r0)
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
    inf_res = area_infimum_radial(profile, grid)
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
EXPORT_COUNT = 32768


def export_trumpet(
    profile: TrumpetProfile,
    dat_path,
    r_lo: float = EXPORT_R_LO,
    r_hi: float = EXPORT_R_HI,
    count: int = EXPORT_COUNT,
) -> None:
    """Write the profile as a two-column (r, u) table readable by ``read_tabulated``."""
    radii = np.geomspace(r_lo, r_hi, count)
    write_tabulated(dat_path, radii, profile.u(radii), header="trumpet conformal factor")
