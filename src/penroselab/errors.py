"""Exception types shared across the package."""


class PenroseLabError(Exception):
    """Base class for all penroselab errors."""


class DomainError(PenroseLabError, ValueError):
    """A radius falls outside the domain of a radial profile."""


class NotAsymptoticallyFlatError(PenroseLabError):
    """A profile does not decay to a positive constant plus an r^(2-n) tail."""


class UnsupportedDimensionError(PenroseLabError):
    """An operation defined only in dimension three was called elsewhere."""


class NotOuterMinimizingError(PenroseLabError):
    """The coordinate-sphere outer-minimizing test failed; check refused."""


class BarrierError(PenroseLabError):
    """An argument crossed the blow-up barrier of the prescribed curvature."""


class OutOfCollectionError(PenroseLabError):
    """A candidate region lies outside the admissible radial collection."""


class DegenerateMinimizerError(PenroseLabError):
    """No interior bubble: H - h(rho) never goes from - to +, or no root beats the anchor or the floor."""


class EpsilonTooLargeError(PenroseLabError):
    """The curvature scale is too large for the anchor sphere's mean curvature, or not positive."""


class QuadratureError(PenroseLabError):
    """A radial integral's panel sums did not agree to their tolerance within the doubling cap."""


class ConfigError(PenroseLabError):
    """A scenario configuration is malformed or inconsistent."""


class ParameterError(ConfigError, ValueError):
    """A numeric parameter lies outside its admissible range."""


class WeakAlphaWarning(UserWarning):
    """The trumpet shift constant sits below the certified bound."""
