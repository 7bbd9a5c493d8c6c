import numpy as np
import pytest

from penroselab import (
    CylinderProfile,
    EuclideanProfile,
    SchwarzschildLikeProfile,
    build_trumpet,
)
from penroselab.profiles import ScaledProfile


class CountingProfile(ScaledProfile):
    """The base profile unchanged (scale 1), counting u evaluations: ``calls`` and ``points`` (radii)."""

    def __init__(self, base):
        super().__init__(base, 1.0)
        self.calls = 0
        self.points = 0

    def _u(self, r):
        self.calls += 1
        self.points += np.size(r)
        return super()._u(r)


@pytest.fixture
def counting():
    """``counting(profile)`` wraps a profile in a :class:`CountingProfile`."""
    return CountingProfile


@pytest.fixture
def euclid():
    return EuclideanProfile()


@pytest.fixture
def schw():
    return SchwarzschildLikeProfile.from_mass(1.0)


@pytest.fixture
def schw_ab():
    return SchwarzschildLikeProfile(2.0, 1.0)


@pytest.fixture
def cylinder():
    return CylinderProfile()


@pytest.fixture(scope="session")
def trumpet():
    return build_trumpet()
