"""Property tests: DissolutionProfile and SizeDistribution accept, reject and
sort exactly as a plain-Python statement of their contract does, with the
same exception type and message."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formukit.errors import DuplicateTimeError, FormukitError, ValidationError  # noqa: E402
from formukit.types import SIZE_RANGE_UM, DissolutionProfile, SizeDistribution  # noqa: E402

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0]
_TIMES = st.sampled_from([0.0, 0.25, 1.0, 2.0, 6.0, *_SPECIAL]) | st.floats()
_RELEASED = st.sampled_from([0.0, 50.0, 100.0, 100.5, -1e-9, *_SPECIAL]) | st.floats()
_SIZES = st.sampled_from([1e-3, 1.0, 10.0, 100.0, 1e6, 2e6, 5e-4, *_SPECIAL]) | st.floats()
_FRACTIONS = st.sampled_from([0.0, 0.5, 1.0, 1.5, *_SPECIAL]) | st.floats()


def _profile_contract(times, released):
    """The sorted (time, released) points, or the error the constructor raises."""
    if not all(math.isfinite(v) for v in times + released):
        raise ValidationError("times and released values must be finite")
    points = sorted(zip(times, released), key=lambda point: point[0])
    if len({t for t, _ in points}) < len(points):
        raise DuplicateTimeError("profile contains duplicate times")
    if points[0][0] < 0:
        raise ValidationError("times must be >= 0")
    if not all(0 <= r <= 100 for _, r in points):
        raise ValidationError("released % must be within [0, 100]")
    return points


def _distribution_contract(sizes, fractions):
    """The (size, fraction) bins, or the error the constructor raises."""
    lo, hi = SIZE_RANGE_UM
    if not all(lo <= x <= hi for x in sizes):
        raise ValidationError(f"bin sizes must be finite and > 0, within {lo:g}-{hi:g} um")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("bin sizes must be strictly increasing")
    if not all(f >= 0 for f in fractions):
        raise ValidationError("mass fractions must be >= 0")
    total = 0.0
    for f in fractions:           # left to right, as numpy sums fewer than 8 values
        total += f
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"mass fractions must sum to 1 (got {np.float64(total)!r})")
    return list(zip(sizes, fractions))


def _outcome(make, *args):
    try:
        return make(*args)
    except FormukitError as exc:
        return type(exc), str(exc)


@st.composite
def _pairs(draw, firsts, seconds, max_size):
    n = draw(st.integers(1, max_size))
    return (draw(st.lists(firsts, min_size=n, max_size=n)),
            draw(st.lists(seconds, min_size=n, max_size=n)))


@st.composite
def _distributions(draw):
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n)
                 | st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n, unique=True).map(sorted))
    fractions = draw(st.lists(_FRACTIONS, min_size=n, max_size=n)
                     | st.just([1.0 / n] * n))
    if draw(st.booleans()):
        fractions = [*fractions[:-1], draw(_FRACTIONS)]
    return sizes, fractions


def _assert_profile_follows_its_contract(times, released, wrap):
    expected = _outcome(_profile_contract, times, released)
    got = _outcome(DissolutionProfile, wrap(times), wrap(released))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.points() == expected
        assert got.times_hr.dtype == got.released_pct.dtype == np.float64


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points=_pairs(_TIMES, _RELEASED, 64), as_arrays=st.booleans())
def test_profile_follows_its_contract(points, as_arrays):
    _assert_profile_follows_its_contract(*points, np.array if as_arrays else list)


@pytest.mark.parametrize("wrap", [np.array, list])
@pytest.mark.parametrize("last", [100.0, math.nan])
def test_a_10000_point_profile_follows_its_contract(last, wrap):
    times = np.linspace(0.0, 6.0, 10_000).tolist()
    released = [*np.linspace(0.0, 99.0, 9_999).tolist(), last]
    _assert_profile_follows_its_contract(times, released, wrap)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(bins=_distributions())
def test_distribution_follows_its_contract(bins):
    expected = _outcome(_distribution_contract, *bins)
    got = _outcome(SizeDistribution, *bins)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert list(zip(got.sizes_um.tolist(), got.fractions.tolist())) == expected


def test_a_profile_owns_its_points():
    times, released = np.array([0.0, 1.0]), np.array([0.0, 50.0])
    profile = DissolutionProfile(times, released)
    times[1], released[1] = 2.0, 60.0
    assert profile.points() == [(0.0, 0.0), (1.0, 50.0)]
