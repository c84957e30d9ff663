"""Property tests: the design's bounded least-squares solve against scipy's
``lsq_linear`` (bvls) on random full-rank, rank-deficient, bound-seeking and
widely scaled problems."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.optimize import lsq_linear  # noqa: E402

from formukit.inverse import _bvls  # noqa: E402


def _problem(seed, n, extra_rows, kind):
    rng = np.random.default_rng(seed)
    m = n + extra_rows
    lo = rng.uniform(-1.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 2.0, n)
    if kind == "at_bounds":
        # Orthogonal columns separate the variables, and the target lies
        # past a bound in every one of them: the solution is that corner.
        a = np.linalg.qr(rng.normal(size=(m, n)))[0] * 10.0 ** rng.uniform(-2, 2, n)
        beyond = np.where(rng.uniform(size=n) < 0.5, lo - rng.uniform(0.1, 1, n),
                          hi + rng.uniform(0.1, 1, n))
        return a, a @ beyond, lo, hi
    a = rng.normal(size=(m, n))
    if kind == "duplicate" and n > 1:
        a[:, -1] = a[:, 0]
    if kind == "scaled":
        a *= 10.0 ** rng.uniform(-6, 6, n)
    return a, rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3), lo, hi


def _assert_near_lsq_linear(a, b, lo, hi, x):
    reference = lsq_linear(a, b, bounds=(lo, hi), method="bvls").x
    # The cost is within 1e-8 relative of scipy's, up to the rounding of
    # evaluating a x - b at x (cancelling duplicated columns of 1e6 reach it).
    rounding = 8 * sum(a.shape) * np.finfo(float).eps * (
        np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x))
    assert np.linalg.norm(a @ x - b) <= (np.linalg.norm(a @ reference - b) * np.sqrt(1.0 + 1e-8)
                                         + rounding)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 14), extra_rows=st.integers(1, 20),
       kind=st.sampled_from(["full", "duplicate", "at_bounds", "scaled"]))
def test_bvls_matches_lsq_linear(seed, n, extra_rows, kind):
    a, b, lo, hi = _problem(seed, n, extra_rows, kind)
    x, converged = _bvls(a, b, lo, hi)
    assert converged
    assert np.all((lo <= x) & (x <= hi))
    if kind == "at_bounds":
        assert np.all((x == lo) | (x == hi))
    _assert_near_lsq_linear(a, b, lo, hi, x)


def _underdetermined(seed, n, m):
    # A few rows, many columns scaled over 1e+-6: the free set is degenerate
    # and rounding can make the active set cycle.
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 0.0, n)
    return (rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-6, 6, n), rng.normal(size=m),
            lo, lo + rng.uniform(0.1, 2.0, n))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 14), m=st.integers(1, 3))
def test_bvls_on_underdetermined_problems(seed, n, m):
    a, b, lo, hi = _underdetermined(seed, n, m)
    x, converged = _bvls(a, b, lo, hi)
    assert np.all((lo <= x) & (x <= hi))
    if converged:
        _assert_near_lsq_linear(a, b, lo, hi, x)


def test_bvls_cap_returns_a_feasible_point_unconverged(monkeypatch):
    import formukit.inverse as inverse

    problems = [_underdetermined(seed, 12, 3) for seed in range(40)]
    full = [_bvls(*problem) for problem in problems]
    monkeypatch.setattr(inverse, "_BVLS_ROUNDS", 0)          # one solve, no variable freed
    capped = [_bvls(*problem) for problem in problems]
    for (a, b, lo, hi), (x, converged), (x_full, _) in zip(problems, capped, full):
        assert np.all((lo <= x) & (x <= hi))
        if converged:
            assert np.array_equal(x, x_full)
    assert not all(converged for _, converged in capped)
