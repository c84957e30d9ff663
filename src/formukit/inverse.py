"""Inverse design: recover a size distribution matching a target release curve.

The fit criterion is the release-curve MSE on the target's time grid plus,
for free-bin distributions, a second-difference roughness penalty that tames
the ill-posedness (many distributions produce near-identical curves).

Two parameterizations are supported: log-normal (d50, geo_sigma), fitted in
the log-transformed parameters, and free mass fractions on a fixed geometric
size grid. Both run the same bounded Gauss-Newton rounds. Each round models
released % as base + J (x' - x), solves one bounded linear least-squares
problem (``_bvls``) for x' with the target rows stacked on the penalty rows
(for free bins the roughness and a row holding the fractions' sum at 1), and
steps toward the solution, renormalised for free bins, halving the step until
the objective falls. J is exact and comes with each run: the solver's
derivatives of released % in each bin's fraction (the free-bin columns) and
ln y0_i, which log-normal chains through ln y0_i = 2 ln d50 + 2 u_i ln geo_sigma.

A search stops by itself, converged, when no step toward a round's solution
lowers the objective and the Jacobian is not all zero (a flat model is a
stall), when an accepted step lowers it by at most 1e-6 relative or moves no
coordinate by more than 1e-12, or once the objective is below
``CONVERGED_OBJECTIVE`` (free bins) or ``ROUNDING_OBJECTIVE`` (log-normal).
Otherwise it stops, unconverged, on its round cap. Each accepted iterate
lowers the objective, and identical specs plus seed give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dissolution import (derived_metrics, lognormal_offsets, psd_from_lognormal, simulate,
                          simulate_dissolution)
from .errors import ValidationError
from .types import (
    DEFAULT_GEO_SIGMA,
    DEFAULT_N_BINS,
    DEFAULT_START_D50_UM,
    DissolutionConditions,
    DissolutionProfile,
    DrugSubstance,
    ParticleMorphology,
    SizeDistribution,
)

#: Objective level treated as a perfect fit [%^2].
CONVERGED_OBJECTIVE = 1e-3
#: Log-normal fit exact to rounding [%^2] (released % to 1e-12 pp): steps below it gain nothing.
ROUNDING_OBJECTIVE = 1e-24
#: Weight of the free-bin roughness penalty in the objective.
_ROUGHNESS_WEIGHT = 1e-2
#: Weight of the least-squares row that holds the free-bin fractions' sum at 1.
_SUM_WEIGHT = 1e3
#: Steps toward a round's least-squares solution, as shares of the way, tried in turn.
_STEPS = 0.5 ** np.arange(7)
#: A search stops once an accepted step lowers the objective by at most
#: _RTOL of its value or moves no coordinate by more than _XTOL.
_RTOL = 1e-6
_XTOL = 1e-12
#: Rounds each log-normal start may take, and a free-bin search by default.
_MAX_ROUNDS = 40
#: ``_bvls`` gives up, unconverged, after this many variables entering per variable.
_BVLS_ROUNDS = 3
#: The (lo, hi) of d50 [um] and of geo_sigma a log-normal design searches by default.
DEFAULT_LOGNORMAL_BOUNDS = ((5.0, 1000.0), (1.01, 3.0))


@dataclass(frozen=True)
class LognormalParameterization:
    """Log-normal family; the values given here are the optimizer's start, and
    ``bounds`` the (lo, hi) of d50 [um] and of geo_sigma that it searches within."""

    d50_um: float
    geo_sigma: float
    n_bins: int = DEFAULT_N_BINS
    bounds: tuple = DEFAULT_LOGNORMAL_BOUNDS

    def __post_init__(self):
        if len(self.bounds) != 2:
            raise ValidationError(f"need 2 (lo, hi) bounds, got {len(self.bounds)}")
        for lo, hi in self.bounds:
            if not -np.inf < lo < hi < np.inf:
                raise ValidationError(f"infeasible bound ({lo}, {hi}): need finite lo < hi")
        if not (self.bounds[0][0] > 0.0 and self.bounds[1][0] >= 1.0):
            raise ValidationError("d50 bounds must be > 0 and geo_sigma bounds >= 1")


@dataclass(frozen=True)
class FreeBinsParameterization:
    """Mass fractions on a fixed geometric size grid, started uniform."""

    sizes_um: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes_um", np.asarray(self.sizes_um, dtype=float))

    @classmethod
    def geometric(cls, n: int, x_min_um: float, x_max_um: float
                  ) -> "FreeBinsParameterization":
        if not (0 < x_min_um < x_max_um):
            raise ValidationError("need 0 < x_min < x_max")
        return cls(np.geomspace(x_min_um, x_max_um, n))

    @property
    def n(self) -> int:
        return int(self.sizes_um.size)


@dataclass(frozen=True)
class DesignSpec:
    """Everything the inverse solver needs: target, physics, knobs."""

    target: DissolutionProfile
    drug: DrugSubstance
    morph: ParticleMorphology = field(default_factory=ParticleMorphology)
    conditions: DissolutionConditions = field(default_factory=DissolutionConditions)
    parameterization: LognormalParameterization | FreeBinsParameterization = field(
        default_factory=lambda: LognormalParameterization(DEFAULT_START_D50_UM, DEFAULT_GEO_SIGMA))

    def __post_init__(self):
        if self.target.n_points < 2:
            raise ValidationError("target must have at least 2 points")
        if not self.target.starts_at_zero:
            raise ValidationError("target profile must start at (0, 0)")

    @property
    def is_lognormal(self) -> bool:
        return isinstance(self.parameterization, LognormalParameterization)


def roughness(psd: SizeDistribution) -> float:
    """Sum of squared second differences of the bin fractions."""
    if psd.n_bins < 3:
        return 0.0
    return float(np.sum(np.diff(psd.fractions, n=2) ** 2))


def objective(psd: SizeDistribution, spec: DesignSpec) -> float:
    """Release-curve MSE against the target plus the roughness penalty."""
    achieved = simulate_dissolution(spec.drug, spec.morph, psd, spec.conditions,
                                    output_grid_hr=spec.target.times_hr)
    return _misfit(psd, spec, achieved)


def _misfit(psd: SizeDistribution, spec: DesignSpec, achieved: DissolutionProfile) -> float:
    # every run is simulated on the target's own grid, so the MSE needs no alignment
    value = float(np.mean((spec.target.released_pct - achieved.released_pct) ** 2))
    if not spec.is_lognormal:
        value += _ROUGHNESS_WEIGHT * roughness(psd)
    return value


@dataclass
class DesignResult:
    psd: SizeDistribution
    achieved: DissolutionProfile
    residual_mse: float
    iterations: int
    converged: bool
    parameters: dict
    objective_history: tuple[float, ...]     # accepted (non-increasing) values
    start_index: int = 0
    evaluations: int = 0                     # simulations run, rejected steps included


def _bvls(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, bool]:
    """The x within [lo, hi] that minimises |a x - b|, and whether it was reached.

    Lawson & Hanson's active-set NNLS with two-sided bounds (Stark & Parker's
    BVLS): from the lower bounds, head for the least-squares solution on the
    free variables (at first all), fixing each bound crossed on the way; then
    free the fixed variable whose gradient, beyond its rounding, is steepest
    along its column, and repeat. A freeing that leaves x where it was is not
    retried until x moves; after ``_BVLS_ROUNDS`` freeings per variable the
    point reached is returned with False.
    """
    m, n = a.shape
    norms = np.maximum(np.linalg.norm(a, axis=0), np.finfo(float).tiny)
    x, free, freed, skip = lo.copy(), np.ones(n, bool), np.zeros(n, bool), np.zeros(n, bool)
    for _ in range(_BVLS_ROUNDS * n + 1):
        before = x
        while True:
            z = np.where(free, 0.0, x)
            z[free] = np.linalg.lstsq(a[:, free], b - a @ z, rcond=None)[0]
            out = free & ((z < lo) | (z > hi))
            if not out.any():
                x = z
                break
            bound = np.where(z < lo, lo, hi)
            share = (bound - x)[out] / (z - x)[out]
            k = np.flatnonzero(out)[np.argmin(share)]
            x = np.clip(x + share.min() * (z - x), lo, hi)
            x[k], free[k] = bound[k], False
        skip = skip | freed if np.array_equal(x, before) else np.zeros(n, bool)
        gain = (a.T @ (b - a @ x)) * np.where(x == lo, 1.0, -1.0) / norms     # per unit column
        scale = np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x)   # of a x - b's terms
        enter = ~(free | skip) & (gain > (m + n) * np.finfo(float).eps * scale)
        if not enter.any():
            return x, True
        freed = np.arange(n) == np.argmax(np.where(enter, gain, -np.inf))
        free |= freed
    return x, False


def _gauss_newton(spec: DesignSpec, make_psd, x, columns, bounds, penalty,
                  perfect: float, max_rounds: int, project=lambda x: x):
    """At most ``max_rounds`` rounds of the module docstring from ``x``.
    ``columns(d_f, d_ln_y0)`` maps the solver's sensitivities to the Jacobian
    in x, ``penalty`` is the (matrix, right-hand side) stacked under the target
    rows, ``perfect`` the perfect-fit objective level, and ``project`` maps a
    solve's solution to the step's end. Returns the accepted objective values,
    the runs made, whether the search stopped by itself rather than on the
    cap, and the last accepted iterate and its run."""

    def run(x):
        psd = make_psd(x)[0]
        result, *jac = simulate(spec.drug, spec.morph, psd, spec.conditions,
                                output_grid_hr=spec.target.times_hr, _jacobian=True)
        return _misfit(psd, spec, result.profile), result, columns(*jac)

    scale = 1.0 / np.sqrt(spec.target.n_points)
    value, result, jac = run(x)
    history, evals, rounds, stopped = [value], 1, 0, value < perfect
    while not stopped and rounds < max_rounds:
        rounds += 1
        base = result.profile.released_pct
        solution = project(_bvls(
            np.vstack((scale * jac, penalty[0])),
            np.concatenate((scale * (spec.target.released_pct - base + jac @ x), penalty[1])),
            *bounds)[0])
        for step in _STEPS:
            candidate = x + step * (solution - x)
            cand_value, cand_result, cand_jac = run(candidate)
            evals += 1
            if cand_value < value:
                break
        else:                   # no step falls: stationary, unless the model is flat there
            return history, evals, bool(jac.any()), x, result
        stopped = (value - cand_value <= _RTOL * value or np.max(np.abs(candidate - x)) <= _XTOL
                   or cand_value < perfect)
        x, value, result, jac = candidate, cand_value, cand_result, cand_jac
        history.append(value)
    return history, evals, stopped, x, result


def _design_lognormal(spec: DesignSpec, seed: int, n_starts: int) -> DesignResult:
    param = spec.parameterization
    lb, ub = np.log(param.bounds).T

    def lognormal(z):
        d50, sigma = float(np.exp(z[0])), float(np.exp(z[1]))
        return (psd_from_lognormal(d50, sigma, param.n_bins),
                {"d50_um": d50, "geo_sigma": sigma, "n_bins": param.n_bins})

    def columns(d_f, d_ln_y0):
        # ln y0_i = 2 ln d50 + 2 u_i ln sigma
        u = lognormal_offsets(d_ln_y0.shape[1])
        return 2.0 * np.stack((d_ln_y0.sum(axis=1), d_ln_y0 @ u), axis=1)

    rng = np.random.default_rng(seed)
    z0 = np.clip(np.log([param.d50_um, param.geo_sigma]), lb, ub)
    starts = (rng.uniform(lb, ub) if i else z0 for i in range(n_starts))
    return _multi_start(spec, lognormal, starts, columns=columns, bounds=(lb, ub),
                        penalty=(np.empty((0, 2)), np.empty(0)), perfect=ROUNDING_OBJECTIVE,
                        max_rounds=_MAX_ROUNDS)


def _project(fractions: np.ndarray) -> np.ndarray:
    clipped = np.clip(fractions, 0.0, 1.0)
    total = clipped.sum()
    if total <= 0:
        raise ValidationError("projection produced an empty distribution")
    return clipped / total


def _design_free_bins(spec: DesignSpec, max_rounds: int) -> DesignResult:
    param = spec.parameterization
    sizes = param.sizes_um
    n = param.n
    # Roughness rows, then one row holding the sum at 1.
    rows = np.vstack((np.sqrt(_ROUGHNESS_WEIGHT) * np.diff(np.eye(n), n=2, axis=0),
                      np.full((1, n), _SUM_WEIGHT)))
    penalty = rows, np.append(np.zeros(len(rows) - 1), _SUM_WEIGHT)

    def free_bins(f):
        return SizeDistribution(sizes, f), {"sizes_um": sizes.tolist(), "fractions": f.tolist()}

    return _multi_start(spec, free_bins, [_project(np.full(n, 1.0 / n))],
                        columns=lambda d_f, d_ln_y0: d_f, bounds=(np.zeros(n), np.ones(n)),
                        project=_project, penalty=penalty, perfect=CONVERGED_OBJECTIVE,
                        max_rounds=max_rounds)


def _multi_start(spec: DesignSpec, make_psd, starts, **search) -> DesignResult:
    """Run ``_gauss_newton`` with the ``search`` arguments from each start in
    turn, skipping the rest after a numerically perfect fit, which cannot be
    beaten materially. The best start has the lowest value, then the fewest
    accepted steps, then the lowest index."""
    best, evaluations = None, 0      # ((value, steps, index), history, converged, x, result)
    for index, start in enumerate(starts):
        history, runs, converged, x, result = _gauss_newton(spec, make_psd, start, **search)
        evaluations += runs
        rank = (history[-1], len(history), index)
        if best is None or rank < best[0]:
            best = rank, history, converged, x, result
        if history[-1] < CONVERGED_OBJECTIVE:
            break
    (_, _, start_index), history, converged, x, result = best
    psd, parameters = make_psd(x)
    residual = spec.target.released_pct - result.profile.released_pct     # on the same grid
    return DesignResult(
        psd=psd, achieved=result.profile, residual_mse=float(np.mean(residual ** 2)),
        iterations=len(history) - 1, converged=bool(converged), parameters=parameters,
        objective_history=tuple(history), start_index=start_index,
        evaluations=evaluations)


def design_psd(spec: DesignSpec, *, seed: int = 0, n_starts: int = 4,
               max_iter_free: int = _MAX_ROUNDS) -> DesignResult:
    """Find a size distribution whose simulated release matches the target.

    A log-normal design runs ``n_starts`` bounded Gauss-Newton searches, the
    first from the parameterization's own values and the rest from ``seed``'s
    draws within its bounds, each of at most ``_MAX_ROUNDS`` rounds; starts
    after one that fits below ``CONVERGED_OBJECTIVE`` are skipped. The best
    residual wins, ties broken by fewer iterations then lower start index. A
    free-bin design runs one search of at most ``max_iter_free`` rounds from
    uniform fractions, each kept in [0, 1]. A round is one least-squares solve
    and its step trials. ``converged`` is True when the chosen search stopped
    by itself (module docstring); one that reached its cap returns its last
    accepted iterate with ``converged=False``.
    """
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if spec.is_lognormal:
        return _design_lognormal(spec, seed, n_starts)
    return _design_free_bins(spec, max_iter_free)


def design_report(result: DesignResult, spec: DesignSpec) -> str:
    """Human-readable design summary with the achieved-vs-target table."""
    ssa, vol_eq = derived_metrics(result.psd, spec.morph, spec.drug)
    lines = ["designed particle size distribution", "-" * 36]
    lines.append(f"d50: {result.psd.d50_um:.4g} um")
    if "geo_sigma" in result.parameters:
        lines.append(f"geometric standard deviation: {result.parameters['geo_sigma']:.4g}")
    else:
        lines.append("bin table (size um, mass fraction):")
        for x, f in zip(result.psd.sizes_um, result.psd.fractions):
            lines.append(f"  {x:10.3f}  {f:.6f}")
    lines.append(f"derived specific surface area: {ssa:.4g} m^2/g")
    lines.append(f"derived volume-equivalent size: {vol_eq:.4g} um")
    lines.append(f"residual MSE: {result.residual_mse:.6g} %^2")
    lines.append(f"iterations: {result.iterations} (converged: {result.converged})")
    lines.append("")
    lines.append(f"{'time_hr':>8} {'target_pct':>11} {'achieved_pct':>13}")
    for t, y in zip(spec.target.times_hr, spec.target.released_pct):
        lines.append(f"{t:>8g} {y:>11.3f} {result.achieved.released_at(float(t)):>13.3f}")
    return "\n".join(lines) + "\n"
