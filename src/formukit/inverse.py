"""Inverse design: recover a size distribution matching a target release curve.

The fit criterion is the release-curve MSE on the target's time grid plus,
for free-bin distributions, a second-difference roughness penalty that tames
the ill-posedness (many distributions produce near-identical curves).

Two parameterizations are supported:

* log-normal (d50, geo_sigma): bounded nonlinear least squares (trust-region
  reflective, finite-difference Jacobian) on the release residuals over the
  log-transformed parameters; the parameterization's own values double as
  the starting point, and additional seeded starts guard against local minima.
* free bins on a fixed geometric size grid: a damped fixed point. With the
  reduced-time clock of the last run held, released % is 100 (1 - R f) with
  R[k, i] = (x_i(t_k) / x0_i)^3, so the fit is one bounded linear
  least-squares solve; each round steps toward its solution, halving the
  step until the true objective falls. Once no step falls (a saturating
  dose, where the clock moves strongly with f), the rounds linearize with a
  finite-difference Jacobian instead (Gauss-Newton). Fractions are clipped
  to bounds and renormalized to sum to 1.

Every accepted iterate has a non-increasing objective, and identical specs
plus seed give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dissolution import derived_metrics, psd_from_lognormal, simulate, simulate_dissolution
from .errors import ConfigurationError, ValidationError
from .evaluate import align_profiles, mse
from .types import (
    DissolutionConditions,
    DissolutionProfile,
    DrugSubstance,
    ParticleMorphology,
    SizeDistribution,
)

#: Objective level treated as a perfect fit [%^2].
CONVERGED_OBJECTIVE = 1e-3
#: Relative improvement over the last 5 accepted iterates below which a
#: free-bin search is considered converged.
CONVERGED_RELATIVE_DECREASE = 1e-6
#: Weight of the least-squares row that holds the free-bin fractions' sum at 1.
_SUM_WEIGHT = 1e3
#: Steps toward a round's least-squares solution, as shares of the way, tried in turn.
_STEPS = 0.5 ** np.arange(7)
#: Finite-difference step on the free-bin fractions, once the held clock stalls.
_FD_STEP = 1e-4
#: Relative finite-difference step on the log-normal's log parameters.
_DIFF_STEP = 1e-7
#: ftol, xtol and gtol of the log-normal least-squares solve; this tight, an
#: exact target is recovered to rounding for about three more simulations.
_TOL = 1e-12


class _OutOfRuns(Exception):
    """A log-normal start has used its ``max_evals_per_start`` simulations."""


@dataclass(frozen=True)
class LognormalParameterization:
    """Log-normal family; the values given here are the optimizer's start."""

    d50_um: float
    geo_sigma: float
    n_bins: int = 50


@dataclass(frozen=True)
class FreeBinsParameterization:
    """Mass fractions on a fixed geometric size grid."""

    sizes_um: np.ndarray
    fractions: np.ndarray | None = None     # uniform start when omitted

    def __post_init__(self):
        sizes = np.asarray(self.sizes_um, dtype=float)
        object.__setattr__(self, "sizes_um", sizes)
        if self.fractions is not None:
            fr = np.asarray(self.fractions, dtype=float)
            object.__setattr__(self, "fractions", fr)
            if fr.shape != sizes.shape:
                raise ConfigurationError("fractions must match the size grid")

    @classmethod
    def geometric(cls, n: int, x_min_um: float, x_max_um: float
                  ) -> "FreeBinsParameterization":
        if not (0 < x_min_um < x_max_um):
            raise ConfigurationError("need 0 < x_min < x_max")
        return cls(np.geomspace(x_min_um, x_max_um, n))

    @property
    def n(self) -> int:
        return int(self.sizes_um.size)


DEFAULT_LOGNORMAL_BOUNDS = ((5.0, 1000.0), (1.01, 3.0))


@dataclass
class DesignSpec:
    """Everything the inverse solver needs: target, physics, knobs."""

    target: DissolutionProfile
    drug: DrugSubstance
    morph: ParticleMorphology = field(default_factory=ParticleMorphology)
    conditions: DissolutionConditions = field(default_factory=DissolutionConditions)
    parameterization: LognormalParameterization | FreeBinsParameterization = field(
        default_factory=lambda: LognormalParameterization(100.0, 1.5))
    bounds: tuple | None = None              # per optimized parameter (lo, hi)
    regularization_weight: float = 1e-2      # roughness weight, free bins only

    def __post_init__(self):
        if self.target.n_points < 2:
            raise ConfigurationError("target must have at least 2 points")
        if not self.target.starts_at_zero:
            raise ConfigurationError("target profile must start at (0, 0)")
        if self.regularization_weight < 0:
            raise ConfigurationError("regularization_weight must be >= 0")
        if self.bounds is None:
            if isinstance(self.parameterization, LognormalParameterization):
                self.bounds = DEFAULT_LOGNORMAL_BOUNDS
            else:
                self.bounds = ((0.0, 1.0),) * self.parameterization.n
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigurationError(f"infeasible bound ({lo}, {hi})")

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
    value = mse(align_profiles(spec.target, achieved))
    if not spec.is_lognormal:
        value += spec.regularization_weight * roughness(psd)
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


class _AcceptTracker:
    """Wraps a run returning (objective, release profile), recording the
    best-so-far (accepted) sequence and the best run's argument and profile."""

    def __init__(self, fun):
        self.fun = fun
        self.accepted: list[float] = []
        self.best_args = self.best_achieved = None
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        value, achieved = self.fun(x)
        if not self.accepted or value < self.accepted[-1]:
            self.accepted.append(value)
            self.best_args, self.best_achieved = np.array(x, dtype=float), achieved
        return value

    @property
    def converged(self) -> bool:
        if not self.accepted:
            return False
        if self.accepted[-1] < CONVERGED_OBJECTIVE:
            return True
        if len(self.accepted) >= 5:
            prev, last = self.accepted[-5], self.accepted[-1]
            return (prev - last) <= CONVERGED_RELATIVE_DECREASE * max(prev, 1e-30)
        return False


def _design_lognormal(spec: DesignSpec, seed: int, n_starts: int,
                      max_evals_per_start: int) -> DesignResult:
    from scipy.optimize import least_squares

    param = spec.parameterization
    (d50_lo, d50_hi), (sig_lo, sig_hi) = spec.bounds
    if sig_lo < 1.0:
        raise ConfigurationError("geo_sigma lower bound must be >= 1")
    lb = np.log([d50_lo, sig_lo])
    ub = np.log([d50_hi, sig_hi])
    scale = 1.0 / np.sqrt(spec.target.n_points)
    residual = None           # of the last run; its sum of squares is the MSE

    def lognormal(z):
        d50, sigma = float(np.exp(z[0])), float(np.exp(z[1]))
        return (psd_from_lognormal(d50, sigma, param.n_bins),
                {"d50_um": d50, "geo_sigma": sigma, "n_bins": param.n_bins})

    def run(z):
        nonlocal residual
        psd = lognormal(z)[0]
        achieved = simulate_dissolution(spec.drug, spec.morph, psd, spec.conditions,
                                        output_grid_hr=spec.target.times_hr)
        residual = scale * (achieved.released_pct - spec.target.released_pct)
        return _misfit(psd, spec, achieved), achieved

    rng = np.random.default_rng(seed)
    z0 = np.clip(np.log([param.d50_um, param.geo_sigma]), lb, ub)
    starts = [z0] + [rng.uniform(lb, ub) for _ in range(n_starts - 1)]

    def trust_region(tracker, start):
        start_residual = residual             # the tracker has just run the start

        def residuals(z):
            if np.array_equal(z, start):      # least_squares evaluates its x0 again
                return start_residual
            if tracker.evals >= max_evals_per_start:     # Jacobian runs count too
                raise _OutOfRuns
            tracker(z)
            return residual

        try:
            return least_squares(residuals, start, bounds=(lb, ub), method="trf",
                                 diff_step=_DIFF_STEP, ftol=_TOL, xtol=_TOL, gtol=_TOL).status > 0
        except _OutOfRuns:
            return False

    return _multi_start(spec, run, starts, trust_region, lognormal)


def _project(fractions: np.ndarray, bounds) -> np.ndarray:
    lo, hi = np.array(bounds, dtype=float).T
    clipped = np.clip(fractions, np.maximum(lo, 0.0), hi)
    total = clipped.sum()
    if total <= 0:
        raise ValidationError("projection produced an empty distribution")
    return clipped / total


def _design_free_bins(spec: DesignSpec, seed: int, n_starts: int,
                      max_rounds: int) -> DesignResult:
    from scipy.optimize import lsq_linear

    param = spec.parameterization
    sizes = param.sizes_um
    n = param.n
    # Release rows go on top of the roughness rows and one row holding the sum at 1.
    scale = 1.0 / np.sqrt(spec.target.n_points)
    penalty = np.vstack((np.sqrt(spec.regularization_weight) * np.diff(np.eye(n), n=2, axis=0),
                         np.full((1, n), _SUM_WEIGHT)))
    penalty_rhs = np.append(np.zeros(len(penalty) - 1), _SUM_WEIGHT)
    released = remaining = None       # of the last run: released %, mass share left per bin

    def run(fractions):
        nonlocal released, remaining
        psd = SizeDistribution(sizes, fractions)
        result = simulate(spec.drug, spec.morph, psd, spec.conditions,
                          output_grid_hr=spec.target.times_hr)
        released, remaining = result.profile.released_pct, (result.sizes_m / result.sizes_m[0]) ** 3
        return _misfit(psd, spec, result.profile), result.profile

    rng = np.random.default_rng(seed)
    f0 = param.fractions if param.fractions is not None else np.full(n, 1.0 / n)
    starts = [_project(f, spec.bounds)
              for f in [f0] + [rng.dirichlet(np.ones(n)) for _ in range(n_starts - 1)]]

    def fixed_point(tracker, current):
        value, base = tracker.accepted[-1], released
        exact = False                 # set once the held clock stalls
        for _ in range(max_rounds):
            if tracker.converged:
                break
            # Each round fits released % ~ offset + jac @ f. With the clock of
            # the current run held, that is 100 - 100 remaining @ f. Once that
            # stops giving a descent step, the clock's response is taken too:
            # on the simplex f' - f = sum_j f'_j (e_j - f), so the columns are
            # finite differences along e_j - f (a Gauss-Newton step).
            if exact:
                offset, jac = base, np.empty((base.size, n))
                for j in range(n):
                    tracker.evals += 1
                    run((current + _FD_STEP * np.eye(n)[j]) / (1.0 + _FD_STEP))
                    jac[:, j] = (released - base) * (1.0 + _FD_STEP) / _FD_STEP
            else:
                offset, jac = 100.0, -100.0 * remaining
            solution = _project(lsq_linear(
                np.vstack((scale * jac, penalty)),
                np.concatenate(((spec.target.released_pct - offset) * scale, penalty_rhs)),
                bounds=np.array(spec.bounds).T, method="bvls").x, spec.bounds)
            # The clock moves with f, so step toward the solution only as far
            # as the true objective falls.
            for step in _STEPS:
                candidate = current + step * (solution - current)
                cand_value = tracker(candidate)
                if cand_value < value:
                    current, value, base = candidate, cand_value, released
                    break
            else:
                if exact:
                    break
                exact = True
        return tracker.converged

    return _multi_start(spec, run, starts, fixed_point, lambda f: (
        SizeDistribution(sizes, f), {"sizes_um": sizes.tolist(), "fractions": f.tolist()}))


def _multi_start(spec: DesignSpec, fun, starts, search, make_psd) -> DesignResult:
    """Run ``search(tracker, start)``, which returns whether it converged,
    from each start in turn, skipping the rest after a numerically perfect
    fit, which cannot be beaten materially. The best start has the lowest
    value, then the fewest accepted steps, then the lowest index."""
    trackers, converged = [], []
    for start in starts:
        tracker = _AcceptTracker(fun)
        trackers.append(tracker)
        converged.append(tracker(start) < CONVERGED_OBJECTIVE or search(tracker, start))
        if tracker.accepted[-1] < CONVERGED_OBJECTIVE:
            break
    start_index = min(range(len(trackers)), key=lambda i: (
        trackers[i].accepted[-1], len(trackers[i].accepted), i))
    tracker = trackers[start_index]
    psd, parameters = make_psd(tracker.best_args)
    achieved = tracker.best_achieved
    return DesignResult(
        psd=psd, achieved=achieved, residual_mse=mse(align_profiles(spec.target, achieved)),
        iterations=len(tracker.accepted) - 1, converged=converged[start_index],
        parameters=parameters, objective_history=tuple(tracker.accepted),
        start_index=start_index, evaluations=sum(t.evals for t in trackers))


def design_psd(spec: DesignSpec, *, seed: int = 0, n_starts: int = 4,
               max_evals_per_start: int = 160, max_iter_free: int = 40
               ) -> DesignResult:
    """Find a size distribution whose simulated release matches the target.

    Multi-start least squares (``n_starts`` seeded starts, the first being
    the parameterization's own values); the best residual wins, ties broken
    by fewer iterations then lower start index. ``max_evals_per_start`` caps
    the simulations of each log-normal start, finite-difference Jacobian runs
    included; ``max_iter_free`` caps the least-squares rounds of each
    free-bin start (held-clock and finite-difference rounds alike). A
    log-normal design has converged when the solve stops on its own
    tolerance, a free-bin design when the accepted objective stalls. Hitting
    a cap first returns the best-so-far result with ``converged=False``
    rather than raising.
    """
    if n_starts < 1:
        raise ConfigurationError("n_starts must be >= 1")
    if spec.is_lognormal:
        return _design_lognormal(spec, seed, n_starts, max_evals_per_start)
    return _design_free_bins(spec, seed, n_starts, max_iter_free)


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
