"""Inverse design: recover a size distribution matching a target release curve.

The fit criterion is the release-curve MSE on the target's time grid plus,
for free-bin distributions, a second-difference roughness penalty that tames
the ill-posedness (many distributions produce near-identical curves).

Two parameterizations are supported: log-normal (d50, geo_sigma), fitted in
the log-transformed parameters, and free mass fractions on a fixed geometric
size grid. Both run the same bounded Gauss-Newton rounds. Each round models
released % as base + J (x' - x), solves one bounded linear least-squares
problem (BVLS) for x' with the target rows stacked on the penalty rows (for
free bins the roughness and a row holding the fractions' sum at 1), and
steps toward the projected solution, halving the step until the objective
falls. J comes from forward differences along unit vectors; free-bin rounds
first try the reduced-time clock of the last run held, under which released
% is 100 (1 - R f) with R[k, i] = (x_i(t_k) / x0_i)^3, and switch to finite
differences once no step toward that solution falls (a saturating dose,
where the clock moves strongly with f).

A search stops by itself, converged, when a finite-difference round finds
no falling step, when an accepted step lowers the objective by at most 1e-6
relative or moves no coordinate by more than 1e-12, or, for free bins only,
once the objective is below ``CONVERGED_OBJECTIVE``. Every accepted iterate
has a non-increasing objective, and identical specs plus seed give
bit-identical results.
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
#: Weight of the least-squares row that holds the free-bin fractions' sum at 1.
_SUM_WEIGHT = 1e3
#: Steps toward a round's least-squares solution, as shares of the way, tried in turn.
_STEPS = 0.5 ** np.arange(7)
#: Finite-difference step on x_j, times max(1, |x_j|).
_FD_STEP = 1e-7
#: A search stops once an accepted step lowers the objective by at most
#: _RTOL of its value or moves no coordinate by more than _XTOL.
_RTOL = 1e-6
_XTOL = 1e-12


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
    """Runs one start's distributions, recording the best-so-far (accepted)
    objective sequence and the best run's argument and simulation."""

    def __init__(self, spec: DesignSpec, make_psd):
        self.spec, self.make_psd = spec, make_psd
        self.accepted: list[float] = []
        self.best_args = self.best_result = None
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        spec, psd = self.spec, self.make_psd(x)[0]
        result = simulate(spec.drug, spec.morph, psd, spec.conditions,
                          output_grid_hr=spec.target.times_hr)
        value = _misfit(psd, spec, result.profile)
        if not self.accepted or value < self.accepted[-1]:
            self.accepted.append(value)
            self.best_args, self.best_result = np.array(x, dtype=float), result
        return value, result


def _gauss_newton(tracker: _AcceptTracker, x, bounds, project, penalty, held_clock: bool,
                  perfect: float, max_rounds: float, max_evals: float) -> bool:
    """The rounds of the module docstring from ``x``, which the tracker has
    just run; returns whether the search stopped by itself rather than on a
    cap. ``penalty`` is the (matrix, right-hand side) stacked under the
    target rows, and ``perfect`` the perfect-fit objective level."""
    from scipy.optimize import lsq_linear

    spec = tracker.spec
    scale = 1.0 / np.sqrt(spec.target.n_points)
    value, result, rounds = tracker.accepted[-1], tracker.best_result, 0
    while rounds < max_rounds:
        rounds += 1
        base = result.profile.released_pct
        if held_clock:
            jac = -100.0 * (result.sizes_m / result.sizes_m[0]) ** 3
        else:
            jac = np.empty((base.size, x.size))
            for j, h in enumerate(_FD_STEP * np.maximum(1.0, np.abs(x))):
                if tracker.evals >= max_evals:
                    return False
                jac[:, j] = (tracker(x + h * np.eye(x.size)[j])[1].profile.released_pct - base) / h
        solution = project(lsq_linear(
            np.vstack((scale * jac, penalty[0])),
            np.concatenate((scale * (spec.target.released_pct - base + jac @ x), penalty[1])),
            bounds=bounds, method="bvls").x)
        for step in _STEPS:
            if tracker.evals >= max_evals:
                return False
            candidate = x + step * (solution - x)
            cand_value, cand_result = tracker(candidate)
            if cand_value < value:
                break
        else:
            if not held_clock:
                return True
            held_clock = False          # the clock moves with x: take its response too
            continue
        if (value - cand_value <= _RTOL * value or np.max(np.abs(candidate - x)) <= _XTOL
                or cand_value < perfect):
            return True
        x, value, result = candidate, cand_value, cand_result
    return False


def _design_lognormal(spec: DesignSpec, seed: int, n_starts: int,
                      max_evals_per_start: int) -> DesignResult:
    param = spec.parameterization
    (d50_lo, d50_hi), (sig_lo, sig_hi) = spec.bounds
    if sig_lo < 1.0:
        raise ConfigurationError("geo_sigma lower bound must be >= 1")
    lb = np.log([d50_lo, sig_lo])
    ub = np.log([d50_hi, sig_hi])

    def lognormal(z):
        d50, sigma = float(np.exp(z[0])), float(np.exp(z[1]))
        return (psd_from_lognormal(d50, sigma, param.n_bins),
                {"d50_um": d50, "geo_sigma": sigma, "n_bins": param.n_bins})

    rng = np.random.default_rng(seed)
    z0 = np.clip(np.log([param.d50_um, param.geo_sigma]), lb, ub)
    starts = [z0] + [rng.uniform(lb, ub) for _ in range(n_starts - 1)]
    return _multi_start(spec, lognormal, starts, bounds=(lb, ub),
                        project=lambda z: np.clip(z, lb, ub),
                        penalty=(np.empty((0, 2)), np.empty(0)), held_clock=False,
                        perfect=0.0, max_rounds=np.inf, max_evals=max_evals_per_start)


def _project(fractions: np.ndarray, bounds) -> np.ndarray:
    lo, hi = np.array(bounds, dtype=float).T
    clipped = np.clip(fractions, np.maximum(lo, 0.0), hi)
    total = clipped.sum()
    if total <= 0:
        raise ValidationError("projection produced an empty distribution")
    return clipped / total


def _design_free_bins(spec: DesignSpec, seed: int, n_starts: int,
                      max_rounds: int) -> DesignResult:
    param = spec.parameterization
    sizes = param.sizes_um
    n = param.n
    # Roughness rows, then one row holding the sum at 1.
    rows = np.vstack((np.sqrt(spec.regularization_weight) * np.diff(np.eye(n), n=2, axis=0),
                      np.full((1, n), _SUM_WEIGHT)))
    penalty = rows, np.append(np.zeros(len(rows) - 1), _SUM_WEIGHT)

    def free_bins(f):
        f = f / f.sum()       # finite-difference probes leave the simplex
        return SizeDistribution(sizes, f), {"sizes_um": sizes.tolist(), "fractions": f.tolist()}

    rng = np.random.default_rng(seed)
    f0 = param.fractions if param.fractions is not None else np.full(n, 1.0 / n)
    starts = [_project(f, spec.bounds)
              for f in [f0] + [rng.dirichlet(np.ones(n)) for _ in range(n_starts - 1)]]
    return _multi_start(spec, free_bins, starts, bounds=np.array(spec.bounds).T,
                        project=lambda f: _project(f, spec.bounds), penalty=penalty,
                        held_clock=True, perfect=CONVERGED_OBJECTIVE, max_rounds=max_rounds,
                        max_evals=np.inf)


def _multi_start(spec: DesignSpec, make_psd, starts, **search) -> DesignResult:
    """Run ``_gauss_newton`` with the ``search`` arguments from each start in
    turn, skipping the rest after a numerically perfect fit, which cannot be
    beaten materially. The best start has the lowest value, then the fewest
    accepted steps, then the lowest index."""
    trackers, converged = [], []
    for start in starts:
        tracker = _AcceptTracker(spec, make_psd)
        trackers.append(tracker)
        converged.append(tracker(start)[0] < CONVERGED_OBJECTIVE
                         or _gauss_newton(tracker, start, **search))
        if tracker.accepted[-1] < CONVERGED_OBJECTIVE:
            break
    start_index = min(range(len(trackers)), key=lambda i: (
        trackers[i].accepted[-1], len(trackers[i].accepted), i))
    tracker = trackers[start_index]
    psd, parameters = make_psd(tracker.best_args)
    achieved = tracker.best_result.profile
    return DesignResult(
        psd=psd, achieved=achieved, residual_mse=mse(align_profiles(spec.target, achieved)),
        iterations=len(tracker.accepted) - 1, converged=converged[start_index],
        parameters=parameters, objective_history=tuple(tracker.accepted),
        start_index=start_index, evaluations=sum(t.evals for t in trackers))


def design_psd(spec: DesignSpec, *, seed: int = 0, n_starts: int = 4,
               max_evals_per_start: int = 160, max_iter_free: int = 40
               ) -> DesignResult:
    """Find a size distribution whose simulated release matches the target.

    Multi-start bounded Gauss-Newton (``n_starts`` seeded starts, the first
    being the parameterization's own values); starts after one that fits
    below ``CONVERGED_OBJECTIVE`` are skipped. The best residual wins, ties
    broken by fewer iterations then lower start index. ``converged`` is True
    when the chosen start's search stopped by itself (see the module
    docstring): for a free-bin design that means the objective fell below
    ``CONVERGED_OBJECTIVE`` or stalled, roughness penalty included. The caps
    differ by parameterization: ``max_evals_per_start`` caps the simulations
    of each log-normal start, finite-difference runs included, and
    ``max_iter_free`` caps the rounds of each free-bin start (held-clock and
    finite-difference rounds alike); neither applies to the other kind.
    Hitting a cap first returns the best-so-far result with
    ``converged=False`` rather than raising.
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
