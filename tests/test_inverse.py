import numpy as np
import pytest

from formukit import inverse
from formukit.dissolution import derived_metrics, psd_from_lognormal, simulate_dissolution
from formukit.errors import ValidationError
from formukit.evaluate import align_profiles, mse
from formukit.inverse import (
    ROUNDING_OBJECTIVE,
    DesignSpec,
    FreeBinsParameterization,
    LognormalParameterization,
    design_psd,
    design_report,
    objective,
    roughness,
)
from formukit.types import DissolutionConditions, DissolutionProfile, SizeDistribution


@pytest.fixture
def round_trip_target(drug, sphere, conditions):
    return simulate_dissolution(drug, sphere, psd_from_lognormal(120.0, 1.6, 50), conditions)


class TestObjective:
    def test_truth_scores_zero(self, drug, sphere, conditions, round_trip_target):
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions,
                          parameterization=LognormalParameterization(120.0, 1.6))
        value = objective(psd_from_lognormal(120.0, 1.6, 50), spec)
        assert value <= 1e-4

    def test_uniform_free_bins_scores_worse(self, drug, sphere, conditions, round_trip_target):
        param = FreeBinsParameterization.geometric(12, 30.0, 400.0)
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions, parameterization=param)
        uniform = SizeDistribution(param.sizes_um, np.full(12, 1 / 12))
        assert objective(uniform, spec) > 1e-4

    def test_regularization_term(self, drug, sphere, conditions, round_trip_target):
        # A free-bin objective is the release MSE plus 1e-2 times the roughness.
        param = FreeBinsParameterization.geometric(12, 30.0, 400.0)
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions, parameterization=param)
        spiky = np.zeros(12)
        spiky[3] = 1.0
        psd = SizeDistribution(param.sizes_um, spiky)
        achieved = simulate_dissolution(drug, sphere, psd, conditions,
                                        output_grid_hr=round_trip_target.times_hr)
        assert objective(psd, spec) == pytest.approx(
            mse(align_profiles(round_trip_target, achieved)) + 1e-2 * roughness(psd))

    def test_roughness_of_smooth_distribution(self):
        psd = psd_from_lognormal(100.0, 1.5, 20)
        assert 0.0 <= roughness(psd) < roughness(
            SizeDistribution(psd.sizes_um, np.eye(20)[7]))


class TestDesignLognormal:
    def test_fixed_point_returns_initial_guess(self, drug, sphere, conditions):
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(300.0, 1.2, 50),
                                      conditions)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(300.0, 1.2))
        result = design_psd(spec, seed=0)
        assert result.iterations <= 1
        assert result.converged
        assert result.parameters["d50_um"] == pytest.approx(300.0)
        assert result.parameters["geo_sigma"] == pytest.approx(1.2)
        assert result.residual_mse <= 1e-6

    def test_starts_after_a_fit_are_never_drawn(self, drug, sphere, conditions):
        # The first start fits exactly, so the other 10**9 - 1 cost nothing.
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(300.0, 1.2, 12),
                                      conditions)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(300.0, 1.2, n_bins=12))
        one = design_psd(spec, seed=0, n_starts=1)
        many = design_psd(spec, seed=0, n_starts=10**9)
        for name in ("objective_history", "evaluations", "parameters", "iterations",
                     "converged", "start_index", "residual_mse"):
            assert getattr(one, name) == getattr(many, name), name

    def test_round_trip_recovery(self, drug, sphere, conditions, round_trip_target):
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions,
                          parameterization=LognormalParameterization(300.0, 1.2))
        result = design_psd(spec, seed=0)
        assert result.residual_mse < 1.0
        assert abs(result.parameters["d50_um"] - 120.0) <= 0.15 * 120.0
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 0.0)

    @pytest.mark.parametrize("true_d50,true_sigma", [(30.0, 1.25), (250.0, 1.9)])
    def test_identifiability_across_desk_scale(self, drug, sphere, conditions,
                                               true_d50, true_sigma):
        target = simulate_dissolution(
            drug, sphere, psd_from_lognormal(true_d50, true_sigma, 50), conditions)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(100.0, 1.5))
        result = design_psd(spec, seed=0, n_starts=1)
        assert result.residual_mse < 1.0

    def test_determinism(self, drug, sphere, conditions):
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(90.0, 1.4, 15),
                                      conditions, (0.0, 0.5, 1.0, 2.0))
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(150.0, 1.5, n_bins=15))
        a = design_psd(spec, seed=7, n_starts=2)
        b = design_psd(spec, seed=7, n_starts=2)
        assert a.parameters == b.parameters
        assert a.objective_history == b.objective_history
        assert a.iterations == b.iterations

    def test_eval_cap_returns_best_so_far(self, drug, sphere, conditions, round_trip_target,
                                          monkeypatch):
        monkeypatch.setattr(inverse, "_MAX_ROUNDS", 2)
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions,
                          parameterization=LognormalParameterization(300.0, 1.2))
        result = design_psd(spec, seed=0, n_starts=1)
        assert not result.converged
        assert result.residual_mse >= 0.0
        assert len(result.objective_history) >= 1

    @pytest.mark.parametrize("dose", [10.0, 600.0])
    def test_exact_recovery(self, drug, sphere, dose):
        # The truth fits exactly, so the solve must return it, not a point
        # near it; 600 mg saturates the vessel (cap 67.5 %).
        cond = DissolutionConditions(dose_mg=dose)
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(220.0, 1.6, 12), cond)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=cond,
                          parameterization=LognormalParameterization(330.0, 1.5, n_bins=12))
        result = design_psd(spec, seed=0)
        assert result.converged
        assert result.parameters["d50_um"] == pytest.approx(220.0, rel=1e-6)
        assert result.parameters["geo_sigma"] == pytest.approx(1.6, rel=1e-6)

    def test_start_near_the_target_still_moves(self, drug, sphere):
        # A start already within 1e-3 %^2 of the target is not yet a log-normal fit:
        # the search goes on to the rounding level.
        cond = DissolutionConditions(dose_mg=10.0)
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(90.0, 1.6, 50), cond)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=cond,
                          parameterization=LognormalParameterization(100.0, 1.5))
        result = design_psd(spec, seed=0)
        assert result.converged
        assert result.residual_mse <= ROUNDING_OBJECTIVE
        assert result.parameters["d50_um"] == pytest.approx(90.0, rel=1e-6)
        assert result.parameters["geo_sigma"] == pytest.approx(1.6, rel=1e-6)

    @pytest.mark.parametrize("true_d50, true_sigma, start", [
        (180.0, 1.4, 1.5), (180.0, 1.4, 1 / 1.5), (320.0, 1.6, 1.5), (320.0, 1.6, 1 / 1.5)])
    def test_simulation_count(self, drug, sphere, conditions, true_d50, true_sigma, start):
        # Corners of a 12-bin target with d50 180-320 um and sigma 1.4-1.6,
        # started 1.5x off in d50: about one run per Gauss-Newton step.
        target = simulate_dissolution(drug, sphere,
                                      psd_from_lognormal(true_d50, true_sigma, 12), conditions)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(start * true_d50, 1.5,
                                                                     n_bins=12))
        assert design_psd(spec, seed=0).evaluations <= 15

    def test_infeasible_bounds(self, drug, sphere, conditions, round_trip_target):
        with pytest.raises(ValidationError):
            DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                       conditions=conditions,
                       parameterization=LognormalParameterization(
                           100.0, 1.5, bounds=((500.0, 100.0), (1.05, 2.0))))

    @pytest.mark.parametrize("bounds", [
        ((0.0, 100.0), (1.05, 2.0)), ((-5.0, 100.0), (1.05, 2.0)), ((5.0, np.inf), (1.05, 2.0)),
        ((5.0, 100.0), (1.05, np.inf)), ((5.0, 100.0), (0.5, 2.0)), ((np.nan, 100.0), (1.05, 2.0)),
        ((5.0, 100.0),)])
    def test_unusable_bounds_rejected_at_construction(self, drug, sphere, conditions,
                                                      round_trip_target, bounds):
        with pytest.raises(ValidationError):
            DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                       conditions=conditions,
                       parameterization=LognormalParameterization(100.0, 1.5, bounds=bounds))

    def test_measured_exemplar_recovery(self, drug, sphere, example_records):
        # The measured 45 um exemplar plateaus near 88%; representing that
        # plateau as solubility-limited release (dose ~ c_sat*V / 0.885) and
        # calibrating the slip velocity lets the fit recover the exemplar's
        # own size scale.
        target = example_records[0].profile
        cond = DissolutionConditions(velocity_factor=0.1, dose_mg=457.6)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=cond,
                          parameterization=LognormalParameterization(
                              60.0, 1.5, bounds=((5.0, 1000.0), (1.05, 2.0))))
        result = design_psd(spec, seed=0, n_starts=1)
        d50 = result.parameters["d50_um"]
        assert 20.0 <= d50 <= 90.0
        t85 = float(np.interp(85.0, result.achieved.released_pct,
                              result.achieved.times_hr))
        assert t85 <= 1.0
        assert result.residual_mse < 1.0

    def test_result_respects_bounds(self, drug, sphere, conditions, round_trip_target):
        bounds = ((50.0, 200.0), (1.1, 2.0))
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions,
                          parameterization=LognormalParameterization(60.0, 1.2, bounds=bounds))
        result = design_psd(spec, seed=1, n_starts=1)
        assert bounds[0][0] <= result.parameters["d50_um"] <= bounds[0][1]
        assert bounds[1][0] <= result.parameters["geo_sigma"] <= bounds[1][1]


class TestDesignFreeBins:
    @pytest.fixture
    def small_target(self, drug, sphere, conditions):
        grid = (0.0, 0.25, 0.5, 1.0, 2.0)
        return simulate_dissolution(drug, sphere, psd_from_lognormal(90.0, 1.4, 10),
                                    conditions, grid)

    def test_descent_improves_and_stays_feasible(self, drug, sphere, conditions, small_target):
        param = FreeBinsParameterization.geometric(10, 30.0, 300.0)
        spec = DesignSpec(target=small_target, drug=drug, morph=sphere,
                          conditions=conditions, parameterization=param)
        result = design_psd(spec, seed=0, n_starts=1, max_iter_free=4)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 0.0)
        assert len(history) >= 2                      # at least one improvement
        assert result.psd.fractions.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(result.psd.fractions >= 0.0)
        assert np.all(result.psd.fractions <= 1.0)

    @pytest.mark.parametrize("dose, d50, sigma, bound", [
        (600.0, 200.0, 1.6, 1e-2), (600.0, 300.0, 1.6, 5e-3), (1000.0, 300.0, 1.3, 5e-3),
        (1500.0, 500.0, 1.5, 2e-3)])
    def test_saturating_dose_converges(self, drug, sphere, dose, d50, sigma, bound):
        # Past the capacity the clock depends strongly on the fractions, so
        # the Jacobian must carry its response: at 1000 mg no step toward the
        # held-clock solution improves at all.
        saturating = DissolutionConditions(dose_mg=dose)
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(d50, sigma, 12),
                                      saturating)
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=saturating,
                          parameterization=FreeBinsParameterization.geometric(12, 40.0, 1500.0))
        result = design_psd(spec, seed=0, n_starts=1)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] < bound
        assert result.residual_mse < bound
        if dose == 1000.0:
            assert result.evaluations <= 20

    def test_determinism(self, drug, sphere, conditions, small_target):
        param = FreeBinsParameterization.geometric(8, 30.0, 300.0)
        spec = DesignSpec(target=small_target, drug=drug, morph=sphere,
                          conditions=conditions, parameterization=param)
        a = design_psd(spec, seed=3, n_starts=1, max_iter_free=3)
        b = design_psd(spec, seed=3, n_starts=1, max_iter_free=3)
        assert a.parameters == b.parameters
        assert a.objective_history == b.objective_history

    def test_one_search_whatever_the_seed_and_starts(self, drug, sphere, conditions):
        # A target with +-1 pp of noise, which the uniform start's search fits
        # to about 0.35 %^2 only: seed and n_starts still change nothing.
        clean = simulate_dissolution(drug, sphere, psd_from_lognormal(200.0, 1.6, 12), conditions)
        noise = -(-1.0) ** np.arange(clean.n_points)
        noise[0] = 0.0
        target = DissolutionProfile(clean.times_hr,
                                    np.clip(clean.released_pct + noise, 0.0, 100.0))
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=FreeBinsParameterization.geometric(12, 40.0, 1500.0))
        a = design_psd(spec, seed=0, n_starts=1)
        b = design_psd(spec, seed=5, n_starts=4)
        assert a.objective_history[-1] > 1e-3
        for name in ("objective_history", "evaluations", "parameters", "iterations",
                     "converged", "start_index", "residual_mse"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.psd.fractions, b.psd.fractions)
        assert np.array_equal(a.achieved.released_pct, b.achieved.released_pct)


class TestEvaluationCount:
    @pytest.mark.parametrize("param, kwargs, dose", [
        pytest.param(LognormalParameterization(300.0, 1.2, n_bins=12),
                     dict(n_starts=2), None, id="lognormal"),
        pytest.param(FreeBinsParameterization.geometric(6, 30.0, 300.0),
                     dict(max_iter_free=2), None, id="free_bins"),
        # At 1000 mg the clock moves strongly with the fractions.
        pytest.param(FreeBinsParameterization.geometric(12, 40.0, 1500.0),
                     dict(n_starts=1, max_iter_free=3), 1000.0, id="free_bins_saturating"),
    ])
    def test_counts_every_simulation(self, drug, sphere, conditions, round_trip_target,
                                     monkeypatch, param, kwargs, dose):
        target = round_trip_target
        if dose is not None:
            conditions = DissolutionConditions(dose_mg=dose)
            target = simulate_dissolution(drug, sphere, psd_from_lognormal(300.0, 1.3, 12),
                                          conditions)
        calls = []

        def counting(solver):
            def run(drug, morph, psd, *args, **kw):
                calls.append((psd.sizes_um.tobytes(), psd.fractions.tobytes()))
                return solver(drug, morph, psd, *args, **kw)
            return run

        # objective() goes through simulate_dissolution, design runs through simulate.
        for name in ("simulate_dissolution", "simulate"):
            monkeypatch.setattr(inverse, name, counting(getattr(inverse, name)))
        spec = DesignSpec(target=target, drug=drug, morph=sphere,
                          conditions=conditions, parameterization=param)
        result = design_psd(spec, seed=0, **kwargs)
        assert result.evaluations == len(calls)
        # No distribution is simulated twice: the best run's profile is kept.
        assert len(set(calls)) == len(calls)
        # Rejected steps are counted but never accepted: each accepted value
        # is strictly lower, and the design returned is one of the runs.
        assert np.all(np.diff(result.objective_history) < 0.0)
        assert (result.psd.sizes_um.tobytes(), result.psd.fractions.tobytes()) in calls

    @pytest.mark.parametrize("kind", ["lognormal", "free_bins"])
    def test_converged_only_when_the_solve_stops_itself(self, drug, sphere, conditions,
                                                        monkeypatch, kind):
        target = simulate_dissolution(drug, sphere, psd_from_lognormal(250.0, 1.5, 12),
                                      conditions)
        param = (LognormalParameterization(375.0, 1.5, n_bins=12) if kind == "lognormal"
                 else FreeBinsParameterization.geometric(12, 40.0, 1500.0))
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=param)
        free = design_psd(spec, seed=0, n_starts=1)
        assert free.converged
        # One round short of where the search stops by itself, the cap stops it.
        monkeypatch.setattr(inverse, "_MAX_ROUNDS", free.iterations - 1)
        capped = design_psd(spec, seed=0, n_starts=1, max_iter_free=free.iterations - 1)
        assert not capped.converged
        assert capped.evaluations == free.evaluations - 1
        assert capped.objective_history == free.objective_history[:-1]
        if kind == "lognormal":
            # The last round fits to rounding; the one before did not.
            assert free.residual_mse < ROUNDING_OBJECTIVE <= capped.residual_mse
        else:
            # The last round lowers the objective by at most 1e-6 of its value:
            # the search had stalled one round earlier.
            assert free.evaluations <= 12
            assert free.objective_history[-1] >= (1.0 - 1e-6) * capped.objective_history[-1]

    def test_a_flat_model_is_not_converged(self, drug, sphere, conditions):
        # Every target time after 0 falls after full dissolution at the start,
        # so the Jacobian there is zero and no step falls: a stall, not a fit.
        target = DissolutionProfile([0.0, 1.0, 2.0, 6.0], [0.0, 20.0, 35.0, 70.0])
        spec = DesignSpec(target=target, drug=drug, morph=sphere, conditions=conditions,
                          parameterization=LognormalParameterization(100.0, 1.5, n_bins=12))
        result = design_psd(spec, seed=0, n_starts=1)
        assert result.iterations == 0
        assert result.residual_mse > 1000.0
        assert not result.converged


class TestDesignReport:
    def test_report_contents(self, drug, sphere, conditions, round_trip_target):
        spec = DesignSpec(target=round_trip_target, drug=drug, morph=sphere,
                          conditions=conditions,
                          parameterization=LognormalParameterization(120.0, 1.6))
        result = design_psd(spec, seed=0)            # fixed point, fast
        report = design_report(result, spec)
        ssa, vol_eq = derived_metrics(result.psd, sphere, drug)
        assert f"{ssa:.4g}" in report
        assert f"{vol_eq:.4g}" in report
        assert f"{result.psd.d50_um:.4g}" in report
        assert "residual MSE" in report
        # one row per target grid time
        table_rows = [ln for ln in report.splitlines() if ln.strip() and
                      ln.lstrip()[0].isdigit() and " " in ln.strip()]
        assert len([r for r in table_rows]) >= round_trip_target.n_points
