import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, solve_ivp

from formukit.dissolution import (
    MAX_N_BINS,
    _size_law,
    derived_metrics,
    psd_from_lognormal,
    reynolds_schmidt,
    sherwood,
    simulate,
    simulate_dissolution,
)
from formukit.errors import ValidationError
from formukit.types import (
    DissolutionConditions,
    DrugSubstance,
    ParticleMorphology,
    SizeDistribution,
)

from conftest import analytic_release_pct


class TestSherwood:
    def test_stagnant_limit(self):
        assert sherwood(0.0, 1000.0) == 2.0

    def test_unit_inputs(self):
        assert sherwood(1.0, 1.0) == pytest.approx(2.52, abs=1e-12)

    def test_hand_value(self):
        # 2 + 0.52 * 100^0.52 * 1000^(1/3), recomputed in place
        expected = 2.0 + 0.52 * 100.0 ** 0.52 * 1000.0 ** (1.0 / 3.0)
        got = sherwood(100.0, 1000.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(59.02, abs=0.005)

    def test_floor_of_two(self):
        rng = np.random.default_rng(7)
        re = rng.uniform(0, 1e4, 200)
        sc = rng.uniform(1e-2, 1e4, 200)
        assert np.all(sherwood(re, sc) >= 2.0)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            sherwood(-1.0, 100.0)
        with pytest.raises(ValidationError):
            sherwood(1.0, 0.0)


#: A monodisperse 97.5 um sphere: with Sh = 2 and D = 7.5e-10 m^2/s the film
#: coefficient is k = Sh * D / x = 1.538e-5 m/s.
_X0_M = 9.75e-5
_K_STAGNANT = 1.5e-9 / _X0_M


def _dissolved_mg_ml(result, cond):
    """Dissolved mass over the medium volume: the bulk concentration, uncapped."""
    return result.profile.released_pct / 100.0 * (cond.dose_mg / cond.medium_volume_ml)


def _one_sphere(drug, sphere, cond, grid_hr):
    return simulate(drug, sphere, SizeDistribution([_X0_M * 1e6], [1.0]), cond, grid_hr)


class TestMassTransfer:
    # The film coefficient k = Sh * D / x, read off simulated runs: with
    # dx/dt = -k * (psi_A / psi_v) * (C_sat - C_b) / rho_s, a stagnant sink run
    # shrinks x^2 at the constant rate 2 * x * k * 6 * C_sat / rho_s.

    def test_hand_value(self, drug, sphere, quiescent_sink):
        assert _K_STAGNANT == pytest.approx(1.538e-5, rel=1e-3)
        # x^2 reaches zero at t_d = x0 * rho_s / (12 * k * C_sat).
        t_d = _one_sphere(drug, sphere, quiescent_sink, (0.0, 1.0)).complete_dissolution_time_s
        assert _X0_M * 1512.0 / (12.0 * 0.45 * t_d) == pytest.approx(_K_STAGNANT, rel=1e-12)

    def test_inverse_size_scaling(self, drug, sphere, quiescent_sink):
        # k ~ 1/x, so a half-size bin shrinks twice as fast in x and exactly
        # as fast in x^2.
        psd = SizeDistribution([_X0_M * 5e5, _X0_M * 1e6], [0.5, 0.5])
        result = simulate(drug, sphere, psd, quiescent_sink, (0.0, 0.05, 0.1))
        y0 = (psd.sizes_um * 1e-6) ** 2
        small, large = (y0 - result.sizes_m[1:] ** 2).T
        assert small == pytest.approx(large, rel=1e-12)

    def test_sherwood_scaling(self, drug, sphere, quiescent_sink):
        # k ~ Sh: at the start of an agitated sink run x^2 falls Sh(x0) / 2
        # times as fast as without agitation.
        agitated = DissolutionConditions(sink_override=True)
        sh = sherwood(*reynolds_schmidt(agitated, _X0_M, drug.diffusivity_m2_s))
        assert sh > 10.0
        grid = (0.0, 1e-6)
        drop = [_X0_M ** 2 - _one_sphere(drug, sphere, cond, grid).sizes_m[1, 0] ** 2
                for cond in (agitated, quiescent_sink)]
        assert drop[0] / drop[1] == pytest.approx(sh / 2.0, rel=1e-5)

    def test_zero_size_is_singular(self, conditions):
        # k = Sh * D / x has no value at x = 0: no powder and no Reynolds
        # number takes a zero size.
        with pytest.raises(ValidationError):
            SizeDistribution([0.0], [1.0])
        with pytest.raises(ValidationError):
            reynolds_schmidt(conditions, 0.0, 7.5e-10)


class TestReynoldsSchmidt:
    def test_no_agitation(self, conditions):
        cond = DissolutionConditions(paddle_rpm=0.0)
        re, sc = reynolds_schmidt(cond, 9.75e-5, 7.5e-10)
        assert re == 0.0
        assert sherwood(re, sc) == 2.0

    def test_schmidt_water_at_37(self, conditions):
        _, sc = reynolds_schmidt(conditions, 1e-4, 7.5e-10)
        assert sc == pytest.approx(7.0e-4 / (993.0 * 7.5e-10), rel=1e-14)
        assert sc == pytest.approx(940.0, abs=1.0)

    def test_velocity_factor_linearity(self):
        lo = DissolutionConditions(velocity_factor=0.1)
        hi = DissolutionConditions(velocity_factor=0.2)
        re_lo, sc_lo = reynolds_schmidt(lo, 1e-4, 7.5e-10)
        re_hi, sc_hi = reynolds_schmidt(hi, 1e-4, 7.5e-10)
        assert re_hi == pytest.approx(2 * re_lo, rel=1e-14)
        assert sc_hi == sc_lo


class TestShrinkRate:
    # dx/dt = -k * (psi_A / psi_v) * (C_sat - C_b) / rho_s, read off simulated runs.

    def test_no_driving_force(self, drug, sphere):
        # 600 mg in 900 mL passes the capacity; once C_b = C_sat the sizes hold.
        cond = DissolutionConditions(dose_mg=600.0)
        result = simulate(drug, sphere, psd_from_lognormal(120.0, 1.5, 12), cond,
                          (0.0, 6.0, 24.0, 48.0))
        assert _dissolved_mg_ml(result, cond)[-2] >= drug.c_sat_mg_ml
        assert np.any(result.sizes_m[-1] > 0.0)
        assert np.array_equal(result.sizes_m[-2], result.sizes_m[-1])

    def test_hand_value(self, drug, sphere, quiescent_sink):
        # sphere surface/volume ratio 6, k from the 97.5 um example, sink:
        # dx/dt = -k * 6 * 0.45 / 1512 = -2.747e-8 m/s at the start.
        rate = -_K_STAGNANT * 6.0 * 0.45 / 1512.0
        assert rate == pytest.approx(-2.747e-8, rel=1e-3)
        x = _one_sphere(drug, sphere, quiescent_sink, (0.0, 1.0 / 3600.0)).sizes_m[1, 0]
        assert x == pytest.approx(np.sqrt(_X0_M ** 2 + 2.0 * _X0_M * rate), rel=1e-14)
        assert x - _X0_M == pytest.approx(rate, rel=1e-3)

    def test_linear_in_driving_force(self, drug, sphere):
        # Under sink the driving force is C_sat: halving it takes twice as long.
        half = DrugSubstance(c_sat_mg_ml=drug.c_sat_mg_ml / 2,
                             diffusivity_m2_s=drug.diffusivity_m2_s,
                             true_density_g_ml=drug.true_density_g_ml)
        cond = DissolutionConditions(sink_override=True)
        psd = psd_from_lognormal(120.0, 1.5, 12)
        grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        full = simulate_dissolution(drug, sphere, psd, cond, grid)
        slow = simulate_dissolution(half, sphere, psd, cond, 2.0 * grid)
        assert np.allclose(slow.released_pct, full.released_pct, rtol=0.0, atol=1e-12)

    def test_saturation_violation(self, drug, sphere, grid):
        # Far past the capacity the bulk still never exceeds the solubility.
        for dose_mg in (1e4, 1e9):
            cond = DissolutionConditions(dose_mg=dose_mg)
            result = simulate(drug, sphere, psd_from_lognormal(45.0, 1.5, 30), cond, grid)
            assert np.all(_dissolved_mg_ml(result, cond) <= drug.c_sat_mg_ml * (1 + 1e-12))
            assert np.all(result.profile.released_pct <= result.released_cap_pct)

    def test_never_positive(self, drug, sphere):
        # No bin grows, whatever the bulk concentration.
        rng = np.random.default_rng(3)
        for _ in range(20):
            cond = DissolutionConditions(dose_mg=float(rng.uniform(1.0, 2000.0)),
                                         sink_override=bool(rng.uniform() < 0.2))
            result = simulate(drug, sphere, psd_from_lognormal(float(rng.uniform(20.0, 300.0)),
                                                               1.5, 8), cond, (0.0, 0.5, 2.0, 24.0))
            assert np.all(np.diff(result.sizes_m, axis=0) <= 0.0)


def _lifetime(y, b):
    """G(y; b), the reduced lifetime of ``_size_law``, at any squared sizes; 0 at size 0."""
    y = np.asarray(y, dtype=float)
    g, live = np.zeros_like(y), y > 0.0
    g[live] = _size_law(y[live], b)[0] if live.any() else 0.0
    return g[()]


class TestReducedLifetime:
    @pytest.mark.parametrize("b", [1e-8, 0.5, 40.0, 2e3, 1e5, 1e6, 1e12])
    @pytest.mark.parametrize("y", [1e-24, 1e-14, 1e-10, 1e-8, 2.25e-6])
    def test_matches_quadrature(self, b, y):
        # G(y) = integral_0^y dy' / (2 + b y'^0.26), substituted y' = y s^(1/0.26),
        # which leaves quad a smooth integrand up to b = 1e12 and the 1500 um top.
        # G(y; b) is read off one table of G(z; 1) at z = y b^(1/0.26): b = 1e-8 puts
        # the smallest y below its floor (ln z = -126), b = 1e12 the largest high in it (93).
        a = 1.0 / 0.26
        expected = a * y * quad(lambda s: s ** (a - 1.0) / (2.0 + b * y ** 0.26 * s), 0.0, 1.0,
                                epsabs=0.0, epsrel=1e-13)[0]
        assert _lifetime(y, b) == pytest.approx(expected, rel=1e-12)

    def test_asymptote_above_the_table(self):
        # For b y^0.26 >> 2, G = y^0.74 / (0.74 b), off by a share of about 3 / (b y^0.26).
        # At b = 1e100, lambda = b^(-1/0.26) = 1e-385 is not even a float.
        y = np.geomspace(1e-14, 2.25e-6, 9)
        np.testing.assert_allclose(_lifetime(y, 1e100), y ** 0.74 / (0.74 * 1e100),
                                   rtol=1e-12, atol=0.0)

    def test_stagnant_limit_is_half(self):
        y = np.geomspace(1e-14, 1e-6, 9)
        assert np.array_equal(_lifetime(y, 0.0), y / 2)

    def test_size_table_round_trips(self):
        # The G^-1 table inverts G: a bin's remaining lifetime after tau is G(y0) - tau.
        rng = np.random.default_rng(4)
        for b in (0.0, *rng.uniform(0.0, 1e4, 5), 1e5):
            y0 = 10.0 ** np.sort(rng.uniform(-10.0, -7.0, 40))   # 3 decades of squared size
            lifetime, sizes = _size_law(y0, b)
            tau = np.linspace(0.0, 1.0, 301) * lifetime.max()
            left = lifetime - tau[:, None]
            alive = left > 0.0
            got = _lifetime(sizes(tau), b)
            assert np.all(np.abs(got[alive] / left[alive] - 1.0) <= 1e-9), b
            assert np.all(got[~alive] == 0.0)

    @pytest.mark.parametrize("b", [7e-11, 6e15, 1e100], ids=["floor", "top", "asymptote"])
    def test_size_table_round_trips_at_its_ends(self, b):
        # ln(y0 / lambda) spans the table's floor (-110) at b = 7e-11 and its top (120) at
        # b = 6e15, and lies about 740 above the top at b = 1e100; as a bin dissolves,
        # its remaining lifetime sweeps the table down to the floor.
        y0 = np.geomspace(1e-10, 1e-7, 40)
        lifetime, sizes = _size_law(y0, b)
        np.testing.assert_allclose(sizes(0.0), y0, rtol=1e-13, atol=0.0)
        tau = np.linspace(0.0, 1.0, 301) * lifetime.max()
        left = lifetime - tau[:, None]
        alive = left > 0.0
        got = _lifetime(sizes(tau), b)
        assert np.all(np.abs(got[alive] / left[alive] - 1.0) <= 1e-9)
        assert np.all(got[~alive] == 0.0)


class TestMetamorphic:
    """Exact relations of the reduced time: shape and dose enter the kinetics
    only through psi_A / psi_v and dose / volume."""

    CONDITIONS = [DissolutionConditions(sink_override=True), DissolutionConditions(dose_mg=200.0),
                  DissolutionConditions(dose_mg=600.0)]

    @pytest.mark.parametrize("cond", CONDITIONS, ids=["sink", "coupled", "saturating"])
    def test_aspect_ratio_rescales_time(self, drug, sphere, cond, grid):
        # A needle's curve is the sphere's at time s * t, s = (psi_A,eff / psi_v) / 6.
        needle = ParticleMorphology(aspect_ratio=2.5)
        s = needle.surface_to_volume_ratio / 6.0
        psd = psd_from_lognormal(97.5, 1.5, 30)
        got = simulate_dissolution(drug, needle, psd, cond, grid).released_pct
        want = simulate_dissolution(drug, sphere, psd, cond, s * np.asarray(grid)).released_pct
        assert s > 1.1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("cond", CONDITIONS, ids=["sink", "coupled", "saturating"])
    def test_dose_and_volume_scale_together(self, drug, sphere, cond, grid):
        psd = psd_from_lognormal(97.5, 1.5, 30)
        scaled = DissolutionConditions(dose_mg=3.7 * cond.dose_mg,
                                       medium_volume_ml=3.7 * cond.medium_volume_ml,
                                       sink_override=cond.sink_override)
        got = simulate_dissolution(drug, sphere, psd, scaled, grid).released_pct
        want = simulate_dissolution(drug, sphere, psd, cond, grid).released_pct
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


class TestLognormalPsd:
    def test_degenerate_sigma(self):
        psd = psd_from_lognormal(97.5, 1.0, 50)
        assert psd.n_bins == 1
        assert psd.sizes_um[0] == 97.5
        assert psd.fractions[0] == 1.0

    def test_sigma_within_rounding_of_one(self):
        # The geometric bins collapse onto d50, as at geo_sigma = 1 exactly.
        psd = psd_from_lognormal(5.0, 1.0000000000000002, 8)
        assert psd.n_bins == 1
        assert psd.sizes_um[0] == 5.0

    def test_reference_case(self):
        psd = psd_from_lognormal(97.5, 1.5, 50)
        assert psd.n_bins == 50
        assert abs(psd.fractions.sum() - 1.0) <= 1e-9
        # Independent oracle: the mass median of the continuous log-normal
        oracle = stats.lognorm.ppf(0.5, s=np.log(1.5), scale=97.5)
        assert oracle == pytest.approx(97.5, rel=1e-12)
        assert 95.6 <= psd.d50_um <= 99.5

    @pytest.mark.parametrize("d50", [20.0, 97.5, 300.0])
    @pytest.mark.parametrize("geo_sigma", [1.2, 1.5, 2.0])
    def test_median_recovery(self, d50, geo_sigma):
        for n_bins in (30, 50, 80):
            psd = psd_from_lognormal(d50, geo_sigma, n_bins)
            assert abs(psd.d50_um - d50) <= 0.02 * d50

    def test_scaling(self):
        small = psd_from_lognormal(45.0, 1.5, 50)
        large = psd_from_lognormal(200.0, 1.5, 50)
        assert np.all(small.sizes_um < large.d50_um)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            psd_from_lognormal(-1.0, 1.5, 50)
        with pytest.raises(ValidationError):
            psd_from_lognormal(97.5, 0.9, 50)
        with pytest.raises(ValidationError):
            psd_from_lognormal(97.5, 1.5, 0)
        assert psd_from_lognormal(97.5, 1.5, MAX_N_BINS).n_bins == MAX_N_BINS
        with pytest.raises(ValidationError, match="n_bins"):
            psd_from_lognormal(97.5, 1.5, MAX_N_BINS + 1)


class TestDerivedMetrics:
    def test_monodisperse_sphere(self, sphere, drug):
        psd = SizeDistribution([1.0], [1.0])
        ssa, vol_eq = derived_metrics(psd, sphere, drug)
        assert ssa == pytest.approx(6.0 / (1512.0 * 1e-6) / 1000.0, rel=1e-12)
        assert ssa == pytest.approx(3.97, abs=0.01)
        assert vol_eq == pytest.approx(1.0, rel=1e-12)

    def test_inverse_size_scaling(self, sphere, drug):
        ssa1, _ = derived_metrics(SizeDistribution([1.0], [1.0]), sphere, drug)
        ssa2, _ = derived_metrics(SizeDistribution([2.0], [1.0]), sphere, drug)
        assert ssa2 == pytest.approx(ssa1 / 2, rel=1e-12)

    def test_record_fields_stay_independent(self, reference_input):
        # Given SSA/vol-eq fields are carried as-is, not recomputed.
        assert reference_input.ssa_m2_g == 1.07
        assert reference_input.vol_eq_um == 1.85


#: Runs of _n_bin_run, by their inputs: the released-% and the extinction
#: tests below share each tight reference.
_REFERENCE_RUNS = {}


def _n_bin_run(drug, morph, psd, cond, grid_hr):
    """n coupled squared-size ODEs: RK45 at rtol 1e-10 and atol 1e-22 [m^2],
    no bin retirement, one event per bin at y_i = 0; written apart from the
    solver. Returns released % on the grid and each bin's vanishing time [s]
    (nan if it outlives the run)."""
    key = (repr(drug), repr(morph), repr(cond), tuple(grid_hr),
           psd.sizes_um.tobytes(), psd.fractions.tobytes())
    if key in _REFERENCE_RUNS:
        return _REFERENCE_RUNS[key]
    y0 = (psd.sizes_um * 1e-6) ** 2
    rho_s = drug.true_density_g_ml * 1000.0
    d = drug.diffusivity_m2_s
    c_sat = drug.c_sat_mg_ml
    re_per_m = cond.fluid_density_kg_m3 * cond.slip_velocity_m_s / cond.fluid_viscosity_pa_s
    sc = cond.fluid_viscosity_pa_s / (cond.fluid_density_kg_m3 * d)
    slope = 0.52 * re_per_m ** 0.52 * sc ** (1.0 / 3.0)
    a = 2.0 * d * morph.surface_to_volume_ratio / rho_s

    def rhs(t, y):
        y = np.clip(y, 0.0, None)
        remaining = (y / y0) ** 1.5 @ psd.fractions
        c_b = min((1.0 - remaining) * cond.dose_mg / cond.medium_volume_ml, c_sat)
        return np.where(y > 0.0, -a * (c_sat - c_b) * (2.0 + slope * y ** 0.26), 0.0)

    def vanishes(i):
        def event(t, y):
            return y[i]
        event.direction = -1.0
        return event

    grid_s = np.asarray(grid_hr) * 3600.0
    sol = solve_ivp(rhs, (0.0, grid_s[-1]), y0, t_eval=grid_s, rtol=1e-10, atol=1e-22,
                    events=[vanishes(i) for i in range(y0.size)])
    assert sol.success
    y = np.clip(sol.y.T, 0.0, None)
    released = 100.0 * (1.0 - (y / y0) ** 1.5 @ psd.fractions)
    extinction = np.array([t[0] if t.size else np.nan for t in sol.t_events])
    _REFERENCE_RUNS[key] = released, extinction
    return released, extinction


def _n_bin_reference(drug, morph, psd, cond, grid_hr):
    """Released % on the grid from the tight n-bin reference (_n_bin_run)."""
    return _n_bin_run(drug, morph, psd, cond, grid_hr)[0]


_TIGHT_CASES = pytest.mark.parametrize("dose_mg, grid_hr", [
    pytest.param(10.0, (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), id="coupled"),
    pytest.param(600.0, (0.0, 0.25, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0, 48.0), id="saturating"),
])


class TestSimulate:
    def test_first_row_is_zero(self, drug, sphere, conditions, grid):
        psd = psd_from_lognormal(97.5, 1.5, 30)
        profile = simulate_dissolution(drug, sphere, psd, conditions, grid)
        assert profile.times_hr[0] == 0.0
        assert profile.released_pct[0] == 0.0

    def test_matches_analytic_oracle(self, drug, sphere, quiescent_sink):
        # Monodisperse 50 um sphere, sink, Sh pinned at 2 via zero agitation.
        x0 = 50e-6
        psd = SizeDistribution([50.0], [1.0])
        dense_s = np.arange(0.0, 601.0, 30.0)
        result = simulate(drug, sphere, psd, quiescent_sink, dense_s / 3600.0)
        expected, t_d = analytic_release_pct(dense_s, x0, drug)
        assert t_d == pytest.approx(466.667, rel=1e-3)
        t_num = result.complete_dissolution_time_s
        assert abs(t_num - t_d) <= 1e-6 * t_d
        assert np.max(np.abs(result.profile.released_pct - expected)) <= 1e-6

    def test_reference_input_shape(self, drug, sphere, conditions, grid):
        psd = psd_from_lognormal(97.5, 1.5, 50)
        profile = simulate_dissolution(drug, sphere, psd, conditions, grid)
        assert profile.n_points == 10
        assert tuple(profile.times_hr) == tuple(grid)

    def test_monotone_in_time(self, drug, sphere, conditions, grid):
        psd = psd_from_lognormal(200.0, 1.5, 40)
        profile = simulate_dissolution(drug, sphere, psd, conditions, grid)
        assert np.all(np.diff(profile.released_pct) >= 0.0)

    def test_mass_conservation(self, drug, sphere, conditions, grid):
        psd = psd_from_lognormal(97.5, 1.5, 30)
        result = simulate(drug, sphere, psd, conditions, grid)
        dose = conditions.dose_mg
        x0 = psd.sizes_um * 1e-6
        assert result.sizes_m.shape == (len(grid), psd.n_bins)
        remaining_frac = (result.sizes_m / x0) ** 3 @ psd.fractions
        total = result.profile.released_pct / 100.0 * dose + remaining_frac * dose
        assert np.all(np.abs(total - dose) / dose <= 1e-6)

    def test_saturation_bound_and_cap(self, drug, sphere, grid):
        # 500 mg into 900 mL of 0.45 mg/mL solubility: capacity 405 mg < dose
        cond = DissolutionConditions(dose_mg=500.0)
        psd = psd_from_lognormal(45.0, 1.5, 30)
        result = simulate(drug, sphere, psd, cond, grid)
        cap = 100.0 * 0.45 * 900.0 / 500.0
        assert result.released_cap_pct == pytest.approx(cap)
        assert np.all(result.profile.released_pct <= cap + 1e-9)
        assert np.all(_dissolved_mg_ml(result, cond) <= drug.c_sat_mg_ml + 1e-12)

    def test_clock_too_slow_for_a_float_raises(self, sphere):
        # At D = 1e-300 m^2/s the clock's rate, rate_base * (C_sat - C_b), falls below the
        # smallest normal float; its time would be rounding noise, so the run refuses.
        drug = DrugSubstance(c_sat_mg_ml=1e-10, diffusivity_m2_s=1e-300, true_density_g_ml=1.512)
        with pytest.raises(ValidationError, match="rate underflows"):
            simulate(drug, sphere, psd_from_lognormal(100.0, 1.5, 50), DissolutionConditions())

    def test_dose_far_past_the_capacity_raises(self, drug, sphere):
        # At 1e19 mg the solubility is lost next to dose/V: no root for C_b = C_sat.
        with pytest.raises(ValidationError, match="capacity"):
            simulate(drug, sphere, psd_from_lognormal(50.0, 1.5, 50),
                     DissolutionConditions(dose_mg=1e19))

    @pytest.mark.parametrize("n_bins", [1, 12, 50])
    @pytest.mark.parametrize("dose_mg", [600.0, 1000.0, 1e6])
    def test_saturation_root_zeroes_the_driving_force(self, drug, sphere, n_bins, dose_mg):
        # Past the capacity the run ends where C_b = C_sat: C_sat - dose/V + (dose/V) times
        # the undissolved mass fraction is zero there, to a few ulps of dose/V.
        psd = psd_from_lognormal(120.0, 1.5, n_bins)
        cond = DissolutionConditions(dose_mg=dose_mg)
        result = simulate(drug, sphere, psd, cond, (0.0, 1.0, 1000.0))
        y0 = (psd.sizes_um * 1e-6) ** 2
        remaining = (result.sizes_m[-1] ** 2) ** 1.5 @ (psd.fractions / y0 ** 1.5)
        dose_over_v = dose_mg / cond.medium_volume_ml
        force = drug.c_sat_mg_ml - dose_over_v + dose_over_v * remaining
        assert abs(force) <= 4.0 * np.finfo(float).eps * dose_over_v

    def test_sink_override_forces_zero_bulk(self, drug, sphere, grid):
        # With C_b held at 0 the dose past the capacity changes nothing.
        psd = psd_from_lognormal(45.0, 1.5, 30)
        over, under = (simulate(drug, sphere, psd,
                                DissolutionConditions(dose_mg=dose, sink_override=True), grid)
                       for dose in (500.0, 10.0))
        assert over.released_cap_pct == 100.0
        assert np.array_equal(over.profile.released_pct, under.profile.released_pct)

    def test_monotone_in_size(self, drug, sphere, conditions, grid):
        # A distribution smaller at every quantile dissolves at least as fast.
        fast = simulate_dissolution(drug, sphere, psd_from_lognormal(45.0, 1.5, 40),
                                    conditions, grid)
        slow = simulate_dissolution(drug, sphere, psd_from_lognormal(97.5, 1.5, 40),
                                    conditions, grid)
        assert np.all(fast.released_pct >= slow.released_pct - 1e-9)

    @pytest.mark.parametrize("n_bins", [1, 50, 200])
    @pytest.mark.parametrize("dose_mg, grid_hr", [
        pytest.param(10.0, (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), id="coupled"),
        pytest.param(600.0, (0.0, 0.25, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0, 48.0), id="saturating"),
    ])
    def test_matches_tight_n_bin_reference(self, drug, sphere, n_bins, dose_mg, grid_hr):
        psd = psd_from_lognormal(120.0, 1.5, n_bins)
        cond = DissolutionConditions(dose_mg=dose_mg)
        result = simulate(drug, sphere, psd, cond, grid_hr)
        expected = np.minimum(_n_bin_reference(drug, sphere, psd, cond, grid_hr),
                              result.released_cap_pct)
        assert np.max(np.abs(result.profile.released_pct - expected)) <= 1e-4

    @pytest.mark.parametrize("n_bins", [1, 50, 200])
    @_TIGHT_CASES
    def test_extinction_matches_tight_n_bin_reference(self, drug, sphere, n_bins, dose_mg,
                                                      grid_hr):
        psd = psd_from_lognormal(120.0, 1.5, n_bins)
        cond = DissolutionConditions(dose_mg=dose_mg)
        got = simulate(drug, sphere, psd, cond, grid_hr).extinction_times_s
        _, expected = _n_bin_run(drug, sphere, psd, cond, grid_hr)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        done = ~np.isnan(expected)
        assert np.all(np.abs(got[done] / expected[done] - 1.0) <= 1e-6)

    def test_bins_freeze_at_zero(self, drug, sphere, conditions, grid):
        psd = psd_from_lognormal(45.0, 1.3, 10)
        result = simulate(drug, sphere, psd, conditions, grid)
        assert np.all(np.isfinite(result.extinction_times_s))
        assert result.profile.released_pct[-1] == pytest.approx(100.0, abs=1e-6)
        final_sizes = result.sizes_m[-1]
        assert np.all(final_sizes == 0.0)

    def test_sink_extinction_at_run_end_stays_in_the_run(self, sphere):
        # The run ends at the stagnant lifetime of the one bin, and
        # lifetime / speed rounds one ulp past it.
        drug = DrugSubstance(c_sat_mg_ml=1.0, diffusivity_m2_s=float(np.exp(-23.0)),
                             true_density_g_ml=1.75)
        d50 = float(np.exp(3.5))
        t_d = (d50 * 1e-6) ** 2 * drug.true_density_g_ml * 1e3 / (24.0 * drug.diffusivity_m2_s)
        grid_hr = t_d / 3600.0 * np.array([0.0, 0.3, 1.0])
        cond = DissolutionConditions(medium_volume_ml=50.0, paddle_rpm=0.0, sink_override=True,
                                     dose_mg=50.0)
        result = simulate(drug, sphere, psd_from_lognormal(d50, 1.0, 1), cond, grid_hr)
        assert result.extinction_times_s[0] <= grid_hr[-1] * 3600.0

    def test_grid_validation(self, drug, sphere, conditions):
        psd = psd_from_lognormal(97.5, 1.5, 10)
        with pytest.raises(ValidationError):
            simulate_dissolution(drug, sphere, psd, conditions, (0.5, 1.0))
        with pytest.raises(ValidationError):
            simulate_dissolution(drug, sphere, psd, conditions, (0.0, 1.0, 1.0))
        sink = DissolutionConditions(sink_override=True)
        for vessel, times in ((sink, (0.0, np.nan)), (conditions, (0.0, np.nan)),
                              (conditions, (0.0, 1.0, np.inf))):
            with pytest.raises(ValidationError, match="output grid must be finite"):
                simulate_dissolution(drug, sphere, psd, vessel, times)

    def test_aspect_ratio_speeds_dissolution(self, drug, conditions, grid):
        # More surface per volume at aspect ratio > 1 must not slow release.
        psd = psd_from_lognormal(97.5, 1.5, 20)
        round_p = simulate_dissolution(drug, ParticleMorphology(), psd, conditions, grid)
        elongated = simulate_dissolution(
            drug, ParticleMorphology(aspect_ratio=2.0), psd, conditions, grid)
        assert np.all(elongated.released_pct >= round_p.released_pct - 1e-9)


def test_degenerate_single_point_grid(drug, sphere, conditions):
    psd = psd_from_lognormal(97.5, 1.5, 10)
    result = simulate(drug, sphere, psd, conditions, (0.0,))
    assert result.profile.points() == [(0.0, 0.0)]
    assert np.all(np.isnan(result.extinction_times_s))


def test_random_sweep_preserves_physical_invariants(drug, sphere):
    # random powders and vessels: curves start at zero, never decrease, never
    # exceed the solubility cap, and the mass balance closes at every state
    rng = np.random.default_rng(42)
    grid = (0.0, 0.1, 0.5, 1.0, 3.0, 6.0)
    for _ in range(8):
        d50 = float(rng.uniform(10, 400))
        sigma = float(rng.uniform(1.0, 2.2))
        n_bins = int(rng.integers(1, 40))
        cond = DissolutionConditions(
            paddle_rpm=float(rng.uniform(0, 150)),
            dose_mg=float(rng.uniform(1, 600)),
            medium_volume_ml=float(rng.uniform(200, 1000)),
            velocity_factor=float(rng.uniform(0.01, 1.0)),
            sink_override=bool(rng.integers(0, 2)),
        )
        psd = psd_from_lognormal(d50, sigma, n_bins)
        result = simulate(drug, sphere, psd, cond, grid)
        released = result.profile.released_pct
        assert released[0] == 0.0
        assert np.all(np.diff(released) >= 0.0)
        assert np.all(released <= result.released_cap_pct + 1e-9)
        x0 = psd.sizes_um * 1e-6
        remaining = (result.sizes_m / x0) ** 3 @ psd.fractions
        total = result.profile.released_pct / 100.0 * cond.dose_mg + remaining * cond.dose_mg
        assert np.all(np.abs(total - cond.dose_mg) / cond.dose_mg <= 1e-6)
        assert cond.sink_override or np.all(
            _dissolved_mg_ml(result, cond) <= drug.c_sat_mg_ml + 1e-12)


class TestSensitivities:
    """simulate's private ``_jacobian`` columns, the exact derivatives of released %
    in each bin's mass fraction and ln y0_i that inverse design steps on."""

    GRID = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 6.0, 24.0)

    @staticmethod
    def _released(drug, sphere, psd, cond, fractions, ln_y0_shift):
        psd = SizeDistribution(psd.sizes_um * np.exp(0.5 * ln_y0_shift), fractions)
        return simulate(drug, sphere, psd, cond, TestSensitivities.GRID).profile.released_pct

    @pytest.mark.parametrize("n_bins", [1, 12, 50])
    @pytest.mark.parametrize("cond, tol", [
        pytest.param(DissolutionConditions(sink_override=True), 1e-6, id="sink"),
        pytest.param(DissolutionConditions(dose_mg=10.0), 1e-5, id="coupled-10"),
        pytest.param(DissolutionConditions(dose_mg=200.0), 5e-4, id="coupled-200"),
        pytest.param(DissolutionConditions(dose_mg=600.0), 1e-3, id="saturating-600"),
        pytest.param(DissolutionConditions(dose_mg=1000.0), 1e-3, id="saturating-1000"),
    ])
    def test_columns_match_central_differences(self, drug, sphere, n_bins, cond, tol):
        # Directions e_j - f keep the fractions on the simplex; ln y0_j moves one bin.
        psd = psd_from_lognormal(120.0, 1.5, n_bins)
        f = np.random.default_rng(n_bins).dirichlet(np.ones(n_bins))
        psd = SizeDistribution(psd.sizes_um, f)
        _, d_f, d_ln_y0 = simulate(drug, sphere, psd, cond, self.GRID, _jacobian=True)
        h, worst = 1e-6, 0.0
        for j in range(n_bins):
            e = np.eye(n_bins)[j]
            pairs = [(d_ln_y0 @ e, (f, h * e), (f, -h * e))]
            if n_bins > 1:
                pairs.append((d_f @ (e - f), (f + h * (e - f), 0.0), (f - h * (e - f), 0.0)))
            for column, up, down in pairs:
                fd = (self._released(drug, sphere, psd, cond, *up)
                      - self._released(drug, sphere, psd, cond, *down)) / (2.0 * h)
                worst = max(worst, float(np.max(np.abs(column - fd))))
        assert worst <= tol

    def test_columns_are_not_trivial(self, drug, sphere):
        # The grid resolves the release, so the comparison above has teeth.
        psd = psd_from_lognormal(120.0, 1.5, 12)
        for dose in (10.0, 1000.0):
            _, d_f, d_ln_y0 = simulate(drug, sphere, psd, DissolutionConditions(dose_mg=dose),
                                       self.GRID, _jacobian=True)
            assert np.max(np.abs(d_ln_y0)) > 0.5
            assert np.max(np.abs(d_f)) > 0.5

    def test_sink_columns_are_the_held_clock(self, drug, sphere):
        # Under sink tau does not depend on the powder: the fraction columns
        # are -100 (x_i(t) / x0_i)^3 wherever the release is not clipped.
        psd = psd_from_lognormal(120.0, 1.5, 12)
        result, d_f, _ = simulate(drug, sphere, psd, DissolutionConditions(sink_override=True),
                                  self.GRID, _jacobian=True)
        held = -100.0 * (result.sizes_m / result.sizes_m[0]) ** 3
        released = result.profile.released_pct
        rows = (released > 0.0) & (released < 100.0)
        assert rows.sum() >= 5
        assert np.allclose(d_f[rows], held[rows], rtol=1e-12, atol=0.0)
        assert not np.any(d_f[~rows])

    def test_forward_run_is_unchanged(self, drug, sphere):
        psd = psd_from_lognormal(120.0, 1.5, 12)
        cond = DissolutionConditions(dose_mg=600.0)
        plain = simulate(drug, sphere, psd, cond, self.GRID)
        with_columns = simulate(drug, sphere, psd, cond, self.GRID, _jacobian=True)[0]
        assert np.array_equal(plain.profile.released_pct, with_columns.profile.released_pct)
        assert np.array_equal(plain.sizes_m, with_columns.sizes_m)


def test_gap_to_the_sink_curve_is_first_order_in_dose_over_volume(drug, sphere):
    # C_b = dose/V * released, so the coupled curve leaves the sink curve at
    # first order in dose/V: the largest gap times V holds near 150.8 pp mL
    # from 9e4 mL to 9e10 mL, where the gap itself is about 1.7e-9 pp.
    psd = psd_from_lognormal(120.0, 1.5, 50)
    scaled = []
    for volume in (9e4, 9e5, 9e6, 9e10):
        sink = simulate_dissolution(drug, sphere, psd, DissolutionConditions(
            medium_volume_ml=volume, sink_override=True)).released_pct
        coupled = simulate_dissolution(drug, sphere, psd, DissolutionConditions(
            medium_volume_ml=volume)).released_pct
        scaled.append(np.max(sink - coupled) * volume)
    assert scaled[0] == pytest.approx(150.8, rel=1e-3)
    assert max(scaled) / min(scaled) - 1.0 <= 1e-3
