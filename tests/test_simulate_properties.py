"""Property tests: simulate keeps its physical invariants for random drugs,
vessels, doses and powders, under sink, coupled and saturating conditions."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formukit.dissolution import psd_from_lognormal, simulate  # noqa: E402
from formukit.types import (  # noqa: E402
    DissolutionConditions,
    DrugSubstance,
    ParticleMorphology,
    SizeDistribution,
)


def _log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


_DRUGS = st.builds(DrugSubstance, c_sat_mg_ml=_log_uniform(0.01, 50.0),
                   diffusivity_m2_s=_log_uniform(1e-10, 5e-9),
                   true_density_g_ml=st.floats(1.0, 3.0))
_POWDERS = st.tuples(_log_uniform(5.0, 400.0), st.just(1.0) | st.floats(1.0, 2.5),
                     st.integers(1, 60))


@settings(max_examples=60, deadline=None)
@given(drug=_DRUGS, powder=_POWDERS,
       aspect_ratio=st.floats(1.0, 3.0),
       volume_ml=st.floats(50.0, 1000.0),
       rpm=st.floats(0.0, 150.0),
       velocity_factor=st.floats(0.01, 1.0),
       sink=st.booleans(),
       dose_over_capacity=_log_uniform(0.01, 5.0),
       horizon=_log_uniform(0.01, 30.0),
       finer=st.floats(0.3, 0.95))
def test_simulate_invariants(drug, powder, aspect_ratio, volume_ml, rpm, velocity_factor,
                             sink, dose_over_capacity, horizon, finer):
    psd = psd_from_lognormal(*powder)
    morph = ParticleMorphology(aspect_ratio=aspect_ratio)
    cond = DissolutionConditions(
        medium_volume_ml=volume_ml, paddle_rpm=rpm, velocity_factor=velocity_factor,
        sink_override=sink, dose_mg=dose_over_capacity * drug.c_sat_mg_ml * volume_ml)
    # Times in units of the stagnant sink lifetime of the median particle.
    t_d = (powder[0] * 1e-6) ** 2 * drug.true_density_g_ml * 1e3 / (
        24.0 * drug.diffusivity_m2_s * drug.c_sat_mg_ml)
    grid_hr = horizon * t_d / 3600.0 * np.array([0.0, 0.01, 0.03, 0.1, 0.3, 1.0])
    result = simulate(drug, morph, psd, cond, grid_hr)

    released = result.profile.released_pct
    assert released[0] == 0.0
    assert np.all(np.diff(released) >= 0.0)
    assert np.all(released <= result.released_cap_pct)

    x0 = psd.sizes_um * 1e-6
    remaining = (result.sizes_m / x0) ** 3 @ psd.fractions
    total = result.profile.released_pct / 100.0 * cond.dose_mg + remaining * cond.dose_mg
    assert np.all(np.abs(total - cond.dose_mg) <= 1e-6 * cond.dose_mg)

    fine = SizeDistribution(psd.sizes_um * finer, psd.fractions)
    fine_released = simulate(drug, morph, fine, cond, grid_hr).profile.released_pct
    assert np.all(fine_released >= released - 1e-6)

    # Bins are in increasing size: lifetimes rise, and only the largest survive.
    extinction = result.extinction_times_s
    survived = result.sizes_m[-1] > 0.0
    assert np.array_equal(np.isnan(extinction), survived)
    assert np.all(np.diff(survived.astype(int)) >= 0)
    assert np.all(np.diff(extinction[~survived]) >= 0.0)
    assert np.all(extinction[~survived] <= grid_hr[-1] * 3600.0)
