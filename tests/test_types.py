import math

import numpy as np
import pytest

from formukit.errors import DuplicateTimeError, ValidationError
from formukit.types import (
    SIZE_RANGE_UM,
    DissolutionConditions,
    DissolutionProfile,
    DrugSubstance,
    FormulationInput,
    ParticleMorphology,
    SizeDistribution,
)


class TestDrugSubstance:
    def test_positive_constants_required(self):
        with pytest.raises(ValidationError):
            DrugSubstance(c_sat_mg_ml=0.0, diffusivity_m2_s=1e-9, true_density_g_ml=1.5)
        with pytest.raises(ValidationError):
            DrugSubstance(c_sat_mg_ml=0.45, diffusivity_m2_s=-1e-9, true_density_g_ml=1.5)


class TestParticleMorphology:
    def test_sphere_defaults(self):
        assert ParticleMorphology().surface_to_volume_ratio == 6.0

    def test_prolate_correction_increases_area(self):
        sphere = ParticleMorphology()
        elongated = ParticleMorphology(aspect_ratio=2.0)
        assert elongated.surface_to_volume_ratio > sphere.surface_to_volume_ratio
        barely = ParticleMorphology(aspect_ratio=1.0 + 1e-9)
        assert barely.surface_to_volume_ratio == pytest.approx(6.0, rel=1e-6)

    def test_invalid_shape_parameters(self):
        with pytest.raises(ValidationError):
            ParticleMorphology(aspect_ratio=0.5)


@pytest.mark.parametrize("make", [
    lambda: DrugSubstance(c_sat_mg_ml=math.nan, diffusivity_m2_s=1e-9, true_density_g_ml=1.5),
    lambda: DrugSubstance(c_sat_mg_ml=0.45, diffusivity_m2_s=1e-9, true_density_g_ml=math.nan),
    lambda: ParticleMorphology(aspect_ratio=math.nan),
    lambda: DrugSubstance(c_sat_mg_ml=math.inf, diffusivity_m2_s=1e-9, true_density_g_ml=1.5),
    lambda: DrugSubstance(c_sat_mg_ml=0.45, diffusivity_m2_s=math.inf, true_density_g_ml=1.5),
    lambda: DrugSubstance(c_sat_mg_ml=0.45, diffusivity_m2_s=1e-9, true_density_g_ml=math.inf),
    lambda: ParticleMorphology(aspect_ratio=math.inf),
])
def test_nan_constants_rejected(make):
    with pytest.raises(ValidationError):
        make()


class TestSizeDistribution:
    def test_fraction_sum_enforced(self):
        with pytest.raises(ValidationError):
            SizeDistribution([1.0, 2.0], [0.6, 0.399])

    def test_strictly_increasing_sizes(self):
        with pytest.raises(ValidationError):
            SizeDistribution([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            SizeDistribution([1.0, 1.0], [0.5, 0.5])

    def test_nonnegative_fractions(self):
        with pytest.raises(ValidationError):
            SizeDistribution([1.0, 2.0], [1.2, -0.2])

    def test_nan_fraction_rejected(self):
        # NaN is neither < 0 nor off the sum test's 1e-9, yet no run can use it.
        with pytest.raises(ValidationError, match="mass fractions must be >= 0"):
            SizeDistribution([10.0, 20.0], [math.nan, 1.0])

    @pytest.mark.parametrize("sizes", [[math.inf], [1.0, math.inf], [math.nan], [0.0, 1.0]])
    def test_sizes_finite_and_positive(self, sizes):
        with pytest.raises(ValidationError, match="bin sizes must be finite and > 0"):
            SizeDistribution(sizes, np.full(len(sizes), 1.0 / len(sizes)))

    @pytest.mark.parametrize("sizes", [[1e-4], [5e-4, 1.0], [1.0, 2e6], [1e-100], [1e200]])
    def test_sizes_within_the_documented_range(self, sizes):
        with pytest.raises(ValidationError, match="within"):
            SizeDistribution(sizes, np.full(len(sizes), 1.0 / len(sizes)))
        lo, hi = SIZE_RANGE_UM
        assert SizeDistribution([lo, hi], [0.5, 0.5]).n_bins == 2

    def test_d50_interpolation_symmetric(self):
        psd = SizeDistribution([90.0, 100.0, 110.0], [0.25, 0.5, 0.25])
        assert psd.d50_um == pytest.approx(100.0)

    def test_owns_its_bins(self):
        sizes, fracs = np.array([1.0, 2.0]), np.full(2, 0.5)
        psd = SizeDistribution(sizes, fracs)
        sizes[0], fracs[0] = 5.0, -5.0
        assert (psd.sizes_um.tolist(), psd.fractions.tolist()) == ([1.0, 2.0], [0.5, 0.5])
        assert psd.d50_um == 1.5


class TestDissolutionConditions:
    def test_velocity_factor_range(self):
        with pytest.raises(ValidationError):
            DissolutionConditions(velocity_factor=0.0)
        with pytest.raises(ValidationError):
            DissolutionConditions(velocity_factor=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"sink_override": 1}, {"sink_override": "no"}, {"sink_override": [1]},
        {"sink_override": np.bool_(True)}, {"dose_mg": True}, {"dose_mg": "10"},
        {"paddle_rpm": None}, {"medium_volume_ml": 900j},
    ])
    def test_wrong_types_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            DissolutionConditions(**kwargs)

    def test_numpy_numbers_accepted(self):
        cond = DissolutionConditions(dose_mg=np.float64(600.0), paddle_rpm=np.int64(75))
        assert cond.dose_mg == 600.0 and cond.paddle_rpm == 75

    @pytest.mark.parametrize("name", ["medium_volume_ml", "dose_mg", "paddle_rpm",
                                      "fluid_density_kg_m3", "fluid_viscosity_pa_s",
                                      "velocity_factor"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValidationError):
            DissolutionConditions(**{name: math.nan})

    def test_slip_velocity(self):
        cond = DissolutionConditions(paddle_rpm=50.0, velocity_factor=0.1)
        tip = 2 * math.pi * 50 / 60 * 0.037
        assert cond.slip_velocity_m_s == pytest.approx(0.1 * tip)


class TestDissolutionProfile:
    def test_sorts_points(self):
        profile = DissolutionProfile(np.array([1.0, 0.0]), np.array([50.0, 0.0]))
        assert profile.times_hr.tolist() == [0.0, 1.0]
        assert profile.starts_at_zero

    def test_duplicate_times_raise(self):
        with pytest.raises(DuplicateTimeError):
            DissolutionProfile(np.array([0.0, 1.0, 1.0]), np.array([0.0, 10.0, 20.0]))

    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            DissolutionProfile(np.array([0.0, 1.0]), np.array([0.0, 120.0]))

    def test_interpolation(self):
        profile = DissolutionProfile(np.array([0.0, 1.0, 2.0]), np.array([0.0, 50.0, 100.0]))
        assert profile.released_at(0.5) == 25.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DissolutionProfile(np.array([]), np.array([]))


class TestFormulationInput:
    def test_defaults_carry_reference_drug(self):
        features = FormulationInput(d50_um=97.5)
        assert features.solubility_mg_ml == 0.45
        assert features.diffusivity_m2_s == 7.5e-10
        assert features.true_density_g_ml == 1.512

    def test_feature_vector_order(self):
        features = FormulationInput(d50_um=45.0, ssa_m2_g=1.7, vol_eq_um=1.17)
        vec = features.feature_vector()
        assert vec[0] == 45.0
        assert vec[-1] == 1.17

    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            FormulationInput(d50_um=-1.0)
        with pytest.raises(ValidationError):
            FormulationInput(d50_um=45.0, ssa_m2_g=0.0)

    @pytest.mark.parametrize("name", ["d50_um", "aspect_ratio", "roundness", "solubility_mg_ml",
                                      "diffusivity_m2_s", "true_density_g_ml", "ssa_m2_g",
                                      "vol_eq_um"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValidationError):
            FormulationInput(**{"d50_um": 45.0, name: value})
