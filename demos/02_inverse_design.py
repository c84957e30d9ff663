"""
Inverse particle-size design
============================

Given a target release curve, recover a particle size distribution whose
simulated dissolution reproduces it. Here the target is synthetic (made from
a known distribution), so we can check the recovery.
"""

from formukit import (
    HYDROCHLOROTHIAZIDE,
    DesignSpec,
    DissolutionConditions,
    LognormalParameterization,
    ParticleMorphology,
    design_psd,
    design_report,
    psd_from_lognormal,
    simulate_dissolution,
)

drug = HYDROCHLOROTHIAZIDE
sphere = ParticleMorphology()
vessel = DissolutionConditions()

# --- make a target from a known answer: d50 = 120 um, geo_sigma = 1.6 -------
truth = psd_from_lognormal(120.0, 1.6, 50)
target = simulate_dissolution(drug, sphere, truth, vessel)
print("target curve (from the hidden 120 um / 1.6 distribution):")
print("  " + ", ".join(f"{v:.0f}%@{t:g}h" for t, v in target.points()[1:6]))

# --- start the search far away and let it recover ---------------------------
spec = DesignSpec(
    target=target,
    drug=drug,
    morph=sphere,
    conditions=vessel,
    # deliberately wrong start, searched within d50 5-1000 um and geo_sigma 1.01-3
    parameterization=LognormalParameterization(300.0, 1.2, bounds=((5.0, 1000.0), (1.01, 3.0))),
)
result = design_psd(spec, seed=0)

print(f"\nrecovered d50 = {result.parameters['d50_um']:.1f} um "
      f"(true 120.0), geo_sigma = {result.parameters['geo_sigma']:.2f} (true 1.60)")
print(f"residual MSE = {result.residual_mse:.2e} %^2 after {result.iterations} "
      f"accepted steps (converged: {result.converged})")

print("\nfull report:\n")
print(design_report(result, spec))
