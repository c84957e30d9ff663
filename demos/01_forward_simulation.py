"""
Forward dissolution simulation
==============================

Simulate the release curve of a hydrochlorothiazide powder from its particle
properties, then look at how agitation and particle size move the curve.
"""

from formukit import (
    HYDROCHLOROTHIAZIDE,
    DissolutionConditions,
    ParticleMorphology,
    derived_metrics,
    psd_from_lognormal,
    simulate,
    simulate_dissolution,
)

drug = HYDROCHLOROTHIAZIDE
sphere = ParticleMorphology()          # aspect ratio 1: surface/volume = 6/x, x the diameter
vessel = DissolutionConditions()       # 900 mL, 37 degC, 50 rpm paddle, 10 mg dose

# --- a 97.5 um (mass-median) powder with a log-normal spread -----------------
psd = psd_from_lognormal(97.5, geo_sigma=1.5, n_bins=50)
ssa, vol_eq = derived_metrics(psd, sphere, drug)
print(f"d50 = {psd.d50_um:.1f} um, derived SSA = {ssa:.3f} m^2/g, "
      f"volume-equivalent size = {vol_eq:.1f} um")

profile = simulate_dissolution(drug, sphere, psd, vessel)
print("\ntime_hr  released_pct")
for t, v in profile.points():
    print(f"{t:7.2f}  {v:12.2f}")

# --- smaller particles dissolve faster --------------------------------------
print("\nreleased % at 15 min for different particle sizes:")
for d50 in (45.0, 97.5, 200.0):
    p = simulate_dissolution(drug, sphere, psd_from_lognormal(d50, 1.5, 50), vessel)
    print(f"  d50 = {d50:6.1f} um -> {p.released_at(0.25):6.2f} %")

# --- stagnant fluid is the slow limit (Sherwood number = 2) -----------------
quiet = DissolutionConditions(paddle_rpm=0.0)
p_quiet = simulate_dissolution(drug, sphere, psd, quiet)
print(f"\nreleased at 15 min: {profile.released_at(0.25):.1f} % stirred vs "
      f"{p_quiet.released_at(0.25):.1f} % stagnant")

# --- the full result object carries extinction times and per-bin sizes ------
result = simulate(drug, sphere, psd_from_lognormal(45.0, 1.3, 10), vessel)
t_done = result.complete_dissolution_time_s
print(f"\n45 um narrow powder fully dissolved after {t_done:.0f} s")
i = 2
dissolved_mg = result.profile.released_pct[i] / 100.0 * vessel.dose_mg
bulk_mg_ml = min(dissolved_mg / vessel.medium_volume_ml, drug.c_sat_mg_ml)
print(f"at t = {result.profile.times_hr[i] * 3600:.0f} s: dissolved "
      f"{dissolved_mg:.2f} mg, bulk concentration {bulk_mg_ml * 1000:.3f} ug/mL")

# --- doses above the solubility capacity plateau below 100% -----------------
overloaded = DissolutionConditions(dose_mg=500.0)
p_cap = simulate(drug, sphere, psd, overloaded)
print(f"\n500 mg dose in 900 mL caps at {p_cap.released_cap_pct:.1f} % "
      f"(solubility-limited); final point {p_cap.profile.released_pct[-1]:.1f} %")
