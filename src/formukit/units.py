"""Unit conversion constants.

External records use micrometres, milligrams, millilitres and hours; all
internal computation is SI (m, kg, s, kg/m^3). Conversion happens at module
boundaries only. Note mg/mL == kg/m^3, so concentrations need no factor.
"""

M_PER_UM = 1e-6
S_PER_HR = 3600.0
KG_M3_PER_G_ML = 1000.0   # true densities arrive in g/mL
M2_KG_PER_M2_G = 1000.0   # specific surface area: m^2/g -> m^2/kg
