"""Film-diffusion dissolution of a polydisperse powder.

The shrinking-particle law used throughout is

    dx/dt = -(k * psi_A / (rho_s * psi_v)) * (C_sat - C_b),   k = Sh * D / x

with the Sherwood correlation Sh = 2 + 0.52 * Re^0.52 * Sc^(1/3). Re grows
linearly with size, so Sh = 2 + b * x^0.52, and in the squared size y = x^2

    dy/dt = -A * (C_sat - C_b) * (2 + b * y^0.26),   A = 2 * D * psi_A / (psi_v * rho_s),

which is regular at extinction (the 1/x factor cancels). With x the
equal-volume sphere diameter, psi_A / psi_v is 6 for a sphere, times the
prolate-spheroid area excess for an elongated particle. Every bin sees the
same driving force C_sat - C_b, so in the reduced time
tau = integral of A * (C_sat - C_b) dt all bins follow one law,
dy/dtau = -(2 + b * y^0.26), solved by y_i(tau) = G^-1(G(y0_i) - tau), with
G(y) the integral of 1 / (2 + b * y^0.26), which is lambda * G1(y / lambda) with
lambda = b^(-1/0.26) and G1 its value at b = 1: one table of G1 and one of its
inverse, built at import, serve every run. Under sink conditions tau is linear in
t; when the bulk C_b = dissolved mass / medium volume couples back, t(tau) is a
quadrature of 1 / (dtau/dt), with the saturating tail integrated in log form.
Bin i vanishes exactly at tau = G(y0_i) and stays at zero size; dissolved mass is
closed algebraically against the remaining sizes, so the mass balance holds exactly.

External units are um/mg/mL/hr; everything here converts to SI at entry (mg/mL is kg/m^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .types import (
    DEFAULT_OUTPUT_GRID_HR,
    SIZE_RANGE_UM,
    DissolutionConditions,
    DissolutionProfile,
    DrugSubstance,
    ParticleMorphology,
    SizeDistribution,
)

#: Most bins a log-normal distribution may take: a one-start design at 10 000 peaks at 300 MB.
MAX_N_BINS = 10_000
M_PER_UM = 1e-6
S_PER_HR = 3600.0
KG_M3_PER_G_ML = 1000.0   # true densities arrive in g/mL
M2_KG_PER_M2_G = 1000.0   # specific surface area: m^2/g -> m^2/kg

#: Power of the squared size y = x^2 in Sh = 2 + b * y^0.26 (Re^0.52, Re ~ x).
_SH_POWER = 0.26
#: Share of tau_end left where the clock quadrature stops; tau then runs on at its last rate.
_TAU_RTOL = 1e-9
#: Gauss-Legendre nodes on [-1, 1] (the roots of P_8) and weights for each panel
#: of the clock quadrature and of the G sum, and the monomial coefficients of the
#: Lagrange polynomial of each node, in rows.
_GL_NODES = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
                      0.9602898564975362])
_GL_NODES = np.concatenate((-_GL_NODES[::-1], _GL_NODES))
_GL_WEIGHTS = np.array([0.10122853629037626, 0.22238103445337448, 0.31370664587788727,
                        0.362683783378362])[[0, 1, 2, 3, 3, 2, 1, 0]]
_GL_LAGRANGE = np.array([np.poly(np.delete(_GL_NODES, i))[::-1]
                         / np.prod(_GL_NODES[i] - np.delete(_GL_NODES, i))
                         for i in range(_GL_NODES.size)])
#: Most bin lifetimes used as panel edges; more are thinned to this many.
_MAX_EDGES = 32
#: Widest panel in the log variable of the clock quadrature.
_MAX_PANEL_U = 1.0
#: Sizes evaluated at once by the clock quadrature. Larger slices make temporaries
#: that glibc's malloc returns to the system and faults in again on every call (8192
#: ran 1.5x slower where no big import had grown the heap); smaller cost more per slice.
_CHUNK = 4096
#: The G1 table's knots in ln z: a Gauss-Legendre panel of their step is exact to rounding.
#: Below them G1 = z/2 to 2e-13; above, ln(z / G1) goes on at its asymptotic slope, to 1e-13.
_LN_Z_LO, _LN_Z_HI, _G1_STEP = -110.0, 120.0, 0.25
#: Knot step of the ln(z / G1) table in ln G1: a power of two, so that its knots and the offset
#: into an interval are exact. Its cubic pieces hold G(G^-1(g)) = g to 1e-10, and their slopes
#: are close enough to the exact ones for finite differences to match the exact Jacobian.
_RATIO_STEP = 2.0 ** -4


def _panels(lo, hi):
    """Integral of 1 / (2 + z^0.26) dz from e^lo to e^hi, one Gauss-Legendre panel in ln z each."""
    half = 0.5 * (hi - lo)
    z = np.exp(lo[..., None] + half[..., None] * (_GL_NODES + 1.0))
    return half * (z / (2.0 + z ** _SH_POWER) @ _GL_WEIGHTS)


_LN_Z = np.arange(_LN_Z_LO, _LN_Z_HI + 0.5 * _G1_STEP, _G1_STEP)
# G1 at those knots: z/2 at the first, then panel by panel.
_G1 = 0.5 * np.exp(_LN_Z_LO) + np.concatenate(([0.0], np.cumsum(_panels(_LN_Z[:-1], _LN_Z[1:]))))


def _log_g1(lz):
    """ln G1(e^lz): the knot below plus one panel; z / G1 held below the table, and
    d ln G1 / d ln z at its asymptote 0.74 above it."""
    inside = np.clip(lz, _LN_Z_LO, _LN_Z_HI)
    k = np.minimum(((inside - _LN_Z_LO) / _G1_STEP).astype(np.intp), _LN_Z.size - 2)
    out = lz - inside
    return np.log(_G1[k] + _panels(_LN_Z[k], inside)) + out * np.where(out < 0.0, 1.0, 0.74)


def _ratio_table():
    """ln(z / G1) as cubic Hermite pieces on the knots ln G1 = k * _RATIO_STEP over the G1 table,
    placed by Newton steps, with exact slopes. Returns the first column's k and the columns of
    s^3 ... s^0 per unit interval, after one that holds and before one that rises 0.26/0.74."""
    k0, k1 = np.floor(np.log(_G1[0]) / _RATIO_STEP), np.ceil(np.log(_G1[-1]) / _RATIO_STEP)
    v = _RATIO_STEP * np.arange(k0, k1 + 1.0)
    lz = np.interp(v, np.log(_G1), _LN_Z)
    for _ in range(3):
        lg = _log_g1(lz)
        lz -= (lg - v) * (2.0 + np.exp(_SH_POWER * lz)) * np.exp(lg - lz)
    ratio = lz - v
    m = _RATIO_STEP * (np.exp(-ratio) * (2.0 + np.exp(_SH_POWER * lz)) - 1.0)   # per knot step
    rise = np.diff(ratio)
    return k0 - 1.0, np.column_stack((
        [0.0, 0.0, 0.0, ratio[0]],
        [m[:-1] + m[1:] - 2.0 * rise, 3.0 * rise - 2.0 * m[:-1] - m[1:], m[:-1], ratio[:-1]],
        [0.0, 0.0, _RATIO_STEP * _SH_POWER / (1.0 - _SH_POWER), ratio[-1]]))


_RATIO_K0, _RATIO = _ratio_table()


def _log_ratio(v):
    """ln(z / G1) at ln G1 = v: the interval by arithmetic, the offset into it exact."""
    u = v * (1.0 / _RATIO_STEP)
    knot = np.clip(np.floor(u), _RATIO_K0, _RATIO_K0 + _RATIO.shape[1] - 1.0)
    s = u - knot
    c3, c2, c1, c0 = _RATIO.take((knot - _RATIO_K0).astype(np.intp), axis=1)
    return ((c3 * s + c2) * s + c1) * s + c0


def sherwood(re, sc):
    """Sherwood number from the 2 + 0.52 Re^0.52 Sc^(1/3) correlation.

    Parameters
    ----------
    re : float or ndarray
        Particle Reynolds number, >= 0.
    sc : float or ndarray
        Schmidt number, > 0.

    Returns
    -------
    float or ndarray
        Sherwood number; 2.0 in the stagnant limit (re = 0).
    """
    re = np.asarray(re, dtype=float)
    sc = np.asarray(sc, dtype=float)
    if np.any(re < 0):
        raise ValidationError("Reynolds number must be >= 0")
    if np.any(sc <= 0):
        raise ValidationError("Schmidt number must be > 0")
    sh = 2.0 + 0.52 * re ** 0.52 * sc ** (1.0 / 3.0)
    return float(sh) if sh.ndim == 0 else sh


def reynolds_schmidt(conditions: DissolutionConditions, x, diffusivity: float):
    """Particle Reynolds and Schmidt numbers for the vessel conditions.

    Re uses the slip velocity ``velocity_factor * paddle tip speed`` and the
    particle size as the length scale; Sc = mu / (rho_fluid * D).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValidationError("particle size must be > 0")
    if diffusivity <= 0:
        raise ValidationError("diffusivity must be > 0")
    u = conditions.slip_velocity_m_s
    re = conditions.fluid_density_kg_m3 * u * x / conditions.fluid_viscosity_pa_s
    sc = conditions.fluid_viscosity_pa_s / (conditions.fluid_density_kg_m3 * diffusivity)
    re = float(re) if re.ndim == 0 else re
    return re, float(sc)


def lognormal_offsets(n_bins: int) -> np.ndarray:
    """Each bin's ln(size / d50) in units of ln(geo_sigma): +-3 evenly spaced, 0 for one bin."""
    return np.linspace(-3.0, 3.0, n_bins) if n_bins > 1 else np.zeros(1)


def psd_from_lognormal(d50_um: float, geo_sigma: float, n_bins: int) -> SizeDistribution:
    """Binned log-normal mass distribution.

    Bins are geometrically spaced over +-3 log standard deviations around
    d50; mass fractions follow the log-normal mass density and are
    renormalized to sum to 1. ``n_bins = 1``, or a ``geo_sigma`` so close to
    1 that the bin sizes round together, degenerates to a single bin at d50.
    """
    if d50_um <= 0:
        raise ValidationError("d50 must be > 0")
    if not 1.0 <= geo_sigma < np.inf:
        raise ValidationError("geo_sigma must be finite and >= 1")
    if not 1 <= n_bins <= MAX_N_BINS:
        raise ValidationError(f"n_bins must be between 1 and {MAX_N_BINS}")
    u = lognormal_offsets(n_bins)
    with np.errstate(over="ignore"):                  # SizeDistribution rejects what overflows
        sizes = d50_um * np.exp(np.log(geo_sigma) * u)
    if sizes[0] >= SIZE_RANGE_UM[0] and np.any(np.diff(sizes) <= 0.0):
        return SizeDistribution(np.array([d50_um]), np.array([1.0]))
    fractions = np.exp(-0.5 * u ** 2)
    fractions /= fractions.sum()
    return SizeDistribution(sizes, fractions)


def derived_metrics(psd: SizeDistribution, morph: ParticleMorphology,
                    drug: DrugSubstance) -> tuple[float, float]:
    """(specific surface area [m^2/g], volume-equivalent size [um]).

    SSA is the mass-weighted Sauter-type surface-to-mass ratio
    sum_i f_i * psi_A / (psi_v * rho_s * x_i); the volume-equivalent size is
    the mass-weighted size, as sizes are equal-volume sphere diameters.
    """
    rho_s = drug.true_density_g_ml * KG_M3_PER_G_ML
    x_m = psd.sizes_um * M_PER_UM
    ssa_m2_kg = np.sum(psd.fractions * morph.surface_to_volume_ratio / (rho_s * x_m))
    vol_eq_um = np.sum(psd.fractions * psd.sizes_um)
    return float(ssa_m2_kg / M2_KG_PER_M2_G), float(vol_eq_um)


@dataclass(frozen=True)
class SimulationResult:
    """Full output of a dissolution run; per-grid arrays have one row per grid point."""

    profile: DissolutionProfile
    extinction_times_s: np.ndarray   # per bin; nan if the bin outlives the run
    released_cap_pct: float          # solubility-capacity ceiling; 100 under sink
    sizes_m: np.ndarray              # (grid point, bin); 0.0 once a bin has dissolved

    @property
    def complete_dissolution_time_s(self) -> float:
        """Time the last bin vanished, or nan if solids remain at the end."""
        if np.any(np.isnan(self.extinction_times_s)):
            return float("nan")
        return float(np.max(self.extinction_times_s))


def _check_grid(output_grid_hr) -> np.ndarray:
    grid = np.asarray(output_grid_hr, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("output grid must be a non-empty 1-D sequence")
    if not np.isfinite(grid).all():
        raise ValidationError("output grid must be finite")
    if grid[0] != 0.0:
        raise ValidationError("output grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("output grid must be strictly increasing")
    return grid


def _size_law(y0: np.ndarray, b: float):
    """Per-bin lifetimes G(y0_i) and the map tau -> squared sizes G^-1(G(y0_i) - tau).

    G(y) is the reduced time a bin of squared size y [m^2] takes to vanish [m^2]. In
    reduced time every bin obeys dy/dtau = -(2 + b * y^0.26), where ``b = Sh(x = 1 m) - 2``,
    so G(y) is the integral of 1 / (2 + b * y'^0.26) from 0 to y,
    (y/2) * 2F1(1, 1/0.26; 1 + 1/0.26; -b y^0.26 / 2), here summed to about 1e-13.
    The tables of G1 = G(.; b = 1) built at import serve every b, as G(y) = lambda * G1(y / lambda)
    (lambda = b^(-1/0.26), kept as its log: it under- or overflows at extreme b). A lifetime
    is G1 at the knot below plus one Gauss-Legendre panel. G^-1 reads ln(z / G1), ln 2 at
    small z, as cubic pieces on knots uniform in ln G1, shifted per bin so that tau = 0
    returns y0 to rounding. A spent bin is exactly zero; b = 0 is exactly G = y / 2.
    """
    if not b:
        lifetime = 0.5 * y0
        return lifetime, lambda tau: 2.0 * np.maximum(lifetime - np.asarray(tau)[..., None], 0.0)
    log_lam = -np.log(b) / _SH_POWER
    lifetime = np.exp(log_lam + _log_g1(np.log(y0) - log_lam))
    shift = np.log(y0 / lifetime) - _log_ratio(np.log(lifetime) - log_lam)
    tiny = np.finfo(float).tiny

    def sizes(tau):
        left = np.maximum(lifetime - np.asarray(tau, dtype=float)[..., None], 0.0)
        return left * np.exp(_log_ratio(np.log(left + tiny) - log_lam) + shift)   # finite at 0

    return lifetime, sizes


def simulate(drug: DrugSubstance, morph: ParticleMorphology, psd: SizeDistribution,
             conditions: DissolutionConditions,
             output_grid_hr=DEFAULT_OUTPUT_GRID_HR, *, _jacobian: bool = False):
    """Dissolve a size distribution on the reporting grid in reduced time.

    Each squared size follows y_i(tau) = G^-1(G(y0_i) - tau) (see
    :func:`_size_law`). Under sink conditions tau = A * C_sat * t;
    when the bulk couples back, t(tau) is a quadrature of dtau / (dtau/dt)
    in a log variable in which the saturating tail is linear, inverted on
    the grid. Bin i vanishes exactly at tau = G(y0_i).

    Parameters
    ----------
    output_grid_hr : sequence of float
        Reporting times [hr]; must start at 0 and increase strictly.

    _jacobian : bool
        Private to inverse design: return (result, d released / d f_i,
        d released / d ln y0_i), exact and clock response included, each (grid point, bin).

    Returns
    -------
    SimulationResult
        Release profile on the grid plus per-bin extinction times, the
        solubility-capacity ceiling and the bin sizes at the grid points.

    Raises
    ------
    ValidationError
        If rounding swamps the driving force (dose ~1e16 x capacity), or the clock's
        rate underflows or its time overflows.
    """
    grid_hr = _check_grid(output_grid_hr)
    grid_s = grid_hr * S_PER_HR
    t_end = float(grid_s[-1])
    y0 = (psd.sizes_um * M_PER_UM) ** 2

    dose_over_v = conditions.dose_mg / conditions.medium_volume_ml
    c_sat = drug.c_sat_mg_ml                                  # mg/mL == kg/m^3
    rho_s = drug.true_density_g_ml * KG_M3_PER_G_ML
    sink = conditions.sink_override

    # Sink override pins C_b to zero (continuously refreshed medium), so the
    # solubility capacity of the vessel no longer limits release.
    cap_pct = 100.0 if sink else 100.0 * min(1.0, c_sat / dose_over_v)

    # Re grows linearly with size, so Sh(x) = 2 + b * x^0.52 = 2 + b * y^0.26.
    re_1m, sc = reynolds_schmidt(conditions, 1.0, drug.diffusivity_m2_s)
    b = sherwood(re_1m, sc) - 2.0
    rate_base = 2.0 * drug.diffusivity_m2_s * morph.surface_to_volume_ratio / rho_s
    lifetime, sizes = _size_law(y0, b)

    mass_w = psd.fractions / y0 ** 1.5
    excess = c_sat - dose_over_v                              # < 0 past the capacity

    def driving(y):                                           # C_sat - C_b at sizes y, unclamped
        return excess + dose_over_v * (y * np.sqrt(y) @ mass_w)

    def fall(y):                                              # -d driving / dtau
        return 1.5 * dose_over_v * (np.sqrt(y) * (2.0 + b * y ** _SH_POWER) @ mass_w)

    def held(y):
        """d released / d (f_i, ln y0_i) at fixed tau, where dy/dy0 = G'(y0) / G'(y)."""
        root = np.sqrt(y / y0)
        r = root ** 3
        return np.concatenate((-100.0 * r, -150.0 * psd.fractions * (
            root * (2.0 + b * y ** _SH_POWER) / (2.0 + b * y0 ** _SH_POWER) - r)), axis=-1)

    if sink or t_end == 0.0:                      # a zero-length run needs no clock either
        speed = rate_base * c_sat
        tau_grid = speed * grid_s
        extinction = np.where(lifetime <= speed * t_end, np.minimum(lifetime / speed, t_end), np.nan)
        drift = None
    else:
        # dtau/dt = rate_base * driving(sizes(tau)), so t(tau) is an integral, taken
        # in u = -ln(1 - tau / tau_end): tau_end is the last lifetime or, past
        # the capacity, the root where C_b = C_sat, and in u the approach to it
        # is smooth. Past u_cut tau runs on at the last rate (holds, saturated).
        late_rate = rate_base * max(excess, 0.0)
        tau_end = float(lifetime.max())
        if late_rate == 0.0:
            # Newton steps on the convex, falling driving force (> 0 at lo, <= 0 at hi).
            hi = tau_end if excess != -dose_over_v else 0.0   # C_sat lost next to dose/V
            lo, tau, force, rtol = 0.0, 0.0, 1.0, 4.0 * np.finfo(float).eps
            while force and hi - lo > rtol * hi:
                y = sizes(tau)
                force = excess + dose_over_v * (y ** 1.5 @ mass_w)
                lo, hi = (tau, hi) if force > 0.0 else (lo, tau)
                with np.errstate(over="ignore"):              # an infinite slope: bisect
                    tau += force / fall(y)
                tau = max(tau, lo * (1.0 + 0.5 * rtol)) if lo < tau < hi else 0.5 * (lo + hi)
            if hi == 0.0:
                raise ValidationError("dose too far past the capacity to resolve")
            tau_end = hi
        u_cut, tau_cut = -np.log(_TAU_RTOL), tau_end * (1.0 - _TAU_RTOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_life = -np.log1p(-lifetime / tau_end)
        # Panel edges at the lifetimes, where the rate has kinks (thinned to
        # _MAX_EDGES), and every _MAX_PANEL_U.
        kinks = np.sort(u_life[u_life < u_cut])
        kinks = kinks[np.linspace(0, kinks.size - 1, min(kinks.size, _MAX_EDGES)).astype(int)]
        edges = np.union1d(kinks, np.linspace(0.0, u_cut, int(np.ceil(u_cut / _MAX_PANEL_U)) + 1))
        half = np.diff(edges) / 2.0
        gap = tau_end * np.exp(-(edges[:-1, None] + half[:, None] * (_GL_NODES + 1.0)))
        # At the nodes, tau_end - tau and the driving force, taken in slices
        # of about _CHUNK sizes to keep temporaries small; its floor binds
        # only where rounding swamps it.
        taus = np.array_split((tau_end - gap).ravel(), -(-gap.size * y0.size // _CHUNK))
        y_nodes = [sizes(part) for part in taus] if _jacobian else map(sizes, taus)
        force = np.maximum(np.concatenate([driving(y) for y in y_nodes]).reshape(gap.shape),
                           _TAU_RTOL * c_sat * gap / tau_end)
        if np.min(rate := rate_base * force) < np.finfo(float).tiny:
            raise ValidationError("the clock's rate underflows: dissolution too slow to resolve")
        # dt/ds on each panel, s in [-1, 1], as the polynomial through its nodes
        # (einsum, not a BLAS matrix product, whose work buffer costs memory).
        k = np.arange(_GL_NODES.size)
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.einsum("pk,kj->pj", half[:, None] * gap / rate, _GL_LAGRANGE)
            t_edges = np.concatenate(([0.0], np.cumsum(coef @ ((k % 2 == 0) * 2.0 / (k + 1)))))
        t_cut = t_edges[-1]
        if not np.isfinite(t_cut):
            raise ValidationError("the run's clock overflows: dissolution too slow to resolve")

        def powers(s):
            """s^k and its integral from -1 to s, for each power k."""
            power = s[:, None] ** k
            return power, (power * s[:, None] - (-1.0) ** (k + 1)) / (k + 1)

        def clock(p, s):
            """t and dt/ds at s on panels p."""
            power, rise = powers(s)
            return t_edges[p] + np.sum(coef[p] * rise, axis=1), np.sum(coef[p] * power, axis=1)

        # tau on the grid: t inverted within each panel by four Newton steps.
        early, late = grid_s[grid_s <= t_cut], grid_s[grid_s > t_cut]
        p = np.minimum(np.searchsorted(t_edges, early, side="right") - 1, half.size - 1)
        s = 2.0 * (early - t_edges[p]) / (t_edges[p + 1] - t_edges[p]) - 1.0
        for _ in range(4):
            t, slope = clock(p, s)
            s = np.clip(s - (t - early) / slope, -1.0, 1.0)
        tau_late = (tau_cut + (late - t_cut) * late_rate if late_rate
                    else np.full(late.shape, tau_end))
        tau_grid = np.concatenate((-tau_end * np.expm1(-edges[p] - half[p] * (s + 1.0)), tau_late))
        if _jacobian:
            # The clock moves too: at fixed t, d tau = F(tau) * integral of dF / F^2 dtau'
            # with dF = -(dose/V) / 100 * the held column; the integral is taken on
            # the clock's panels, whole ones before each grid point and the
            # integrated node polynomials on its own.
            spread = (held(np.concatenate(y_nodes).reshape(*gap.shape, -1))
                      * (half[:, None] * gap / force ** 2)[..., None])
            before = np.cumsum(np.einsum("k,pkc->pc", _GL_WEIGHTS, spread), axis=0)
            drift = (np.concatenate((np.zeros((1, spread.shape[2])), before))[p]
                     + np.einsum("gk,gkc->gc", powers(s)[1] @ _GL_LAGRANGE.T, spread[p]))
        # Bin i vanishes at t(G(y0_i)), read off the same panels.
        extinction = np.full_like(lifetime, np.nan)
        done = lifetime <= tau_grid[-1]
        u_done = np.minimum(u_life[done], u_cut)
        p = np.minimum(np.searchsorted(edges, u_done, side="right") - 1, half.size - 1)
        t_done = clock(p, (u_done - edges[p]) / half[p] - 1.0)[0]
        late_t = np.maximum(lifetime[done] - tau_cut, 0.0) / late_rate if late_rate else 0.0
        extinction[done] = np.minimum(t_done + late_t, t_end)

    y_grid = sizes(tau_grid)                                  # (n_times, n)
    released = 100.0 * np.clip(1.0 - y_grid ** 1.5 @ mass_w, 0.0, 1.0)
    released = np.minimum(np.maximum.accumulate(np.clip(released, 0.0, cap_pct)), cap_pct)
    released[0] = 0.0

    result = SimulationResult(
        profile=DissolutionProfile(grid_hr, released),
        extinction_times_s=extinction,
        released_cap_pct=cap_pct,
        sizes_m=np.sqrt(y_grid),
    )
    if not _jacobian:
        return result
    jac = held(y_grid)
    if drift is not None:
        # d released / dtau = 100 fall / (dose/V), times d tau = -(dose/V) / 100 * F * drift.
        m = len(drift)
        jac[:m] -= (fall(y_grid[:m]) * driving(y_grid[:m]))[:, None] * drift
        jac[m:] = 0.0                                         # past t_cut: saturated or done
    raw = 100.0 * (1.0 - y_grid ** 1.5 @ mass_w)
    jac[(raw <= 0.0) | (raw >= cap_pct) | (grid_s == 0.0)] = 0.0    # where the clip binds
    return result, jac[:, :y0.size], jac[:, y0.size:]


def simulate_dissolution(drug: DrugSubstance, morph: ParticleMorphology,
                         psd: SizeDistribution, conditions: DissolutionConditions,
                         output_grid_hr=DEFAULT_OUTPUT_GRID_HR) -> DissolutionProfile:
    """Release profile of a powder dose on the reporting grid.

    Convenience wrapper around :func:`simulate` returning only the profile;
    the first row is always (0, 0) and the curve is non-decreasing, capped at
    100 * min(1, saturation capacity / dose) when the bulk couples back (no
    cap under sink_override).
    """
    return simulate(drug, morph, psd, conditions, output_grid_hr).profile
