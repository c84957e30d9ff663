"""Domain types for powder dissolution work.

All records carry external units (um, mg/mL, m^2/s, g/mL, hr); simulation
converts to SI internally. Types validate their invariants on construction
and are immutable.
"""

from __future__ import annotations

import json
import math
import operator
import os
import stat
import threading
from dataclasses import dataclass, field, fields
from numbers import Real
from urllib.parse import urlsplit

import numpy as np

from .errors import DuplicateTimeError, ValidationError

# Default reporting grid for release curves, in hours.
DEFAULT_OUTPUT_GRID_HR = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
#: The default powder's log-normal geometric std [-] and bin count, and a design's start d50 [um].
DEFAULT_GEO_SIGMA, DEFAULT_N_BINS, DEFAULT_START_D50_UM = 1.5, 50, 100.0
#: Paddle (impeller) radius of the standard vessel [m].
IMPELLER_RADIUS_M = 0.037
#: Bin sizes a distribution may hold [um]: 1 nm to 1 m spans every powder, well
#: inside the range where the solver's squared sizes stay finite and nonzero.
SIZE_RANGE_UM = (1e-3, 1e6)
DEFAULT_API_KEY_ENV = "FORMU_API_KEY"


def open_input(path: str | os.PathLike):
    """``path`` opened as UTF-8 text, a leading byte-order mark dropped;
    ValidationError unless it names a regular file."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValidationError(f"{path}: not a regular file")
    return open(path, encoding="utf-8-sig")


def read_json(path: str | os.PathLike):
    """The JSON value in the file at ``path``; text that is not UTF-8 or not JSON,
    or JSON nested past the recursion limit, raises ValidationError naming the file."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:       # ValueError: decode errors
            raise ValidationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DrugSubstance:
    """Intrinsic drug constants.

    Parameters
    ----------
    c_sat_mg_ml : float
        Equilibrium solubility in the medium [mg/mL].
    diffusivity_m2_s : float
        Molecular diffusion coefficient [m^2/s].
    true_density_g_ml : float
        True (crystal) density [g/mL].
    """

    c_sat_mg_ml: float
    diffusivity_m2_s: float
    true_density_g_ml: float

    def __post_init__(self):
        for name in ("c_sat_mg_ml", "diffusivity_m2_s", "true_density_g_ml"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")


#: Diuretic powder used throughout the bundled example data.
HYDROCHLOROTHIAZIDE = DrugSubstance(
    c_sat_mg_ml=0.45,
    diffusivity_m2_s=7.5e-10,
    true_density_g_ml=1.512,
)


def _prolate_area_factor(aspect_ratio: float) -> float:
    # Surface of a prolate spheroid relative to the equal-volume sphere.
    if aspect_ratio <= 1.0:
        return 1.0
    e = math.sqrt(1.0 - aspect_ratio ** -2)
    area_ratio = (1.0 + (aspect_ratio / e) * math.asin(e)) / (2.0 * aspect_ratio ** (2.0 / 3.0))
    return area_ratio


@dataclass(frozen=True)
class ParticleMorphology:
    """Particle shape: the size x is the equal-volume sphere's diameter.

    A sphere has surface pi x^2 and volume (pi/6) x^3, so 6/x of surface per
    volume. An aspect ratio above 1 scales that surface by the
    prolate-spheroid area excess.
    """

    aspect_ratio: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.aspect_ratio < math.inf:
            raise ValidationError("aspect_ratio must be finite and >= 1")

    @property
    def surface_to_volume_ratio(self) -> float:
        """Surface over volume, times the size x: 6.0 for the sphere."""
        return 6.0 * _prolate_area_factor(self.aspect_ratio)


@dataclass(frozen=True)
class SizeDistribution:
    """Binned particle size distribution by mass.

    Parameters
    ----------
    sizes_um : array-like
        Bin sizes [um], strictly increasing, within ``SIZE_RANGE_UM``.
    fractions : array-like
        Mass fraction per bin, >= 0, summing to 1 within 1e-9.
    """

    sizes_um: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        sizes = np.array(self.sizes_um, dtype=float)      # copies: the distribution owns its bins
        fracs = np.array(self.fractions, dtype=float)
        object.__setattr__(self, "sizes_um", sizes)
        object.__setattr__(self, "fractions", fracs)
        if sizes.ndim != 1 or fracs.shape != sizes.shape or sizes.size == 0:
            raise ValidationError("sizes and fractions must be matching non-empty 1-D arrays")
        lo, hi = SIZE_RANGE_UM
        if not (sizes.min() >= lo and sizes.max() <= hi):             # NaN fails both
            raise ValidationError(f"bin sizes must be finite and > 0, within {lo:g}-{hi:g} um")
        if not (sizes[1:] > sizes[:-1]).all():
            raise ValidationError("bin sizes must be strictly increasing")
        if not fracs.min() >= 0.0:                                    # NaN is not >= 0
            raise ValidationError("mass fractions must be >= 0")
        if abs((total := fracs.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"mass fractions must sum to 1 (got {total!r})")

    @property
    def n_bins(self) -> int:
        return int(self.sizes_um.size)

    @property
    def d50_um(self) -> float:
        """Mass-median size, interpolated on the cumulative mass curve.

        Uses the midpoint convention (half of a bin's mass lies below its
        center), which is unbiased for symmetric binnings.
        """
        cum = np.cumsum(self.fractions) - 0.5 * self.fractions
        if self.n_bins == 1 or cum[0] >= 0.5:
            return float(self.sizes_um[0])
        if cum[-1] <= 0.5:
            return float(self.sizes_um[-1])
        idx = int(np.searchsorted(cum, 0.5))
        lo, hi = cum[idx - 1], cum[idx]
        x_lo, x_hi = self.sizes_um[idx - 1], self.sizes_um[idx]
        if hi == lo:
            return float(x_hi)
        return float(x_lo + (0.5 - lo) * (x_hi - x_lo) / (hi - lo))


@dataclass(frozen=True)
class DissolutionConditions:
    """Test-vessel conditions for a dissolution run.

    Defaults follow a standard paddle setup: 900 mL of pH 7.2 medium at
    37 degC, 50 rpm, water-like fluid properties at 37 degC. The slip
    velocity seen by particles is ``velocity_factor`` times the paddle tip
    speed (impeller radius 0.037 m).
    """

    medium_volume_ml: float = 900.0
    paddle_rpm: float = 50.0
    dose_mg: float = 10.0
    fluid_density_kg_m3: float = 993.0
    fluid_viscosity_pa_s: float = 7.0e-4
    velocity_factor: float = 0.1
    sink_override: bool = False

    def __post_init__(self):
        *nums, sink = vars(self).values()                     # sink_override is the last field
        if type(sink) is not bool or any(type(v) is bool or not isinstance(v, Real) for v in nums):
            raise ValidationError("sink_override must be a bool, the other conditions numbers")
        for name in ("medium_volume_ml", "dose_mg", "fluid_density_kg_m3", "fluid_viscosity_pa_s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")
        if not (0.0 < self.velocity_factor <= 1.0):
            raise ValidationError("velocity_factor must be in (0, 1]")
        if not 0.0 <= self.paddle_rpm < math.inf:
            raise ValidationError("paddle_rpm must be finite and >= 0")

    @property
    def slip_velocity_m_s(self) -> float:
        """Characteristic particle-fluid slip velocity [m/s]."""
        tip_speed = 2.0 * math.pi * self.paddle_rpm / 60.0 * IMPELLER_RADIUS_M
        return self.velocity_factor * tip_speed


@dataclass(frozen=True)
class LLMConfig:
    """The chat-completions endpoint and how to call it; ``api_key_env`` names the key's variable."""

    base_url: str = "https://api.deepseek.com/v1/chat/completions"
    model: str = "deepseek-r1"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout_s: float = 120.0
    max_retries: int = 3
    max_inflight: int = 4
    api_key_env: str = DEFAULT_API_KEY_ENV

    def __post_init__(self):
        for name, got in vars(self).items():          # each field takes its default's type
            kind = type(getattr(LLMConfig, name))
            if type(got) is bool or not isinstance(got, (int, float) if kind is float else kind):
                raise ValidationError(f"llm {name} must be of type {kind.__name__}")
        for name, least in (("max_tokens", 1), ("max_retries", 0), ("max_inflight", 1)):
            if not getattr(self, name) >= least:
                raise ValidationError(f"{name} must be >= {least}")
        if not 0 <= self.temperature < math.inf:
            raise ValidationError("temperature must be finite and >= 0")
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:      # socket.settimeout's bound
            raise ValidationError(f"timeout_s must be > 0 and at most {threading.TIMEOUT_MAX:g}")
        url = self.base_url
        try:
            parts = urlsplit(url)
            port = parts.port                         # ValueError unless a number in 0-65535
        except ValueError as exc:
            raise ValidationError(f"llm base_url {url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https"):     # urllib would open file: too
            raise ValidationError(f"llm base_url must be an http or https URL, got {url!r}")
        if not (parts.hostname and port != 0 and url.isascii() and url.isprintable()) or " " in url:
            raise ValidationError(f"llm base_url needs a host, a port in 1-65535 and printable "
                                  f"ASCII but no space (http.client refuses others), got {url!r}")


@dataclass(frozen=True, slots=True)
class DissolutionProfile:
    """Percent drug released over time.

    Points are sorted by time on construction; duplicate times raise.
    Times and values must be finite, and values must lie in [0, 100]. The
    (0, 0) start is an output guarantee of the simulator, not a type
    constraint: parsed LLM responses may violate it and ``validate_profile``
    reports that as a finding.
    """

    times_hr: np.ndarray
    released_pct: np.ndarray

    def __post_init__(self):
        t = np.array(self.times_hr, dtype=float)          # a copy: the profile owns its points
        r = np.array(self.released_pct, dtype=float)
        if t.ndim != 1 or r.shape != t.shape or t.size == 0:
            raise ValidationError("times and released values must be matching non-empty 1-D arrays")
        ts, rs = t.tolist(), r.tolist()           # at ~10 points, faster checked than numpy
        if not all(map(math.isfinite, ts + rs)):
            raise ValidationError("times and released values must be finite")
        if not all(map(operator.lt, ts, ts[1:])):        # strictly increasing: no sort, no duplicates
            order = t.argsort(kind="stable")
            t, r = t[order], r[order]
            if (t[1:] == t[:-1]).any():
                raise DuplicateTimeError("profile contains duplicate times")
        object.__setattr__(self, "times_hr", t)
        object.__setattr__(self, "released_pct", r)
        if min(ts) < 0:
            raise ValidationError("times must be >= 0")
        if min(rs) < 0 or max(rs) > 100:
            raise ValidationError("released % must be within [0, 100]")

    @property
    def n_points(self) -> int:
        return int(self.times_hr.size)

    @property
    def starts_at_zero(self) -> bool:
        return bool(self.times_hr[0] == 0.0 and self.released_pct[0] == 0.0)

    def points(self) -> list[tuple[float, float]]:
        return [(float(t), float(r)) for t, r in zip(self.times_hr, self.released_pct)]

    def released_at(self, time_hr: float) -> float:
        """Linear interpolation within the profile's time range."""
        return float(np.interp(time_hr, self.times_hr, self.released_pct))


@dataclass(frozen=True, slots=True)
class FormulationInput:
    """The numeric feature set describing one formulation.

    ``ssa_m2_g`` and ``vol_eq_um`` are carried as given in source records and
    are not forced to be consistent with ``d50_um`` (measured datasets report
    them independently).
    """

    d50_um: float
    aspect_ratio: float = 1.0
    roundness: float = 1.0
    solubility_mg_ml: float = HYDROCHLOROTHIAZIDE.c_sat_mg_ml
    diffusivity_m2_s: float = HYDROCHLOROTHIAZIDE.diffusivity_m2_s
    true_density_g_ml: float = HYDROCHLOROTHIAZIDE.true_density_g_ml
    ssa_m2_g: float = field(default=1.0)
    vol_eq_um: float = field(default=1.0)

    def __post_init__(self):
        for name in ("d50_um", "solubility_mg_ml", "diffusivity_m2_s",
                     "true_density_g_ml", "ssa_m2_g", "vol_eq_um"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and > 0")
        if not 1.0 <= self.aspect_ratio < math.inf:
            raise ValidationError("aspect_ratio must be finite and >= 1")
        if not (0.0 < self.roundness <= 1.0):
            raise ValidationError("roundness must be in (0, 1]")

    def feature_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)

    def drug(self) -> DrugSubstance:
        return DrugSubstance(
            c_sat_mg_ml=self.solubility_mg_ml,
            diffusivity_m2_s=self.diffusivity_m2_s,
            true_density_g_ml=self.true_density_g_ml,
        )

    def morphology(self) -> ParticleMorphology:
        return ParticleMorphology(aspect_ratio=self.aspect_ratio)


#: Canonical feature order used by storage and retrieval: the fields of FormulationInput.
FEATURE_NAMES = tuple(f.name for f in fields(FormulationInput))
