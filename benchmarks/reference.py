"""Computations the benchmark checks formukit against.

Nothing here imports formukit: each function restates, in plain numpy, a
result the program must reproduce (the closed-form dissolution law, the
profile metrics, the retrieval ranking) or a property the method must have.
"""

from __future__ import annotations

import csv
import re

import numpy as np

GRID_HR = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
FEATURES = ("d50_um", "aspect_ratio", "roundness", "solubility_mg_ml",
            "diffusivity_m2_s", "true_density_g_ml", "ssa_m2_g", "vol_eq_um")
# Hydrochlorothiazide, the drug of the bundled records.
HCTZ = {"c_sat_mg_ml": 0.45, "diffusivity_m2_s": 7.5e-10, "density_g_ml": 1.512}

_D50_RE = re.compile(r'"Mean Particle Size, D50"\s*:\s*([^,\n]+)')
_SCI_RE = re.compile(r"^([-+]?\d+(?:\.\d+)?)\s*x\s*10\^\((-?\d+)\)$")


def lognormal_bins(d50_um, geo_sigma, n_bins):
    """Log-normal mass bins over +-3 log standard deviations around d50.

    Array arguments give one row of sizes per powder."""
    if n_bins == 1 or np.all(np.asarray(geo_sigma) == 1.0):
        return np.array([float(d50_um)]), np.array([1.0])
    u = np.linspace(-3.0, 3.0, n_bins)
    sizes = np.asarray(d50_um)[..., None] * np.exp(np.log(np.asarray(geo_sigma))[..., None] * u)
    fractions = np.exp(-0.5 * u ** 2)
    return sizes, fractions / fractions.sum()


def closed_form_release(sizes_um, fractions, times_hr, c_sat_mg_ml,
                        diffusivity_m2_s, density_g_ml):
    """Released % of spheres in a stagnant sink (Sh = 2).

    x_i(t)^2 = max(x0_i^2 - 4 D 6 C_sat t / rho_s, 0) and
    released = 100 (1 - sum f_i (x_i / x0_i)^3). Sizes may hold one row per
    powder, with the drug constants as matching arrays.
    """
    x0_sq = (np.asarray(sizes_um, dtype=float) * 1e-6) ** 2                 # (..., bins)
    shrink = 4.0 * np.asarray(diffusivity_m2_s) * 6.0 * np.asarray(c_sat_mg_ml) \
        / (np.asarray(density_g_ml) * 1e3)                                   # (...)
    t_s = np.asarray(times_hr, dtype=float) * 3600.0
    ratio = shrink[..., None, None] * t_s[:, None] / x0_sq[..., None, :]      # (..., times, bins)
    left = np.clip(1.0 - ratio, 0.0, None) ** 1.5
    return 100.0 * (1.0 - left @ np.asarray(fractions, dtype=float))


def mse_r2(reference, predicted):
    """(MSE, R^2) of two profiles sampled on the same times."""
    ref = np.asarray(reference, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((ref - pred) ** 2))
    ss_tot = float(np.sum((ref - ref.mean()) ** 2))
    return ss_res / ref.size, 1.0 - ss_res / ss_tot


def close(a, b, rel=1e-9, abs_tol=1e-12):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def _average_ranks(values):
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse]


def spearman(x, y):
    rx, ry = _average_ranks(x), _average_ranks(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


def retrieval_weights(matrix, release_1hr):
    """MAD scales and |Spearman|-proportional weights, as the store documents."""
    med = np.median(matrix, axis=0)
    mad = np.median(np.abs(matrix - med), axis=0)
    varying = mad > 0.0
    raw = np.zeros(matrix.shape[1])
    if len(matrix) >= 5:
        for j in np.flatnonzero(varying):
            rho = spearman(matrix[:, j], release_1hr)
            if np.isfinite(rho):
                raw[j] = abs(rho)
    if raw.sum() == 0.0:
        raw = varying.astype(float)
    return raw / raw.sum(), np.maximum(mad, 1e-12)


def top_k(ids, matrix, weights, scales, query, k):
    """Ids and scores of the k best records under the exp(-weighted L1) kernel."""
    scores = np.exp(-np.sum(weights * np.abs(query - matrix) / scales, axis=1))
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return [ids[i] for i in order], [float(scores[i]) for i in order]


def same_ranking(got_ids, got_scores, want_ids, want_scores, rel=1e-9):
    """True when two rankings agree, allowing swaps between equal scores."""
    if len(got_ids) != len(want_ids):
        return False
    if not all(close(g, w, rel) for g, w in zip(got_scores, want_scores)):
        return False
    for g, w, s in zip(got_ids, want_ids, want_scores):
        if g != w and not any(close(s, o, rel) for o, i in zip(want_scores, want_ids) if i == g):
            return False
    return True


def parse_number(text):
    text = text.strip().rstrip(",")
    m = _SCI_RE.match(text)
    return float(f"{m.group(1)}e{m.group(2)}") if m else float(text)


def section(prompt, header, next_header):
    """Body of the "### header: ###" section of a rendered prompt."""
    marker = f"### {header}: ###\n"
    start = prompt.index(marker) + len(marker)
    return prompt[start:prompt.index(f"\n\n### {next_header}: ###", start)]


def d50_values(text):
    return [parse_number(v) for v in _D50_RE.findall(text)]


def read_profile_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["time_hr", "released_pct"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return data[:, 0], data[:, 1]


def profile_properties(times_hr, released, cap_pct, reach_cap=False, tol=1e-9):
    """Failures of the properties every simulated release curve must have."""
    problems = []
    if times_hr[0] != 0.0 or released[0] != 0.0:
        problems.append("profile does not start at (0, 0)")
    if np.any(np.diff(released) < -tol):
        problems.append("profile decreases")
    if np.any(released > cap_pct + tol):
        problems.append(f"profile exceeds the cap {cap_pct:.6g}%")
    if reach_cap and released[-1] < cap_pct - 0.05:
        problems.append(f"profile ends at {released[-1]:.6g}%, below the cap {cap_pct:.6g}%")
    return problems
