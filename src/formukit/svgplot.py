"""Minimal deterministic SVG line plots for release profiles.

Hand-rolled rather than pulling in a plotting stack: output must be
byte-stable across runs so replayed benchmarks diff clean.
"""

from __future__ import annotations

from html import escape

from .types import DissolutionProfile

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 160, 36, 48


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def profile_overlay_svg(reference: DissolutionProfile | None,
                        curves: dict[str, DissolutionProfile],
                        title: str = "Dissolution profiles") -> str:
    """SVG overlay of release curves; the reference renders as black dots.

    Parameters
    ----------
    reference : DissolutionProfile or None
        Measured curve drawn with point markers.
    curves : dict
        Label -> profile, drawn as colored polylines in insertion order.
    """
    all_profiles = list(curves.values()) + ([reference] if reference is not None else [])
    if not all_profiles:
        raise ValueError("nothing to plot")
    t_max = max(float(p.times_hr[-1]) for p in all_profiles)
    t_max = t_max if t_max > 0 else 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(t: float) -> float:
        return _MARGIN_L + plot_w * t / t_max

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - v / 100.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="22" font-family="sans-serif" font-size="14" '
        f'font-weight="bold">{escape(title, quote=False)}</text>',
    ]
    # frame and gridlines every 20%
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>')
    for pct in range(0, 101, 20):
        y = sy(pct)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_MARGIN_L + plot_w}" '
                     f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{pct}</text>')
    n_ticks = 6
    for i in range(n_ticks + 1):
        t = t_max * i / n_ticks
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
                     f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">Time (hr)</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})" '
                 f'text-anchor="middle">Drug released (%)</text>')

    legend_y = _MARGIN_T + 10
    for i, (label, profile) in enumerate(curves.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in profile.points())
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
                     f'font-size="11">{escape(label, quote=False)}</text>')
        legend_y += 18

    if reference is not None:
        for t, v in reference.points():
            parts.append(f'<circle cx="{_fmt(sx(t))}" cy="{_fmt(sy(v))}" r="2.6" fill="black"/>')
        lx = _MARGIN_L + plot_w + 12
        parts.append(f'<circle cx="{lx + 11}" cy="{legend_y}" r="2.6" fill="black"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
                     f'font-size="11">reference</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
