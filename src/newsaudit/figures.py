"""Static SVG figure analogs of the report tables.

Every renderer takes the assembled report dict and returns a standalone
SVG 1.1 document string with no external references, so the output can
be opened directly or embedded.  Figures with no underlying data render
a placeholder message rather than failing, which keeps the emit step
total over empty reports.
"""

from __future__ import annotations

import html
import math
from typing import Any, Mapping, Sequence

MAN_COLOR = "#4878a8"
WOMAN_COLOR = "#d65f5f"
UNKNOWN_COLOR = "#9a9a9a"
LEFT_COLOR = "#4878a8"
RIGHT_COLOR = "#d65f5f"
AXIS_COLOR = "#444444"

_MEN_WOMEN = ((MAN_COLOR, "men"), (WOMAN_COLOR, "women"))  # legend items

_WIDTH = 640
_HEIGHT = 400


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _svg(parts: list, width: int = _WIDTH, height: int = _HEIGHT) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}" '
        f'fill="{AXIS_COLOR}">{html.escape(str(s), quote=False)}</text>'
    )


def _line(x1, y1, x2, y2, stroke=AXIS_COLOR, width=1.0) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
    )


def _rect(x, y, w, h, fill) -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{fill}"/>'
    )


def _circle(cx, cy, r, fill) -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'


def _legend(x: float, y: float, items: Sequence, dx: float, dy: float) -> list:
    """A swatch and label per (color, label) item, the i-th at (x + i*dx, y + i*dy)."""
    parts = []
    for i, (color, label) in enumerate(items):
        sx, sy = x + i * dx, y + i * dy
        parts += [_rect(sx, sy, 12, 12, color), _text(sx + 18, sy + 10, label, size=11)]
    return parts


def _placeholder(title: str) -> str:
    return _svg(
        [
            _text(20, 28, title, size=16),
            _text(_WIDTH / 2, _HEIGHT / 2, "no data", size=14, anchor="middle"),
        ]
    )


def _pie(cx: float, cy: float, r: float, slices: list) -> list:
    """slices: (share, color) pairs summing to <= 1; drawn clockwise from 12 o'clock."""
    total = sum(s for s, _ in slices)
    parts = []
    if total <= 0:
        return parts
    angle = -math.pi / 2
    for share, color in slices:
        if share <= 0:
            continue
        if share >= total - 1e-12 and len([s for s, _ in slices if s > 0]) == 1:
            parts.append(_circle(cx, cy, r, color))
            break
        sweep = 2 * math.pi * share
        x1 = cx + r * math.cos(angle)
        y1 = cy + r * math.sin(angle)
        x2 = cx + r * math.cos(angle + sweep)
        y2 = cy + r * math.sin(angle + sweep)
        large = 1 if sweep > math.pi else 0
        parts.append(
            f'<path d="M {_fmt(cx)} {_fmt(cy)} L {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(r)} {_fmt(r)} 0 {large} 1 {_fmt(x2)} {_fmt(y2)} Z" '
            f'fill="{color}"/>'
        )
        angle += sweep
    return parts


def gender_pies(data: Mapping[str, Any]) -> str:
    """Pie pair: gender split of total mentions and of unique experts."""
    comp = data.get("gender_composition")
    if not comp:
        return _placeholder("Gender composition")
    parts = [_text(20, 28, "Gender composition (known gender)", size=16)]
    for i, (scope, label) in enumerate(
        [("mentions", "total mentions"), ("unique_experts", "unique experts")]
    ):
        block = comp[scope]
        cx = 170 + i * 300
        cy = 210
        if block["man_share"] is None:
            parts.append(_text(cx, cy, "no known-gender data", anchor="middle"))
            continue
        parts.extend(
            _pie(
                cx,
                cy,
                110,
                [(block["man_share"], MAN_COLOR), (block["woman_share"], WOMAN_COLOR)],
            )
        )
        parts.append(_text(cx, 355, label, anchor="middle"))
        parts.append(
            _text(
                cx,
                375,
                f"men {block['man_share']:.1%}  women {block['woman_share']:.1%}",
                anchor="middle",
                size=11,
            )
        )
    parts += _legend(480, 40, _MEN_WOMEN, 0, 18)
    return _svg(parts)


def gender_by_org_type(data: Mapping[str, Any]) -> str:
    """Grouped bars with bootstrap CI whiskers per organization type."""
    table = data.get("gender_by_org_type")
    if not table:
        return _placeholder("Gender by organization type")
    parts = [_text(20, 28, "Gender share by organization type", size=16)]
    x0, y0, plot_w, plot_h = 60, 60, _WIDTH - 100, 260
    baseline = y0 + plot_h
    parts.append(_line(x0, y0, x0, baseline))
    parts.append(_line(x0, baseline, x0 + plot_w, baseline))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = baseline - frac * plot_h
        parts.append(_line(x0 - 4, y, x0, y))
        parts.append(_text(x0 - 8, y + 4, f"{frac:.2f}", size=10, anchor="end"))
    colors = {"Man": MAN_COLOR, "Woman": WOMAN_COLOR, "Unknown": UNKNOWN_COLOR}
    types = list(table)
    group_w = plot_w / max(len(types), 1)
    bar_w = group_w / 4.5
    for gi, org_type in enumerate(types):
        block = table[org_type]
        gx = x0 + gi * group_w + group_w / 2
        for bi, gender in enumerate(("Man", "Woman", "Unknown")):
            share = block["shares"][gender]
            if share is None:
                continue
            bx = gx + (bi - 1) * bar_w - bar_w / 2
            h = share * plot_h
            parts.append(_rect(bx, baseline - h, bar_w, h, colors[gender]))
            bs = block["bootstrap"][gender]
            if bs.get("available"):
                cx = bx + bar_w / 2
                y_lo = baseline - bs["ci_low"] * plot_h
                y_hi = baseline - bs["ci_high"] * plot_h
                parts.append(_line(cx, y_lo, cx, y_hi, width=1.5))
                parts.append(_line(cx - 3, y_lo, cx + 3, y_lo))
                parts.append(_line(cx - 3, y_hi, cx + 3, y_hi))
        parts.append(
            _text(gx, baseline + 18, f"{org_type} (n={block['n']})", size=11, anchor="middle")
        )
    parts += _legend(x0, baseline + 34, [(c, g.lower()) for g, c in colors.items()], 110, 0)
    return _svg(parts)


def rank_scatter(data: Mapping[str, Any]) -> str:
    """Mentions of each ranked institution against its world rank."""
    rank = data.get("rank_attention")
    if not rank:
        return _placeholder("Attention by institution rank")
    block = rank["overall"]
    counts = {int(r): c for r, c in block["counts_by_rank"].items()}
    if not counts:
        return _placeholder("Attention by institution rank")
    parts = [_text(20, 28, "Mentions by world rank", size=16)]
    x0, y0, plot_w, plot_h = 60, 60, _WIDTH - 100, 280
    baseline = y0 + plot_h
    max_rank = max(counts)
    max_count = max(max(counts.values()), 1)
    parts.append(_line(x0, y0, x0, baseline))
    parts.append(_line(x0, baseline, x0 + plot_w, baseline))
    for frac in (0.0, 0.5, 1.0):
        y = baseline - frac * plot_h
        parts.append(_text(x0 - 8, y + 4, _fmt(frac * max_count), size=10, anchor="end"))
        x = x0 + frac * plot_w
        parts.append(_text(x, baseline + 16, _fmt(max(1, round(frac * max_rank))), size=10, anchor="middle"))
    for r, c in counts.items():
        x = x0 + (r - 1) / max(max_rank - 1, 1) * plot_w
        y = baseline - c / max_count * plot_h
        parts.append(_circle(x, y, 3.5, MAN_COLOR))
    gini_v = block["gini"]
    rho = block["spearman"]
    note = []
    if gini_v is not None:
        note.append(f"Gini {gini_v:.3f}")
    if rho is not None:
        note.append(f"Spearman {rho:.3f}")
    if note:
        parts.append(_text(x0 + plot_w, y0 - 10, "  ".join(note), size=12, anchor="end"))
    parts.append(_text(x0 + plot_w / 2, baseline + 34, "world rank (1 = most prestigious)", size=11, anchor="middle"))
    return _svg(parts)


def binned_attention(data: Mapping[str, Any]) -> str:
    """Left/right share of academic mentions within each rank bin."""
    rank = data.get("rank_attention")
    if not rank or not rank["binned_by_ideology"]["shares"]:
        return _placeholder("Attention share by rank bin")
    width = rank["binned_by_ideology"]["bin_width"]
    shares = rank["binned_by_ideology"]["shares"]
    n_bins = len(next(iter(shares.values())))
    parts = [_text(20, 28, "Share of academic mentions by rank bin", size=16)]
    x0, y0, plot_w, plot_h = 60, 60, _WIDTH - 100, 260
    baseline = y0 + plot_h
    parts.append(_line(x0, y0, x0, baseline))
    parts.append(_line(x0, baseline, x0 + plot_w, baseline))
    for frac in (0.0, 0.5, 1.0):
        y = baseline - frac * plot_h
        parts.append(_text(x0 - 8, y + 4, f"{frac:.1f}", size=10, anchor="end"))
    group_w = plot_w / max(n_bins, 1)
    bar_w = group_w / 3.0
    for i in range(n_bins):
        gx = x0 + i * group_w + group_w / 2
        for j, (side, color) in enumerate((("left", LEFT_COLOR), ("right", RIGHT_COLOR))):
            v = shares[side][i]
            if v is None:
                continue
            bx = gx + (j - 1) * bar_w + bar_w / 2 - bar_w / 2
            h = v * plot_h
            parts.append(_rect(bx, baseline - h, bar_w, h, color))
        parts.append(
            _text(gx, baseline + 16, f"{i * width + 1}-{(i + 1) * width}", size=9, anchor="middle")
        )
    sides = ((LEFT_COLOR, "left-leaning"), (RIGHT_COLOR, "right-leaning"))
    parts += _legend(x0, baseline + 30, sides, 120, 0)
    return _svg(parts)


def cumulative_attention(data: Mapping[str, Any]) -> str:
    """Cumulative share of each gender's academic mentions from top-n ranks."""
    rank = data.get("rank_attention")
    if not rank:
        return _placeholder("Cumulative attention")
    cum = rank["cumulative_by_gender"]
    cuts = cum["cut_points"]
    parts = [_text(20, 28, "Cumulative attention share of top-n institutions", size=16)]
    x0, y0, plot_w, plot_h = 60, 60, _WIDTH - 100, 280
    baseline = y0 + plot_h
    parts.append(_line(x0, y0, x0, baseline))
    parts.append(_line(x0, baseline, x0 + plot_w, baseline))
    for frac in (0.0, 0.5, 1.0):
        y = baseline - frac * plot_h
        parts.append(_text(x0 - 8, y + 4, f"{frac:.1f}", size=10, anchor="end"))
    max_cut = max(cuts) if cuts else 1
    drew_any = False
    for gender, color in (("Man", MAN_COLOR), ("Woman", WOMAN_COLOR)):
        shares = cum.get(gender, {}).get("shares")
        if not shares:
            continue
        drew_any = True
        points = " ".join(
            f"{_fmt(x0 + c / max_cut * plot_w)},{_fmt(baseline - s * plot_h)}"
            for c, s in zip(cuts, shares)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    if not drew_any:
        return _placeholder("Cumulative attention")
    parts.append(_text(x0 + plot_w / 2, baseline + 30, "top-n world rank cutoff", size=11, anchor="middle"))
    parts += _legend(x0, baseline + 40, _MEN_WOMEN, 80, 0)
    return _svg(parts)


def render_all(data: Mapping[str, Any]) -> "dict[str, str]":
    """All figure analogs keyed by output basename."""
    return {
        "fig_gender_pies": gender_pies(data),
        "fig_gender_by_org_type": gender_by_org_type(data),
        "fig_rank_scatter": rank_scatter(data),
        "fig_binned_attention": binned_attention(data),
        "fig_cumulative_attention": cumulative_attention(data),
    }
