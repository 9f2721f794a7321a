"""Render saved observability snapshots as human-readable reports.

Consumes the JSON written by :meth:`repro.obs.Registry.save` (or the
dict from ``snapshot()``) and produces the per-stage timing tree that
``python -m repro.obs report <snapshot.json>`` prints — the §5.5-style
"where does the runtime go" view the paper reports only as totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a snapshot JSON file, validating its basic shape."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "spans" not in data or "metrics" not in data:
        raise ValueError(
            f"{path!r} is not an obs snapshot (expected 'spans' and 'metrics' keys)"
        )
    return data


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "   open "
    if value >= 100:
        return f"{value:7.1f}s"
    if value >= 0.1:
        return f"{value:7.3f}s"
    return f"{value * 1000.0:6.2f}ms"


def _span_lines(
    node: Dict[str, Any],
    root_wall: Optional[float],
    prefix: str,
    is_last: bool,
    is_root: bool,
    lines: List[str],
) -> None:
    wall = node.get("wall_s")
    cpu = node.get("cpu_s")
    share = ""
    if root_wall and wall is not None:
        share = f"{100.0 * wall / root_wall:5.1f}%"
    if is_root:
        connector, child_prefix = "", ""
    else:
        connector = f"{prefix}{'└── ' if is_last else '├── '}"
        child_prefix = f"{prefix}{'    ' if is_last else '│   '}"
    label = f"{connector}{node.get('name', '?')}"
    timing = f"{_format_seconds(wall)} wall  {_format_seconds(cpu)} cpu  {share}"
    growth = node.get("peak_rss_growth_mb")
    if growth is not None:
        timing = f"{timing:<36}  {growth:+7.1f}MB peak"
    lines.append(f"{label:<48} {timing}".rstrip())
    meta = node.get("meta")
    if meta:
        rendered = ", ".join(f"{k}={v}" for k, v in meta.items())
        lines.append(f"{child_prefix}      · {rendered}")
    children = node.get("children", [])
    for i, child in enumerate(children):
        _span_lines(
            child, root_wall, child_prefix, i == len(children) - 1, False, lines
        )


def render_spans(snapshot: Dict[str, Any]) -> str:
    """The per-stage timing tree (one block per root span)."""
    spans = snapshot.get("spans", [])
    if not spans:
        return "(no spans recorded)"
    lines: List[str] = []
    for root in spans:
        _span_lines(root, root.get("wall_s"), "", True, True, lines)
        lines.append("")
    return "\n".join(lines).rstrip()


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """Counters, gauges, and histogram summaries as aligned tables."""
    metrics = snapshot.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if not (counters or gauges or histograms):
        return "(no metrics recorded)"
    lines: List[str] = []
    if counters:
        lines.append("counters:")
        for name, data in counters.items():
            lines.append(f"  {name:<44} {data.get('value', 0):>12g}")
    if gauges:
        lines.append("gauges:")
        for name, data in gauges.items():
            value = data.get("value")
            rendered = "unset" if value is None else f"{value:g}"
            lines.append(f"  {name:<44} {rendered:>12}")
    if histograms:
        lines.append("histograms:")
        header = f"  {'name':<44} {'count':>8} {'mean':>12} {'min':>12} {'max':>12}"
        lines.append(header)
        for name, data in histograms.items():
            def fmt(key: str) -> str:
                value = data.get(key)
                return "-" if value is None else f"{value:.6g}"

            lines.append(
                f"  {name:<44} {data.get('count', 0):>8} "
                f"{fmt('mean'):>12} {fmt('min'):>12} {fmt('max'):>12}"
            )
    return "\n".join(lines)


def render_report(snapshot: Dict[str, Any], include_metrics: bool = True) -> str:
    """Full report: span tree followed (optionally) by the metric tables."""
    parts = [render_spans(snapshot)]
    if include_metrics:
        parts.append("")
        parts.append(render_metrics(snapshot))
    return "\n".join(parts)
