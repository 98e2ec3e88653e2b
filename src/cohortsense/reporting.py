"""Deterministic report, cluster, vote, summary, and chart writers.

All numeric output uses shortest round-trip decimal formatting and none of
it depends on the clock, hostname, or locale, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import WeeklyReport

REPORT_COLUMNS = (
    "scope",
    "cohort",
    "kind",
    "accuracy",
    "precision",
    "recall",
    "f1",
    "tp",
    "fp",
    "fn",
    "tn",
)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_weekly_report(out_dir: str | Path, report: "WeeklyReport") -> Path:
    path = Path(out_dir) / f"report_week_{report.week}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.eval_rows:
            m = row.metrics
            writer.writerow(
                [
                    row.scope,
                    row.cohort,
                    row.kind,
                    _fmt(m.accuracy),
                    _fmt(m.precision),
                    _fmt(m.recall),
                    _fmt(m.f1),
                    m.tp,
                    m.fp,
                    m.fn,
                    m.tn,
                ]
            )
    return path


def write_clusters(out_dir: str | Path, report: "WeeklyReport") -> Path:
    path = Path(out_dir) / f"clusters_week_{report.week}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id", "cohort_label"])
        for point_id in sorted(report.assignments):
            label = report.assignments[point_id]
            writer.writerow([point_id, label if label is not None else "noise"])
    return path


def write_votes(out_dir: str | Path, report: "WeeklyReport") -> Path:
    path = Path(out_dir) / f"votes_week_{report.week}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "prediction", "rule_used", "n_voters"])
        for pid in sorted(report.votes):
            outcome = report.votes[pid]
            writer.writerow(
                [pid, outcome.prediction, outcome.rule_used, len(outcome.tally)]
            )
    return path


def _lines_through(path: Path, keep_through: int, week_pattern: str) -> list[str]:
    """Lines of an existing file whose week, matched by `week_pattern`'s
    group, is at most keep_through; none when keep_through is 0."""
    if keep_through <= 0 or not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    return [
        line
        for line in lines
        if (m := re.search(week_pattern, line)) and int(m.group(1)) <= keep_through
    ]


def start_run_log(out_dir: str | Path, keep_through: int = 0) -> Path:
    """Start `runlog.jsonl`: empty for a fresh replay; on a resume, the
    existing lines of weeks up to keep_through."""
    path = Path(out_dir) / "runlog.jsonl"
    kept = _lines_through(path, keep_through, r'"week": (\d+)\}$')
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(kept)
    return path


def append_run_log(out_dir: str | Path, report: "WeeklyReport") -> Path:
    path = Path(out_dir) / "runlog.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        for event in report.events:
            fh.write(json.dumps({"week": report.week, "event": event}, sort_keys=True))
            fh.write("\n")
    return path


def summary_rows(reports: list["WeeklyReport"]) -> list[dict]:
    """Per week: generic kinds, mean specialized F1 per kind, and voting."""

    def row(week: int, scope: str, kind: str, group: list) -> dict:
        means = {
            name: sum(getattr(m, name) for m in group) / len(group)
            for name in ("accuracy", "precision", "recall", "f1")
        }
        return {"week": week, "scope": scope, "cohort": "", "kind": kind, **means}

    rows: list[dict] = []
    for report in reports:
        by_kind: dict[str, list] = {}
        for er in report.eval_rows:
            if er.scope == "specialized":
                by_kind.setdefault(er.kind, []).append(er.metrics)
        rows.extend(
            row(report.week, "generic", er.kind, [er.metrics])
            for er in report.eval_rows
            if er.scope == "generic"
        )
        rows.extend(
            row(report.week, "specialized_mean", kind, by_kind[kind]) for kind in sorted(by_kind)
        )
        rows.extend(
            row(report.week, "voting", er.kind, [er.metrics])
            for er in report.eval_rows
            if er.scope == "voting"
        )
    return rows


def write_summary(
    out_dir: str | Path, reports: list["WeeklyReport"], keep_through: int = 0
) -> Path:
    """Write `summary.csv` for `reports`.

    With keep_through > 0 (a resumed replay), the rows of weeks up to
    keep_through are first copied verbatim from the existing file, if any.
    """
    path = Path(out_dir) / "summary.csv"
    kept = _lines_through(path, keep_through, r"^(\d+),")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["week", "scope", "cohort", "kind", "accuracy", "precision", "recall", "f1"]
        )
        fh.writelines(kept)
        for row in summary_rows(reports):
            writer.writerow(
                [
                    row["week"],
                    row["scope"],
                    row["cohort"],
                    row["kind"],
                    _fmt(row["accuracy"]),
                    _fmt(row["precision"]),
                    _fmt(row["recall"]),
                    _fmt(row["f1"]),
                ]
            )
    return path


def svg_line_chart(
    series: dict[str, list[tuple[int, float]]], title: str, path: str | Path
) -> Path:
    """Minimal multi-series line chart over weeks; values expected in [0, 1]."""
    width, height, margin = 640, 400, 48
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    weeks = sorted({w for pts in series.values() for w, _ in pts})
    if not weeks:
        weeks = [1]
    w_lo, w_hi = min(weeks), max(weeks)
    span = max(w_hi - w_lo, 1)

    def sx(week: int) -> float:
        return margin + (week - w_lo) / span * (width - 2 * margin)

    def sy(value: float) -> float:
        return height - margin - value * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 4}" text-anchor="end" font-size="10">'
            f"{frac}</text>"
        )
    for week in weeks:
        x = sx(week)
        parts.append(
            f'<text x="{x}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-size="10">{week}</text>'
        )
    for i, name in enumerate(sorted(series)):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(w)},{sy(v)}" for w, v in sorted(series[name]))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * i}" font-size="10" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out


def write_metric_charts(out_dir: str | Path) -> list[Path]:
    """One SVG per metric: weekly trajectories for generic kinds and voting.

    Drawn from every week's rows in `summary.csv`, whose shortest-repr
    values parse back to the exact floats.
    """
    with open(Path(out_dir) / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["scope"] in ("generic", "voting")]
    out = []
    for metric in ("accuracy", "precision", "recall", "f1"):
        series: dict[str, list[tuple[int, float]]] = {}
        for row in rows:
            name = "voting" if row["scope"] == "voting" else f"generic_{row['kind']}"
            series.setdefault(name, []).append((int(row["week"]), float(row[metric])))
        out.append(
            svg_line_chart(
                series,
                f"weekly {metric}",
                Path(out_dir) / f"chart_{metric}.svg",
            )
        )
    return out
