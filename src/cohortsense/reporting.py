"""Deterministic report, cluster, vote, summary, and chart writers.

All numeric output uses shortest round-trip decimal formatting and none of
it depends on the clock, hostname, or locale, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

from .core import ValidationError

if TYPE_CHECKING:
    from .engine import WeeklyReport

METRICS = ("accuracy", "precision", "recall", "f1")
REPORT_COLUMNS = ("scope", "cohort", "kind", *METRICS, "tp", "fp", "fn", "tn")
SUMMARY_COLUMNS = ("week", "scope", "cohort", "kind", *METRICS)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(path: Path, rows: list) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def write_weekly_report(out_dir: str | Path, report: "WeeklyReport") -> Path:
    rows = [REPORT_COLUMNS]
    for row in report.eval_rows:
        m = row.metrics
        scores = [_fmt(getattr(m, name)) for name in METRICS]
        rows.append([row.scope, row.cohort, row.kind, *scores, m.tp, m.fp, m.fn, m.tn])
    return _write_rows(Path(out_dir) / f"report_week_{report.week}.csv", rows)


def write_clusters(out_dir: str | Path, report: "WeeklyReport") -> Path:
    rows = [["point_id", "cohort_label"]]
    for point_id in sorted(report.assignments):
        label = report.assignments[point_id]
        rows.append([point_id, label if label is not None else "noise"])
    return _write_rows(Path(out_dir) / f"clusters_week_{report.week}.csv", rows)


def write_votes(out_dir: str | Path, report: "WeeklyReport") -> Path:
    rows = [["participant_id", "prediction", "rule_used", "n_voters"]]
    for pid in sorted(report.votes):
        outcome = report.votes[pid]
        rows.append([pid, outcome.prediction, outcome.rule_used, len(outcome.tally)])
    return _write_rows(Path(out_dir) / f"votes_week_{report.week}.csv", rows)


def run_log_lines(report: "WeeklyReport") -> str:
    """The week's `runlog.jsonl` lines: one JSON object per event."""
    return "".join(
        json.dumps({"week": report.week, "event": event}, sort_keys=True) + "\n"
        for event in report.events
    )


def summary_lines(report: "WeeklyReport") -> str:
    """The week's `summary.csv` rows: the generic kinds, the mean
    specialized metrics per kind, and voting."""
    by_kind: dict[str, list] = {}
    for er in report.eval_rows:
        if er.scope == "specialized":
            by_kind.setdefault(er.kind, []).append(er.metrics)
    groups = [
        *((er.scope, er.kind, [er.metrics]) for er in report.eval_rows if er.scope == "generic"),
        *(("specialized_mean", kind, by_kind[kind]) for kind in sorted(by_kind)),
        *((er.scope, er.kind, [er.metrics]) for er in report.eval_rows if er.scope == "voting"),
    ]
    text = io.StringIO()
    writer = csv.writer(text)
    for scope, kind, group in groups:
        means = [sum(getattr(m, name) for m in group) / len(group) for name in METRICS]
        writer.writerow([report.week, scope, "", kind, *map(_fmt, means)])
    return text.getvalue()


# each log: its header, the pattern of a line's week, and its week's lines
LOGS = {
    "runlog.jsonl": ("", r'"week": (\d+)\}$', run_log_lines),
    "summary.csv": (",".join(SUMMARY_COLUMNS) + "\r\n", r"^(\d+),", summary_lines),
}
# a log's digest before its first week; each week's lines then chain onto it
START_DIGEST = hashlib.sha256().hexdigest()


def chain_digests(digests: dict[str, str], report: "WeeklyReport") -> dict[str, str]:
    """Each log's digest after the week of ``report``: sha256 of the hex
    digest before it followed by the week's lines."""
    return {
        name: _chain(digests[name], lines(report)) for name, (_, _, lines) in LOGS.items()
    }


def _chain(digest: str, lines: str) -> str:
    return hashlib.sha256((digest + lines).encode("utf-8")).hexdigest()


def start_run_log(out_dir: str | Path, keep_through: int, digests: dict[str, str]) -> None:
    """Start the logs that grow by one block of lines per week.

    A fresh replay gets an empty `runlog.jsonl` and a `summary.csv` that
    holds only its header. On a resume, each keeps the lines of weeks 1 to
    keep_through from the existing file, if any. The lines kept must chain
    to ``digests`` (the resumed state's `chain_digests`), week by week;
    otherwise ValidationError is raised before either file is written.
    """
    kept = {}
    for name, (header, week_pattern, _) in LOGS.items():
        path = Path(out_dir) / name
        weeks = [""] * keep_through  # each week's lines
        if keep_through > 0 and path.exists():
            with open(path, newline="", encoding="utf-8") as fh:
                for line in fh.read().splitlines(keepends=True):
                    m = re.search(week_pattern, line)
                    if m and 1 <= (week := int(m.group(1))) <= keep_through:
                        weeks[week - 1] += line
            digest = START_DIGEST
            for lines in weeks:
                digest = _chain(digest, lines)
            if digest != digests[name]:
                raise ValidationError(
                    f"{path} does not hold the lines of weeks 1-{keep_through} "
                    "that the resumed run logged"
                )
        kept[path] = header + "".join(weeks)
    for path, text in kept.items():
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _append(out_dir: str | Path, name: str, report: "WeeklyReport") -> Path:
    path = Path(out_dir) / name
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(LOGS[name][2](report))
    return path


def append_run_log(out_dir: str | Path, report: "WeeklyReport") -> Path:
    return _append(out_dir, "runlog.jsonl", report)


def write_summary(out_dir: str | Path, report: "WeeklyReport") -> Path:
    return _append(out_dir, "summary.csv", report)


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
    for metric in METRICS:
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
