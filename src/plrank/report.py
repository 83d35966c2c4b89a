"""Deterministic report emitters: CSV tables, JSON summaries, SVG charts.

Every artifact embeds the config hash and seed that produced it, and every
byte is a pure function of the inputs (no timestamps, no float formatting
that depends on locale), so identical runs produce identical files.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .atomic import atomic_write
from .errors import DataFormatError
from .evaluation import EvalReport, HistoryShuffleResult, PositionProbeResult

META_PREFIX = "# plrank"


def report_header(kind: str, config_hash: str, seed: int) -> str:
    return f"{META_PREFIX} kind={kind} config_hash={config_hash} seed={seed}"


def parse_report_header(line: str) -> dict:
    line = line.strip()
    if not line.startswith(META_PREFIX):
        raise DataFormatError(f"missing report header, got {line[:60]!r}")
    meta = {}
    for part in line[len(META_PREFIX) :].split():
        if "=" not in part:
            raise DataFormatError(f"malformed header field {part!r}")
        key, value = part.split("=", 1)
        meta[key] = value
    for required in ("kind", "config_hash", "seed"):
        if required not in meta:
            raise DataFormatError(f"report header missing {required!r}")
    meta["seed"] = int(meta["seed"])
    return meta


def format_cell(value) -> str:
    """One table cell: floats at full precision (repr), everything else as str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class TableWriter:
    """A report table over an open text file: the report header (kind, config
    hash and seed), the column names, then one `write` per row, every cell
    through `format_cell`."""

    def __init__(self, fh, kind: str, config_hash: str, seed: int, columns):
        fh.write(report_header(kind, config_hash, seed) + "\n")
        self._writer = csv.writer(fh, lineterminator="\n")
        self._writer.writerow(columns)

    def write(self, row) -> None:
        self._writer.writerow([format_cell(v) for v in row])


def _write_table(path, kind: str, config_hash: str, seed: int, header: list[str], rows) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        table = TableWriter(fh, kind, config_hash, seed, header)
        for row in rows:
            table.write(row)


def read_table(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a report table back into (meta, header, rows); every fault in it is
    a DataFormatError that names the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            meta = parse_report_header(fh.readline())
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError("table has no header row")
            rows = [row for row in reader if row]
    except (ValueError, csv.Error) as exc:  # a DataFormatError above, or bad UTF-8
        raise DataFormatError(f"{path}: {exc}") from exc
    return meta, header, rows


def write_eval_csv(path, report: EvalReport, config_hash: str, seed: int) -> None:
    header = ["instance_id"]
    header += [f"ndcg_at_{c}" for c in report.cutoffs]
    header += ["positive_rank", "history_length", "positive_train_frequency"]
    rows = []
    for r in report.results:
        row = [r.instance_id]
        row += [r.ndcg[c] for c in report.cutoffs]
        row += [r.positive_rank, r.history_length, r.positive_train_frequency]
        rows.append(row)
    _write_table(path, "eval", config_hash, seed, header, rows)


def write_strata_csv(path, strata: dict, config_hash: str, seed: int) -> None:
    rows = []
    for group in sorted(strata):
        for label, cell in strata[group].items():
            rows.append([group, label, cell["n"], cell["mean"]])
    _write_table(path, "strata", config_hash, seed, ["group", "label", "n", "mean"], rows)


def write_summary_json(path, payload: dict, config_hash: str, seed: int) -> None:
    body = dict(payload)
    body["config_hash"] = config_hash
    body["seed"] = seed
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_position_probe_csv(path, result: PositionProbeResult, config_hash: str, seed: int) -> None:
    rows = []
    for slot in result.slots:
        hist = result.histograms[slot]
        for rank, count in enumerate(hist):
            rows.append([slot, rank, int(count)])
    _write_table(path, "position_probe", config_hash, seed, ["probe_slot", "rank", "count"], rows)


def write_history_probe_csv(path, result: HistoryShuffleResult, config_hash: str, seed: int) -> None:
    rows = [["original", result.original_mean]]
    for i, value in enumerate(result.shuffle_means):
        rows.append([f"shuffle_{i}", value])
    _write_table(path, "history_probe", config_hash, seed, ["pass", "mean"], rows)


def summarize_history_probe(rows: list[list[str]]) -> HistoryShuffleResult:
    """Rebuild the probe result, and so its summary, from the raw table rows."""
    original = None
    means = []
    for row in rows:
        try:
            name, value = row
            value = float(value)
        except ValueError as exc:
            raise DataFormatError(f"history probe table has a bad row {row!r}") from exc
        if name == "original":
            original = value
        else:
            means.append(value)
    if original is None or not means:
        raise DataFormatError("history probe table is incomplete")
    return HistoryShuffleResult(original_mean=original, shuffle_means=np.asarray(means))


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 40, 50
_PLOT_W, _PLOT_H = _W - _ML - _MR, _H - _MT - _MB


def _write_svg(
    path, title: str, config_hash: str, seed: int, body: list[str], x_label: str, y_label: str | None = None
) -> None:
    """The chart frame around `body`: the title and plot box before it, the
    axis labels (x, then y if given) after it."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<desc>{report_header('svg', config_hash, seed)}</desc>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="black"/>',
        *body,
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-family="monospace" '
        f'font-size="12">{x_label}</text>',
    ]
    if y_label is not None:
        parts.append(
            f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-family="monospace" '
            f'font-size="12" transform="rotate(-90 16 {_H / 2:.1f})">{y_label}</text>'
        )
    parts.append("</svg>")
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt_coord(x: float) -> str:
    return f"{x:.2f}"


def write_line_chart_svg(
    path, xs, ys, title: str, config_hash: str, seed: int, y_label: str
) -> None:
    """ys against the training steps xs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size == 0:
        raise DataFormatError("line chart needs equal-length, non-empty xs and ys")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * _PLOT_H

    parts = []
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{_fmt_coord(px(t))}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_ML - 6}" y="{_fmt_coord(py(t) + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{t:.4g}</text>'
        )
    points = " ".join(f"{_fmt_coord(px(x))},{_fmt_coord(py(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    _write_svg(path, title, config_hash, seed, parts, "step", y_label)


def write_grouped_bars_svg(
    path, groups: dict[str, np.ndarray], title: str, config_hash: str, seed: int
) -> None:
    """One bar cluster per rank, one color-coded bar per group."""
    if not groups:
        raise DataFormatError("bar chart needs at least one group")
    names = list(groups)
    depth = max(len(v) for v in groups.values())
    top = max(1, max(int(np.max(v)) if len(v) else 0 for v in groups.values()))
    palette = ("steelblue", "darkorange", "seagreen", "firebrick", "mediumpurple")
    parts = []
    cluster_w = _PLOT_W / depth
    bar_w = cluster_w / (len(names) + 1)
    for gi, name in enumerate(names):
        values = groups[name]
        color = palette[gi % len(palette)]
        for rank in range(len(values)):
            h = float(values[rank]) / top * _PLOT_H
            x = _ML + rank * cluster_w + (gi + 0.5) * bar_w
            y = _H - _MB - h
            parts.append(
                f'<rect x="{_fmt_coord(x)}" y="{_fmt_coord(y)}" width="{_fmt_coord(bar_w)}" '
                f'height="{_fmt_coord(h)}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * gi}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="{color}">{name}</text>'
        )
    for rank in range(0, depth, max(1, depth // 10)):
        x = _ML + (rank + 0.5) * cluster_w
        parts.append(
            f'<text x="{_fmt_coord(x)}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{rank}</text>'
        )
    _write_svg(path, title, config_hash, seed, parts, "rank")
