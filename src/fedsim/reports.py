"""Experiment outputs: round logs as CSV, a JSON summary, and SVG curves.

rounds.csv is long-format with the fixed column order
``round,record,client,key,value``: one row per round per metric, plus one row
per per-client field. Floats are written with repr precision so a parse
round-trips exactly; id lists are pipe-joined.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from pathlib import Path

from .data import utf8_lines
from .errors import ConfigError
from .experiment import ExperimentResult, RoundLog
from .ranking import RankEntry

CSV_COLUMNS = ["round", "record", "client", "key", "value"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ids(ids: list[int]) -> str:
    return "|".join(str(i) for i in ids)


def _parse_ids(raw: str) -> list[int]:
    return [int(part) for part in raw.split("|")] if raw else []


# The rounds.csv schema, one table per record in file order: key -> (field,
# format, parse). Round keys hold RoundLog fields, client keys its per-client
# dicts and rank keys RankEntry fields. rows_for_log and read_rounds_csv both
# walk these tables.
_SCHEMA = {
    "round": {
        "eta": ("eta", _fmt, float),
        "online": ("online", _ids, _parse_ids), "recovered": ("recovered", _ids, _parse_ids),
        "offline": ("offline", _ids, _parse_ids), "selected": ("selected", _ids, _parse_ids),
        "decentralized": ("decentralized", _fmt, lambda raw: raw == "1"),
        "rmse_global": ("rmse_global", _fmt, float), "alpha": ("alpha", _fmt, float),
        "events": ("events", ";".join, lambda raw: raw.split(";") if raw else []),
    },
    "client": {
        "init": ("provenance", _fmt, str), "rmse": ("client_rmse", _fmt, float),
        "payload_values": ("payloads", _fmt, int),
        "collab_source": ("collab_sources", _fmt, int),
    },
    "rank": {
        "L": ("divergence", _fmt, float), "A": ("participation", _fmt, float),
        "n": ("n_updates", _fmt, int),
        "P_L": ("pos_divergence", _fmt, int), "P_A": ("pos_participation", _fmt, int),
        "R": ("weight", _fmt, float),
    },
}


def rows_for_log(log: RoundLog) -> list[list[str]]:
    """Flatten one round into CSV rows in a deterministic order."""
    t = str(log.t)
    rows = []
    for key, (name, fmt, _) in _SCHEMA["round"].items():
        value = getattr(log, name)
        if value is not None:  # alpha is None in unranked rounds
            rows.append([t, "round", "", key, fmt(value)])
    for key, (name, fmt, _) in _SCHEMA["client"].items():
        per_client = getattr(log, name)
        for cid in sorted(per_client):
            rows.append([t, "client", str(cid), key, fmt(per_client[cid])])
    for entry in sorted(log.entries, key=lambda e: e.client_id):
        for key, (name, fmt, _) in _SCHEMA["rank"].items():
            if key == "P_L" and log.alpha is None:
                break  # positions and weights come only from ranked rounds
            rows.append([t, "rank", str(entry.client_id), key, fmt(getattr(entry, name))])
    return rows


def write_rounds_csv(logs: list[RoundLog], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for log in logs:
            writer.writerows(rows_for_log(log))


def read_rounds_csv(path: str | Path) -> list[RoundLog]:
    """Rebuild round logs from rounds.csv (inverse of write_rounds_csv).

    A malformed row, one with an unknown record or key, or a field over
    csv's size limit raises ConfigError, and bytes that are not UTF-8 raise
    ParseError, naming the file and line.
    """
    logs: dict[int, RoundLog] = {}
    entries: dict[int, dict[int, RankEntry]] = {}
    # closed on the way out, so an error that is kept holds no open file
    with contextlib.closing(utf8_lines(path)) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ConfigError(f"{path}: unexpected header {header}")
            for row in reader:
                try:
                    if len(row) != len(CSV_COLUMNS):
                        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
                    _read_row(logs, entries, *row)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
        except csv.Error as exc:  # a field over csv's size limit
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    for t, per_round in entries.items():
        logs[t].entries = [per_round[cid] for cid in sorted(per_round)]
    return [logs[t] for t in sorted(logs)]


def _read_row(logs, entries, t_raw, record, client, key, value) -> None:
    t = int(t_raw)
    log = logs.setdefault(t, RoundLog(t=t, eta=0.0, online=[], recovered=[], offline=[]))
    if record not in _SCHEMA:
        raise ValueError(f"unknown record {record!r}")
    if key not in _SCHEMA[record]:
        raise ValueError(f"unknown {record} key {key!r}")
    name, _, parse = _SCHEMA[record][key]
    if record == "round":
        setattr(log, name, parse(value))
    elif record == "client":
        getattr(log, name)[int(client)] = parse(value)
    else:
        cid = int(client)
        entry = entries.setdefault(t, {}).setdefault(
            cid,
            RankEntry(client_id=cid, divergence=0.0, participation=0.0, n_updates=0),
        )
        setattr(entry, name, parse(value))


def _finite_or_none(value: float | None) -> float | None:
    # strict JSON has no NaN or Infinity: a round without an RMSE, or one
    # that overflowed, is null
    return value if value is not None and math.isfinite(value) else None


def write_summary_json(result: ExperimentResult, path: str | Path) -> None:
    summary = {
        "variant": result.config.variant,
        "seed": result.config.seed,
        "rounds": len(result.logs),
        "n_clients": result.config.n_clients,
        "final_rmse": _finite_or_none(result.final_rmse()),
        "best_rmse": _finite_or_none(result.best_rmse()),
        "final_client_rmse": {
            str(cid): _finite_or_none(value)
            for cid, value in sorted(result.final_client_rmse().items())
        },
        "config": json.loads(result.config.to_json()),
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def rmse_series(logs: list[RoundLog]) -> list[tuple[float, float]]:
    return [(float(log.t), float(log.rmse_global)) for log in logs]


def write_curves_svg(series: dict[str, list[tuple[float, float]]], path: str | Path) -> None:
    """Plot one polyline per labeled series with a text legend."""
    width, height = 720, 440
    margin_l, margin_r, margin_t, margin_b = 60, 20, 40, 45
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs = [x for pts in series.values() for x, _ in pts]
    # NaN and infinite rounds are dropped; a run with no finite round gets
    # bare axes
    ys = [y for pts in series.values() for _, y in pts if math.isfinite(y)] or [0.0]
    if not xs:
        raise ConfigError("series contain no plottable points")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        # a flat series: a unit range, or one as wide as the value where a
        # unit is lost to rounding
        y_hi = y_lo + max(1.0, abs(y_lo))

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" font-size="15" text-anchor="middle" '
        'font-family="sans-serif">test RMSE by round</text>',
        # axes
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<text x="{margin_l - 8}" y="{sy(y_hi):.1f}" font-size="11" text-anchor="end" '
        f'font-family="sans-serif">{y_hi:.4g}</text>',
        f'<text x="{margin_l - 8}" y="{sy(y_lo):.1f}" font-size="11" text-anchor="end" '
        f'font-family="sans-serif">{y_lo:.4g}</text>',
        f'<text x="{sx(x_lo):.1f}" y="{height - 14}" font-size="11" text-anchor="middle" '
        f'font-family="sans-serif">{x_lo:.4g}</text>',
        f'<text x="{sx(x_hi):.1f}" y="{height - 14}" font-size="11" text-anchor="middle" '
        f'font-family="sans-serif">{x_hi:.4g}</text>',
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 4}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">round</text>',
    ]
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts if math.isfinite(y)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        ly = margin_t + 14 + 16 * idx
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        # a label may be any directory name; escaped by hand, since importing
        # xml.sax.saxutils or html would cost every run 0.3-6 MB of memory
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{text}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> dict[str, Path]:
    """Write rounds.csv, summary.json, and curves.svg into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "rounds": out_dir / "rounds.csv",
        "summary": out_dir / "summary.json",
        "curves": out_dir / "curves.svg",
    }
    write_rounds_csv(result.logs, paths["rounds"])
    write_summary_json(result, paths["summary"])
    write_curves_svg({result.config.variant: rmse_series(result.logs)}, paths["curves"])
    return paths


def collect_series(run_dirs: list[str | Path]) -> dict[str, list[tuple[float, float]]]:
    """Merge several run directories into one labeled series map for plotting."""
    series: dict[str, list[tuple[float, float]]] = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        label = run_dir.name
        summary_path = run_dir / "summary.json"
        if summary_path.exists():
            try:
                meta = json.loads("".join(utf8_lines(summary_path)))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{summary_path}:{exc.lineno}: {exc.msg}") from None
            if not isinstance(meta, dict):
                raise ConfigError(f"{summary_path}: expected a JSON object")
            label = f"{meta.get('variant', label)} (seed {meta.get('seed', '?')})"
        if label in series:
            label = f"{label} [{run_dir.name}]"
        series[label] = rmse_series(read_rounds_csv(run_dir / "rounds.csv"))
    return series
