"""Dataset ingestion and result serialization.

Covers the LIBSVM text format (read and write), seeded synthetic datasets,
the results CSV schema shared by the CLI and the plots, run manifests, and
a dependency-free SVG renderer for error curves.
"""

import csv
import datetime
import json
import math
import statistics
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .exceptions import InvalidInputError, ParseError
from .numerics import SeededRng
from .problem import Dataset


def _optional_float(text):
    return None if text == "" else float(text)


# the results-CSV columns in file order, each with the parser that reads it back
_CSV_COLUMNS = (
    ("method", str), ("q", float), ("tau", int), ("seed", int), ("iter", int),
    ("grad_evals", int), ("effective_passes", float), ("wall_seconds", float),
    ("error", float), ("lyapunov", _optional_float),
)
CSV_HEADER = [name for name, _ in _CSV_COLUMNS]


def _fmt(x):
    """Decimal formatting that round-trips float64 exactly."""
    return format(float(x), ".17g")


def parse_libsvm(path, d=None):
    """Parse a LIBSVM text file: one ``label idx:val idx:val ...`` line per
    sample, indices 1-based and strictly increasing.

    The dimension is the largest feature index seen unless ``d`` overrides
    it (needed when a split does not touch the trailing features).  Indices
    are converted to 0-based.  Blank lines are skipped.
    """
    indptr = [0]
    indices = []
    values = []
    labels = []
    max_idx = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"bad label {parts[0]!r}", line=lineno) from None
            prev = 0
            for tok in parts[1:]:
                left, sep, right = tok.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val, got {tok!r}", line=lineno)
                try:
                    j = int(left)
                    v = float(right)
                except ValueError:
                    raise ParseError(f"bad feature {tok!r}", line=lineno) from None
                if j <= prev:
                    raise ParseError(
                        f"indices must be 1-based and strictly increasing, got {j}",
                        line=lineno,
                    )
                prev = j
                indices.append(j - 1)
                values.append(v)
            max_idx = max(max_idx, prev)
            indptr.append(len(indices))
            labels.append(label)
    if not labels:
        raise ParseError(f"{path}: no samples")
    dim = max(max_idx, 1) if d is None else d
    if dim < max_idx:
        raise InvalidInputError(f"d override {d} below max feature index {max_idx}")
    return Dataset(indptr, indices, values, labels, dim)


def write_libsvm(data, path):
    """Serialize a dataset in LIBSVM text form (1-based indices)."""
    with open(path, "w", encoding="ascii") as fh:
        for y, idx, val in zip(data.labels, data.split(data.indices), data.split(data.values)):
            feats = " ".join(f"{int(j) + 1}:{_fmt(v)}" for j, v in zip(idx, val))
            fh.write(f"{_fmt(y)} {feats}\n" if feats else f"{_fmt(y)}\n")


def _synth(n, d, seed, draws):
    if n < 1 or d < 1:
        raise InvalidInputError("need n >= 1 and d >= 1")
    entries = draws(SeededRng(seed), n * (d + 1))
    # full CSR rows on the drawn buffer itself, which the values and labels share
    indptr, indices = np.arange(n + 1) * d, np.tile(np.arange(d), n)
    return Dataset(indptr, indices, entries[:n * d], entries[n * d:], d)


def synth_gaussian(n, d, seed):
    """Dataset with all entries of A and y i.i.d. standard normal.
    Entries are drawn row by row, then the labels; deterministic per seed."""
    return _synth(n, d, seed, SeededRng.normals)


def synth_uniform(n, d, seed):
    """Dataset with all entries of A and y i.i.d. uniform on [0, 1)."""
    return _synth(n, d, seed, SeededRng.uniforms)


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one results file, written as JSON beside it."""

    dataset_id: str
    loss: str
    lam: float
    q: float
    tau: int
    alpha: float
    seeds: tuple
    build: str
    created_utc: str

    @classmethod
    def new(cls, dataset_id, loss, lam, q, tau, alpha, seeds):
        """This build's manifest, stamped now."""
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return cls(dataset_id, loss, lam, q, tau, alpha, tuple(seeds), f"sagd-{__version__}", stamp)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class TrajectorySeries:
    """One solver run, ready for CSV serialization."""

    method: str
    q: float
    tau: int
    seed: int
    n: int
    points: list


def write_results_csv(series_list, path, manifest):
    """Write trajectories to CSV (stable column order, 17-significant-digit
    floats), and the :class:`RunManifest` next to it as
    ``<path>.manifest.json``."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for series in series_list:
            for p in series.points:
                writer.writerow(
                    [
                        series.method,
                        _fmt(series.q),
                        series.tau,
                        series.seed,
                        p.iter,
                        p.grad_evals,
                        _fmt(p.grad_evals / series.n),
                        _fmt(p.wall_seconds),
                        _fmt(p.error),
                        "" if p.lyapunov is None else _fmt(p.lyapunov),
                    ]
                )
    with open(f"{path}.manifest.json", "w", encoding="ascii") as fh:
        fh.write(manifest.to_json() + "\n")


def read_results_csv(path):
    """Parse a results CSV back into typed row dicts."""
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise ParseError(f"{path}: missing columns {missing}")
        pos = [(name, header.index(name), parse) for name, parse in _CSV_COLUMNS]
        rows = [{name: parse(rec[i]) for name, i, parse in pos} for rec in reader if rec]
    return rows


_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]

X_AXES = ("effective_passes", "wall_seconds")


def emit_svg_plot(csv_path, x_axis, out_path):
    """Render error curves from a results CSV as a standalone SVG.

    One polyline per (method, q, tau) series, over its finite positive errors
    (a diverged run's inf is left out); log10 y axis, ticks at integer decades.
    """
    if x_axis not in X_AXES:
        raise InvalidInputError(f"x_axis must be one of {X_AXES}, got {x_axis!r}")
    rows = read_results_csv(csv_path)
    series = {}
    for row in rows:
        key = (row["method"], row["q"], row["tau"])
        series.setdefault(key, []).append(row)
    curves = []
    for key, pts in series.items():
        # checkpoints are iteration-aligned across seeds, so a multi-seed
        # configuration collapses to one curve of per-iteration medians
        if len({r["seed"] for r in pts}) > 1:
            by_iter = {}
            for r in pts:
                by_iter.setdefault(r["iter"], []).append(r)
            pts = [
                {
                    x_axis: statistics.median(r[x_axis] for r in group),
                    "error": statistics.median(r["error"] for r in group),
                }
                for _, group in sorted(by_iter.items())
            ]
        else:
            pts.sort(key=lambda r: r["iter"])
        xy = [(r[x_axis], r["error"]) for r in pts if 0.0 < r["error"] < math.inf]
        if xy:
            curves.append((key, xy))
    if not curves:
        raise ParseError(f"{csv_path}: no finite positive-error points to plot")

    xs = [x for _, xy in curves for x, _ in xy]
    ys = [math.log10(y) for _, xy in curves for _, y in xy]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1

    width, height = 760, 480
    ml, mr, mt, mb = 70, 210, 20, 50
    pw, ph = width - ml - mr, height - mt - mb

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(logy):
        return mt + (y_hi - logy) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    decade_step = max(1, math.ceil((y_hi - y_lo) / 12))
    for dec in range(y_lo, y_hi + 1, decade_step):
        y = py(dec)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">1e{dec}</text>'
        )
    for k in range(6):
        x_val = x_lo + k * (x_hi - x_lo) / 5
        x = px(x_val)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" font-size="11" text-anchor="middle">'
            f"{x_val:.3g}</text>"
        )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{x_axis}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.2f})">error</text>'
    )
    for k, (key, xy) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(math.log10(y)):.2f}" for x, y in xy)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * k
        lx = ml + pw + 14
        label = f"{key[0]} q={key[1]:.4g} tau={key[2]}"
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5" class="legend-line"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" class="legend-entry">{label}</text>'
        )
    parts.append("</svg>")
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
