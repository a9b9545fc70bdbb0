"""File formats: sparse multi-label datasets, model persistence, result
tables, and SVG plots.

Everything written here is byte-deterministic for fixed inputs: floats are
formatted with round-tripping precision and no timestamps or environment
details leak into the output.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .estimator import DenseModel, FactoredModel, ObservationSet
from .sampler import sample_omega

__all__ = [
    "SparseDataset",
    "ResultRow",
    "PlotSeries",
    "DatasetFormatError",
    "ModelFormatError",
    "parse_dataset",
    "write_dataset",
    "mask_observations",
    "save_model",
    "load_model",
    "write_results_csv",
    "append_results_csv",
    "RESULT_COLUMNS",
    "emit_plot",
]

RESULT_COLUMNS = ("method", "metric_name", "split", "value", "stderr", "config_hash")


class DatasetFormatError(ValueError):
    """Malformed dataset text; carries the offending line number."""


class ModelFormatError(ValueError):
    """Malformed or truncated model file; names the offending line."""


@dataclass
class SparseDataset:
    """Sparse multi-label dataset: per-row feature lists and label sets.

    Labels absent from a row's set are negatives. Feature indices within a
    row are unique and kept sorted.
    """

    n: int
    d: int
    L: int
    features: list
    labels: list

    def to_dense_X(self):
        X = np.zeros((self.n, self.d))
        for i, row in enumerate(self.features):
            for j, v in row:
                X[i, j] = v
        return X

    def label_matrix(self):
        Y = np.zeros((self.n, self.L), dtype=np.int8)
        for i, labs in enumerate(self.labels):
            for j in labs:
                Y[i, j] = 1
        return Y


def _fail(line_no, message):
    raise DatasetFormatError(f"line {line_no}: {message}")


def parse_dataset(stream):
    """Parse the plain-text sparse dataset format.

    Header line "n d L", then one line per instance: comma-separated
    positive label indices, a space, then "idx:val" feature tokens, all
    0-based. An empty label field (line starting with a space) means no
    positive labels.
    """
    lines = stream.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        _fail(1, "missing header")
    head = lines[0].split()
    if len(head) != 3:
        _fail(1, "header must be 'n d L'")
    try:
        n, d, L = (int(tok) for tok in head)
    except ValueError:
        _fail(1, "header must contain three integers")
    if n < 0 or d < 1 or L < 1:
        _fail(1, "header dimensions out of range")
    if len(lines) - 1 != n:
        _fail(len(lines), f"expected {n} instance lines, found {len(lines) - 1}")

    features = []
    labels = []
    for i in range(n):
        line_no = i + 2
        label_field, _, feat_field = lines[i + 1].partition(" ")
        labs = set()
        if label_field:
            for tok in label_field.split(","):
                try:
                    j = int(tok)
                except ValueError:
                    _fail(line_no, f"bad label index {tok!r}")
                if not 0 <= j < L:
                    _fail(line_no, f"label index {j} out of range [0, {L})")
                labs.add(j)
        feats = []
        seen = set()
        for tok in feat_field.split():
            idx_s, _, val_s = tok.partition(":")
            try:
                j = int(idx_s)
                v = float(val_s)
            except ValueError:
                _fail(line_no, f"bad feature token {tok!r}")
            if not math.isfinite(v):
                _fail(line_no, f"non-finite feature value {tok!r}")
            if not 0 <= j < d:
                _fail(line_no, f"feature index {j} out of range [0, {d})")
            if j in seen:
                _fail(line_no, f"duplicate feature index {j}")
            seen.add(j)
            feats.append((j, v))
        feats.sort(key=lambda p: p[0])
        features.append(feats)
        labels.append(labs)
    return SparseDataset(n=n, d=d, L=L, features=features, labels=labels)


def write_dataset(dataset, stream):
    """Inverse of parse_dataset; parse(write(ds)) preserves the content."""
    stream.write(f"{dataset.n} {dataset.d} {dataset.L}\n")
    for labs, feats in zip(dataset.labels, dataset.features):
        label_field = ",".join(str(j) for j in sorted(labs))
        tokens = [f"{j}:{v!r}" for j, v in sorted(feats, key=lambda p: p[0])]
        stream.write(" ".join([label_field, *tokens]) + "\n")


def mask_observations(Y, ratio, dist, seed, m=None):
    """Observe round(ratio * n * L) entries of a full n x L label matrix,
    or exactly m entries when ``m`` is given and ``ratio`` is None.

    Index pairs come from ``sample_omega``.
    """
    if (ratio is None) == (m is None):
        raise ValueError("give exactly one of ratio and m")
    if ratio is not None and not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError("labels must be a matrix")
    n, L = Y.shape
    if m is None:
        m = round(ratio * n * L)
    rows, cols = sample_omega(n, L, m, dist, seed)
    return ObservationSet(n, L, rows, cols, Y[rows, cols].astype(float))


def _write_matrix(stream, A):
    for row in A:
        stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _read_matrix(lines, start, shape, what):
    """Parse the matrix whose rows begin at index ``start`` of ``lines``; the
    array is built only after every row the header calls for has parsed."""
    rows, cols = shape
    if start + rows > len(lines):
        raise ModelFormatError(
            f"line 2: truncated stream while reading {what}; dims call for {rows} rows"
        )
    values = []
    for r in range(rows):
        line_no = start + r + 1
        parts = lines[start + r].split()
        if len(parts) != cols:
            raise ModelFormatError(
                f"line {line_no}: {what} row {r} has {len(parts)} values, expected {cols}"
            )
        try:
            values.append([float(p) for p in parts])
        except ValueError as exc:
            raise ModelFormatError(f"line {line_no}: {what} row {r}: {exc}") from None
        if not np.all(np.isfinite(values[-1])):
            raise ModelFormatError(f"line {line_no}: non-finite value in {what} row {r}")
    return np.array(values, dtype=float).reshape(shape), start + rows


def save_model(model, stream):
    """Write a model as text with full float precision."""
    if isinstance(model, DenseModel):
        kind, dims, matrices = "dense", model.W.shape, (model.W,)
    elif isinstance(model, FactoredModel):
        # W2 is L x k, so the dims read "d L k"
        kind, matrices = "factored", (model.W1, model.W2)
        dims = (model.W1.shape[0], *model.W2.shape)
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    theta = "none" if model.theta is None else f"{model.theta:.17g}"
    stream.write(f"nondecomp-model {kind}\ndims {' '.join(map(str, dims))}\ntheta {theta}\n")
    for A in matrices:
        _write_matrix(stream, A)


def load_model(stream):
    """Inverse of save_model."""
    lines = stream.read().split("\n")
    if len(lines) < 3:
        # name the first header line the stream lacks; a final "" ends the last line
        missing = len(lines) + (lines[-1] != "")
        raise ModelFormatError(f"line {missing}: truncated stream: missing header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "nondecomp-model" or head[1] not in ("dense", "factored"):
        raise ModelFormatError(f"line 1: bad header line {lines[0]!r}")
    kind = head[1]
    dims = lines[1].split()
    theta_line = lines[2].split()
    if not dims or dims[0] != "dims":
        raise ModelFormatError("line 2: missing dims line")
    if len(theta_line) != 2 or theta_line[0] != "theta":
        raise ModelFormatError("line 3: missing theta line")
    try:
        theta = None if theta_line[1] == "none" else float(theta_line[1])
    except ValueError:
        raise ModelFormatError(f"line 3: bad theta {theta_line[1]!r}") from None
    if theta is not None and not math.isfinite(theta):
        raise ModelFormatError(f"line 3: non-finite theta {theta_line[1]!r}")
    try:
        sizes = [int(v) for v in dims[1:]]
    except ValueError:
        raise ModelFormatError("line 2: dims must be integers") from None
    if any(v < 0 for v in sizes):
        raise ModelFormatError(f"line 2: negative dims {' '.join(dims[1:])}")
    if kind == "dense":
        if len(sizes) != 2:
            raise ModelFormatError("line 2: dense model needs 'dims d L'")
        W, end = _read_matrix(lines, 3, tuple(sizes), "W")
        model = DenseModel(W=W, theta=theta)
    else:
        if len(sizes) != 3:
            raise ModelFormatError("line 2: factored model needs 'dims d L k'")
        d, L, k = sizes
        W1, nxt = _read_matrix(lines, 3, (d, k), "W1")
        W2, end = _read_matrix(lines, nxt, (L, k), "W2")
        model = FactoredModel(W1=W1, W2=W2, theta=theta)
    for i in range(end, len(lines)):
        if lines[i].strip():
            raise ModelFormatError(f"line {i + 1}: unexpected line after the last matrix")
    return model


@dataclass(frozen=True)
class ResultRow:
    method: str
    metric_name: str
    split: str
    value: float
    stderr: float
    config_hash: str

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("result value must be finite")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _result_table(rows, header):
    """CSV records of ResultRows, after the column names when ``header``."""
    records = [(row.method, row.metric_name, row.split,
                repr(float(row.value)), repr(float(row.stderr)), row.config_hash)
               for row in rows]
    if not records:
        raise ValueError("empty result table")
    return [RESULT_COLUMNS] * header + records


def write_results_csv(rows, stream):
    """Serialize ResultRows with the fixed column order."""
    csv.writer(stream, lineterminator="\n").writerows(_result_table(rows, header=True))


def append_results_csv(rows, path):
    """Append rows to a results CSV, writing the header only when new."""
    table = _result_table(rows, header=not os.path.exists(path) or os.path.getsize(path) == 0)
    with open(path, "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


@dataclass(frozen=True)
class PlotSeries:
    name: str
    x: tuple
    y: tuple


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def emit_plot(series, stream, xlabel="sampling ratio", ylabel="metric"):
    """Write a deterministic SVG line plot, one polyline per series."""
    series = list(series)
    if not series:
        raise ValueError("empty plot series")
    for s in series:
        if len(s.x) == 0 or len(s.x) != len(s.y):
            raise ValueError(f"series {s.name!r} must have matching nonempty x and y")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("plot data must be finite")

    def bounds(v):
        lo, hi = float(v.min()), float(v.max())
        if hi == lo:
            pad = 0.5 if hi == 0 else abs(hi) * 0.1
            return lo - pad, hi + pad
        pad = (hi - lo) * 0.05
        return lo - pad, hi + pad

    x0, x1 = bounds(xs)
    y0, y1 = bounds(ys)

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4.0
        yv = y0 + (y1 - y0) * i / 4.0
        xpix = sx(xv)
        ypix = sy(yv)
        out.append(
            f'<line x1="{xpix:.2f}" y1="{_H - _MB}" x2="{xpix:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xpix:.2f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        out.append(
            f'<line x1="{_ML - 5}" y1="{ypix:.2f}" x2="{_ML}" y2="{ypix:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{ypix + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(_MT + _H - _MB) / 2:.2f})">{ylabel}</text>'
    )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{sx(float(xi)):.2f},{sy(float(yi)):.2f}" for xi, yi in zip(s.x, s.y)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = _MT + 16 + 16 * idx
        out.append(
            f'<line x1="{_W - _MR - 110}" y1="{ly - 4}" x2="{_W - _MR - 86}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 80}" y="{ly}" font-size="12">{s.name}</text>'
        )
    out.append("</svg>")
    stream.write("\n".join(out) + "\n")
