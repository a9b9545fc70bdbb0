"""File formats: sparse multi-label datasets, model persistence, result
tables, and SVG plots.

A dataset is held as CSR arrays (``SparseDataset``), checked where they are
built: every constructor raises a ValueError naming the first row at fault
unless the arrays are ones that ``parse_dataset`` could return, so
parse(write(ds)) always gives ds back. ``parse_dataset`` reads a file line
by line and names the first bad line of a malformed one. ``write_parsed``
and ``read_parsed`` keep a parsed dataset's arrays in a sidecar file keyed
by the SHA-256 of its text, so a later read of the same bytes skips the
parse; the arrays it reads back are read-only views of the sidecar's bytes.

Everything written here is byte-deterministic for fixed inputs: floats are
formatted with round-tripping precision and no timestamps or environment
details leak into the output.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import math
import os
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise
from operator import itemgetter

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
    "text_key",
    "write_parsed",
    "read_parsed",
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


class SparseDataset:
    """Sparse multi-label dataset held as CSR arrays.

    Row i's features are ``indices[indptr[i]:indptr[i + 1]]`` with the
    ``values`` at the same positions, and its positive labels are
    ``label_indices[label_indptr[i]:label_indptr[i + 1]]``; labels a row
    does not list are negatives. Each row's indices are kept sorted and its
    label indices unique.

    ``SparseDataset(n, d, L, features, labels)`` takes per-row lists of
    ``(index, value)`` pairs and label sets, ``from_arrays`` the arrays.
    Both raise a ValueError naming the first row at fault unless the
    dataset is one that parse_dataset could return.
    """

    def __init__(self, n, d, L, features, labels):
        # the counts are known from the row lengths, so each array is filled
        # straight from the rows, with no flat list of the entries
        indptr, label_indptr = _indptr(map(len, features)), _indptr(map(len, labels))
        size = int(indptr[-1])
        self._set(
            n, d, L, indptr,
            np.fromiter(map(itemgetter(0), chain.from_iterable(features)), np.int64, size),
            np.fromiter(map(itemgetter(1), chain.from_iterable(features)), float, size),
            # a set need not iterate in order; sorting each row here is cheaper than a lexsort
            label_indptr, np.fromiter(chain.from_iterable(map(sorted, labels)), np.int64,
                                      int(label_indptr[-1])),
        )

    @classmethod
    def from_arrays(cls, n, d, L, indptr, indices, values, label_indptr, label_indices):
        """A dataset of CSR arrays; each row's entries are sorted here."""
        ds = cls.__new__(cls)
        ds._set(
            n, d, L, np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=float), np.asarray(label_indptr, dtype=np.int64),
            np.asarray(label_indices, dtype=np.int64),
        )
        return ds

    def _set(self, n, d, L, indptr, indices, values, label_indptr, label_indices):
        """Hold the arrays, each row sorted, once they are checked: the row
        pointers first, so that no check indexes past an array's end."""
        if not _dims_in_range(n, d, L):
            raise ValueError(f"dimensions n = {n}, d = {d}, L = {L} out of range")
        arrays = (indptr, indices, values, label_indptr, label_indices)
        if any(a.ndim != 1 for a in arrays) or values.size != indices.size:
            raise ValueError("CSR arrays must be one-dimensional, with a value per feature index")
        _raise_first((_pointer_fault(indptr, n, indices.size, "feature"),
                      _pointer_fault(label_indptr, n, label_indices.size, "label")))
        order = _row_order(indptr, indices)
        if order is not None:
            indices, values = indices[order], values[order]
        order = _row_order(label_indptr, label_indices)
        if order is not None:
            label_indices = label_indices[order]
            rows = _rows(label_indptr)
            fresh = np.r_[True, (rows[1:] > rows[:-1]) | (label_indices[1:] > label_indices[:-1])]
            label_indices = label_indices[fresh]
            label_indptr = _indptr(np.bincount(rows[fresh], minlength=label_indptr.size - 1))
        _raise_first(_fault(d, L, indptr, indices, values, label_indptr, label_indices))
        self.n, self.d, self.L = n, d, L
        self.indptr, self.indices, self.values = indptr, indices, values
        self.label_indptr, self.label_indices = label_indptr, label_indices

    def to_dense_X(self):
        X = np.zeros((self.n, self.d))
        X[_rows(self.indptr), self.indices] = self.values
        return X

    def label_matrix(self):
        Y = np.zeros((self.n, self.L), dtype=np.int8)
        Y[_rows(self.label_indptr), self.label_indices] = 1
        return Y


def _dims_in_range(n, d, L):
    """Whether n, d and L are a dataset's sizes; indices are held as int64."""
    return n >= 0 and d >= 1 and L >= 1 and max(n, d, L) < 2**63


def _indptr(counts):
    """Row pointers of rows with the given entry counts."""
    counts = np.fromiter(counts, np.int64)
    return np.concatenate(([0], np.cumsum(counts)))


def _rows(indptr):
    """The row of each stored entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _row_starts(indptr, size):
    """Whether each of the ``size`` stored entries begins its row; a mask
    of one byte per entry, where ``_rows`` takes eight."""
    starts = np.zeros(size + 1, dtype=bool)
    starts[indptr[:-1]] = True
    return starts[:size]


def _row_order(indptr, indices):
    """The stable permutation that sorts each row's entries by index, or
    None when every row's indices already strictly increase."""
    if np.all(_row_starts(indptr, indices.size)[1:] | (indices[1:] > indices[:-1])):
        return None
    return np.lexsort((indices, _rows(indptr)))


def _raise_first(faults):
    """Raise the ValueError of the first row at fault among ``faults``,
    (row, reason) pairs or None; of two at one row, the first listed."""
    found = [fault for fault in faults if fault is not None]
    if found:
        row, reason = min(found, key=itemgetter(0))
        raise ValueError(f"row {row}: {reason}")


def _pointer_fault(indptr, n, size, what):
    """The first row at which ``indptr`` are not the row pointers of n rows
    over ``size`` entries, and why, or None. A fault is named where a text
    would hold it: a row count other than n at the last row held, as
    parse_dataset names the last line, and entries past the last row at n."""
    if indptr.size != n + 1:
        return max(indptr.size, 1) - 2, f"{indptr.size} {what} row pointers, not n + 1 = {n + 1}"
    if indptr[0] != 0:
        return 0, f"{what} entries start at {indptr[0]}, not 0"
    bad = (indptr[1:] < indptr[:-1]) | (indptr[1:] > size)
    if bad.any():
        row = int(np.argmax(bad))
        return row, f"{what} entries {indptr[row]} to {indptr[row + 1]} of the {size} stored"
    if indptr[-1] != size:
        return n, f"{size - indptr[-1]} {what} entries past the last row"


def _fault(d, L, indptr, j, v, label_indptr, k):
    """Per kind of entry that parse_dataset rejects, the first row holding
    one and why, as (row, reason), or None; the row pointers must be
    checked and each row sorted. One kind's mask is held at a time."""
    yield _first(indptr, ~np.isfinite(v), lambda p: f"non-finite feature value {float(v[p])!r}")
    yield _first(indptr, (j < 0) | (j >= d),
                 lambda p: f"feature index {j[p]} out of range [0, {d})")
    yield _first(indptr, np.r_[False, ~_row_starts(indptr, j.size)[1:] & (j[1:] == j[:-1])],
                 lambda p: f"duplicate feature index {j[p]}")
    yield _first(label_indptr, (k < 0) | (k >= L),
                 lambda p: f"label index {k[p]} out of range [0, {L})")


def _first(indptr, bad, say):
    """The row of the first entry marked in ``bad``, and ``say`` of it, or None."""
    if bad.any():
        p = int(np.argmax(bad))
        # the last row to start at or before p; empty rows start there too
        return int(np.searchsorted(indptr, p, "right")) - 1, say(p)


def _fail(line_no, message):
    raise DatasetFormatError(f"line {line_no}: {message}")


# rows that write_dataset formats at a time, so a file's token strings are
# never all held at once; at the walkthrough's 50 features a row, 64 rows
# write as fast as 256 and hold a quarter of the strings
_BLOCK_ROWS = 64


def parse_dataset(stream):
    """Parse the plain-text sparse dataset format.

    Header line "n d L", then one line per instance: comma-separated
    positive label indices, a space, then "idx:val" feature tokens, all
    0-based. An empty label field (line starting with a space) means no
    positive labels. A feature index may appear once per line.

    Each line is checked as it is read, so a malformed text raises the
    DatasetFormatError naming its first bad line. Each line's feature
    indices and values and its labels are appended to flat arrays, from
    which the CSR arrays are made once, each row sorted by ``from_arrays``.
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
    if not _dims_in_range(n, d, L):
        _fail(1, "header dimensions out of range")
    if len(lines) - 1 != n:
        _fail(len(lines), f"expected {n} instance lines, found {len(lines) - 1}")
    # array.array keeps machine ints and floats, so the text's numbers are
    # never all held as Python objects at once
    feat_ends, feat_idx, feat_val = [0], array("q"), array("d")
    label_ends, label_idx = [0], array("q")
    for line_no, line in enumerate(lines[1:], start=2):
        label_field, _, feat_field = line.partition(" ")
        if label_field:
            for tok in label_field.split(","):
                try:
                    j = int(tok)
                except ValueError:
                    _fail(line_no, f"bad label index {tok!r}")
                if not 0 <= j < L:
                    _fail(line_no, f"label index {j} out of range [0, {L})")
                label_idx.append(j)
        label_ends.append(len(label_idx))
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
            feat_idx.append(j)
            feat_val.append(v)
        feat_ends.append(len(feat_idx))
    return SparseDataset.from_arrays(n, d, L, feat_ends, feat_idx, feat_val, label_ends, label_idx)


def write_dataset(dataset, stream):
    """Inverse of parse_dataset: parse(write(ds)) reads ds back unchanged,
    since a dataset is checked where it is built."""
    stream.write(f"{dataset.n} {dataset.d} {dataset.L}\n")
    indptr, label_indptr = dataset.indptr.tolist(), dataset.label_indptr.tolist()
    for start in range(0, dataset.n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, dataset.n)
        a, b = indptr[start], indptr[stop]
        tokens = list(map(":".join, zip(map(str, dataset.indices[a:b].tolist()),
                                        map(repr, dataset.values[a:b].tolist()))))
        la, lb = label_indptr[start], label_indptr[stop]
        labs = list(map(str, dataset.label_indices[la:lb].tolist()))
        lines = [
            " ".join([",".join(labs[l0 - la:l1 - la]), *tokens[f0 - a:f1 - a]])
            for (f0, f1), (l0, l1) in zip(pairwise(indptr[start:stop + 1]),
                                          pairwise(label_indptr[start:stop + 1]))
        ]
        stream.write("\n".join(lines) + "\n")


# A sidecar is one header line, "nondecomp-parsed <version> <key> <digest>",
# padded with spaces to a multiple of 8 bytes, then the payload, whose SHA-256
# is the digest: n, d, L and the lengths of the five CSR arrays as eight
# int64s, then the arrays' bytes, each array of the dtype listed for it; all
# numbers are little-endian
_PARSED_FORMAT = b"nondecomp-parsed 2"
_PARSED_ARRAYS = (("indptr", "<i8"), ("indices", "<i8"), ("values", "<f8"),
                  ("label_indptr", "<i8"), ("label_indices", "<i8"))


def text_key(data, encoding):
    """Key of a dataset file's bytes ``data`` read in ``encoding``: the
    SHA-256 of the bytes, and the codec, which decides what they parse to."""
    return f"{hashlib.sha256(data).hexdigest()}:{codecs.lookup(encoding).name}"


def _parsed_head(key, digest):
    line = b" ".join((_PARSED_FORMAT, key.encode("ascii"), digest.encode("ascii")))
    return line + b" " * (-(len(line) + 1) % 8) + b"\n"


def write_parsed(dataset, key, stream):
    """Write the sidecar of ``dataset``, parsed from the text keyed
    ``key``, to the binary ``stream``; the bytes depend on nothing else."""
    arrays = [np.ascontiguousarray(getattr(dataset, name), dtype)
              for name, dtype in _PARSED_ARRAYS]
    sizes = np.array([dataset.n, dataset.d, dataset.L, *(a.size for a in arrays)], "<i8")
    payload = b"".join([sizes, *arrays])
    stream.write(_parsed_head(key, hashlib.sha256(payload).hexdigest()))
    stream.write(payload)


def read_parsed(data, key):
    """The dataset that the sidecar bytes ``data`` hold for the text keyed
    ``key``, or None unless they are a whole sidecar of this format and
    version, for that key, whose payload matches its digest and its stated
    lengths exactly, and whose arrays ``SparseDataset.from_arrays`` takes.

    The dataset's arrays are read-only views of ``data``, not copies, and
    aligned where ``data`` is, as a bytes object is: the header line is
    padded to a multiple of 8 bytes."""
    end = data.find(b"\n") + 1
    payload = memoryview(data)[end:]
    if data[:end] != _parsed_head(key, hashlib.sha256(payload).hexdigest()) or len(payload) < 64:
        return None
    n, d, L, *sizes = np.frombuffer(data, "<i8", 8, end).tolist()
    if min(sizes) < 0 or len(payload) != 8 * (8 + sum(sizes)):
        return None
    offsets = accumulate((8 * size for size in sizes), initial=end + 64)
    arrays = [np.frombuffer(data, dtype, size, offset)
              for (_, dtype), size, offset in zip(_PARSED_ARRAYS, sizes, offsets)]
    try:
        return SparseDataset.from_arrays(n, d, L, *arrays)
    except ValueError:
        return None


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
    # Python floats format as numpy's scalars do, at a fraction of the cost
    for row in A.tolist():
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
        if len(sizes) != 3 or sizes[2] < 1:
            raise ModelFormatError("line 2: factored model needs 'dims d L k' with k >= 1")
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
