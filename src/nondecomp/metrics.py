"""Confusion counts, linear-fractional metric families, and the threshold
sweep that binarizes real scores to maximize a chosen metric.

Predictions and labels live on an observed set of (row, column) entries and
are passed as parallel numpy arrays. One type, ``Confusion``, holds the
confusion fractions: one slot per row (instance mode) or per column (macro
mode), or a single slot over all entries (micro mode). A metric's value is
the mean of its ratio over the slots. Everything here is a pure function of
its inputs.

Group ids are row or column indices: nonnegative integers, anything else
is rejected with ``ValueError``. They are ranked by counting, with one
counter per id up to the largest, so grouping m entries with ids below G
costs O(m + G) and sorts nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Confusion",
    "MetricSpec",
    "MetricEval",
    "ThresholdResult",
    "METRIC_REGISTRY",
    "get_metric",
    "confusion_micro",
    "confusion_grouped",
    "eval_metric",
    "eval_metric_info",
    "apply_threshold",
    "all_negative_threshold",
    "threshold_sweep",
]

_MODES = ("micro", "instance", "macro")

# groups whose ratio denominator falls below this contribute 0 to the metric
_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class Confusion:
    """Confusion fractions per group as parallel arrays.

    Slot g of tp/fp/fn/tn/count describes group ``group_ids[g]``; groups
    with no entries are dropped, the rest kept in ascending group-id order.
    The micro confusion pools every entry into one slot and has
    ``group_ids=None``. Fractions of a slot are nonnegative and sum to 1.
    """

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    count: np.ndarray
    group_ids: np.ndarray | None

    def __len__(self):
        return len(self.count)


@dataclass(frozen=True)
class MetricSpec:
    """Coefficients of a linear-fractional metric of confusion fractions.

    The metric value of one group is
        (a0 + a11*tp + a01*fp + a10*fn + a00*tn)
        / (b0 + b11*tp + b01*fp + b10*fn + b00*tn)
    evaluated on all observed entries jointly (micro), or averaged over
    per-row (instance) or per-column (macro) groups. Groups whose
    denominator falls below 1e-12 contribute 0 and are flagged as
    degenerate instead of raising.
    """

    a0: float = 0.0
    a11: float = 0.0
    a01: float = 0.0
    a10: float = 0.0
    a00: float = 0.0
    b0: float = 0.0
    b11: float = 0.0
    b01: float = 0.0
    b10: float = 0.0
    b00: float = 0.0
    mode: str = "micro"

    def __post_init__(self):
        coeffs = (
            self.a0, self.a11, self.a01, self.a10, self.a00,
            self.b0, self.b11, self.b01, self.b10, self.b00,
        )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("metric coefficients must be finite")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class MetricEval:
    """Metric value plus how many groups hit the degenerate-denominator path."""

    value: float
    degenerate_groups: int


@dataclass(frozen=True)
class ThresholdResult:
    """Best threshold found by a sweep and the metric value it achieves."""

    theta_hat: float
    value: float
    candidates_evaluated: int


def _f1_spec(mode):
    return MetricSpec(a11=2.0, b11=2.0, b01=1.0, b10=1.0, mode=mode)


METRIC_REGISTRY = {
    "micro_f1": _f1_spec("micro"),
    "instance_f1": _f1_spec("instance"),
    "macro_f1": _f1_spec("macro"),
    "accuracy": MetricSpec(a0=1.0, a01=-1.0, a10=-1.0, b0=1.0, mode="micro"),
    "jaccard": MetricSpec(a11=1.0, b11=1.0, b01=1.0, b10=1.0, mode="micro"),
}


def get_metric(name):
    """Look up a named MetricSpec from the registry."""
    try:
        return METRIC_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(METRIC_REGISTRY))
        raise ValueError(f"unknown metric {name!r}; expected one of: {known}") from None


def _as_binary(arr, what):
    a = np.asarray(arr)
    if a.size == 0:
        raise ValueError("empty observation set")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError(f"{what} must take values in {{0, 1}}")
    return a.astype(np.int8, copy=False)


def _ratio_arrays(spec, tp, fp, fn, tn):
    """Vectorized per-group ratios; degenerate groups contribute 0."""
    num = spec.a0 + spec.a11 * tp + spec.a01 * fp + spec.a10 * fn + spec.a00 * tn
    den = spec.b0 + spec.b11 * tp + spec.b01 * fp + spec.b10 * fn + spec.b00 * tn
    ok = den >= _DENOMINATOR_FLOOR
    vals = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    return vals, int(np.count_nonzero(~ok))


def _fractions(tp, fp, fn, tn):
    """Integer confusion counts to fractions of their total."""
    total = tp + fp + fn + tn
    return tp / total, fp / total, fn / total, tn / total


def _mean_ratio(spec, tp, fp, fn, tn):
    """Mean of the per-group ratios over the last axis (the groups)."""
    vals, ndeg = _ratio_arrays(spec, tp, fp, fn, tn)
    return vals.sum(axis=-1) / vals.shape[-1], ndeg


def confusion_micro(yhat, y):
    """Confusion fractions over all observed entries jointly: one slot,
    ``group_ids=None``."""
    return _confusion(yhat, y, None)


def confusion_grouped(yhat, y, group_index):
    """Confusion fractions per group (rows for instance mode, columns for macro).

    ``group_index`` holds the group id of each observed entry, a nonnegative
    integer (its row or column index); other ids raise ValueError. The ids
    are ranked by counting, which holds one counter per id up to the
    largest, so this costs O(m + G) for m entries with ids below G. Returns
    a Confusion with one slot per non-empty group, in ascending group-id
    order.
    """
    return _confusion(yhat, y, group_index)


def _rank_ids(gi):
    """``np.unique(gi, return_inverse=True)`` for group ids that are
    nonnegative integers, by counting: one counter per id up to the largest,
    O(m + G) for m entries with ids below G."""
    dtype = gi.dtype
    if dtype.kind not in "iu" or gi.min() < 0:
        raise ValueError("group ids must be nonnegative integers (row or column indices)")
    if not np.can_cast(dtype, np.intp):
        gi = gi.astype(np.intp)  # uint64, which bincount does not take
    counts = np.bincount(gi)
    ids = np.flatnonzero(counts).astype(dtype, copy=False)
    if ids.size == counts.size:  # no id below the largest is missing
        return ids, gi.astype(np.intp, copy=False)  # np.unique's inverse dtype
    return ids, (np.cumsum(counts > 0) - 1)[gi]


def _confusion(yhat, y, group_index):
    """Confusion per group of group_index, or in one slot when it is None."""
    yhat = _as_binary(yhat, "predictions")
    y = _as_binary(y, "labels")
    if yhat.shape != y.shape:
        raise ValueError("predictions and labels must be indexed by the same entries")
    gids, inv = None, 0
    if group_index is not None:
        gi = np.asarray(group_index)
        if gi.shape != y.shape:
            raise ValueError("group index must align with predictions and labels")
        gids, inv = _rank_ids(gi)
    ngrp = 1 if gids is None else len(gids)
    # each entry's outcome 2 * yhat + y, counted per group: tn, fn, fp, tp
    tn, fn, fp, tp = np.bincount(4 * inv + 2 * yhat + y, minlength=4 * ngrp).reshape(ngrp, 4).T
    return Confusion(*_fractions(tp, fp, fn, tn), count=tp + fp + fn + tn, group_ids=gids)


def eval_metric_info(spec, conf):
    """Evaluate a metric and report degenerate-denominator groups.

    ``conf`` comes from confusion_micro in micro mode and from
    confusion_grouped in instance/macro mode. Micro mode is the mean over
    its one slot.
    """
    if not isinstance(conf, Confusion) or (conf.group_ids is None) != (spec.mode == "micro"):
        raise ValueError(f"{spec.mode} mode needs the confusion of its own grouping")
    value, ndeg = _mean_ratio(spec, conf.tp, conf.fp, conf.fn, conf.tn)
    return MetricEval(float(value), ndeg)


def eval_metric(spec, conf):
    """Metric value alone; see eval_metric_info for the degenerate flag."""
    return eval_metric_info(spec, conf).value


def apply_threshold(z, theta):
    """Binarize scores: prediction is 1 exactly where z >= theta."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("scores must be finite")
    theta = float(theta)
    if math.isnan(theta):
        raise ValueError("threshold must not be NaN")
    return (z >= theta).astype(np.int8)


def all_negative_threshold(z):
    """The finite threshold just above every score of z, which labels every
    entry negative. Raises ValueError when the top score is the largest
    finite float, above which no finite threshold lies."""
    top = float(np.max(z))
    if top >= np.finfo(float).max:
        raise ValueError("scores must lie below the largest finite float")
    return max(top + 1.0, float(np.nextafter(top, np.inf)))  # top + 1.0 == top past 2**53


def threshold_sweep(z, y, spec, group_index=None):
    """Find the threshold maximizing a metric over all achievable labelings.

    Candidates are the distinct observed scores (a candidate equal to a
    score marks that entry positive) plus one sentinel strictly above the
    maximum, ``all_negative_threshold(z)``, which yields the all-negative
    labeling; scores with no finite sentinel are rejected. In micro mode,
    cumulative counts over the distinct scores give the exact ratio at
    every candidate. In the grouped modes, one sort of the entries by
    (group, score), per-group cumulative counts and per-candidate sums of
    the ratio changes give an approximate mean at every candidate; every
    candidate within the rounding bound of the approximate maximum is then
    recomputed exactly, with the arithmetic of ``eval_metric_info``, at
    O(G log m) each for G groups (a run of candidates that changes no
    group's ratio is recomputed once). Both cost O(m log m) for m observed
    entries, plus the rechecks. ``group_index`` follows the rule of
    ``confusion_grouped``: nonnegative integer ids, ranked by counting,
    which holds one counter per id up to the largest and costs O(m) plus
    the largest id.

    The largest exact value wins; ties go to the smallest threshold, i.e.
    the most-positive labeling among the maximizers. So ``value`` equals
    ``eval_metric`` of the thresholded labeling exactly.
    """
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty observation set")
    if not np.all(np.isfinite(z)):
        raise ValueError("scores must be finite")
    sentinel = all_negative_threshold(z)
    y = _as_binary(y, "labels")
    if z.shape != y.shape:
        raise ValueError("scores and labels must be indexed by the same entries")
    if spec.mode != "micro":
        if group_index is None:
            raise ValueError(f"{spec.mode} mode needs a group_index")
        group_index = np.asarray(group_index)
        if group_index.shape != z.shape:
            raise ValueError("group_index must align with scores")

    vals_asc, inv = np.unique(z, return_inverse=True)
    n_distinct = len(vals_asc)
    if spec.mode == "micro":
        k, best = _sweep_micro(spec, inv, y == 1, n_distinct)
    else:
        ginv = _rank_ids(group_index)[1]
        k, best = _sweep_grouped(spec, inv, y == 1, ginv, n_distinct)
    theta = float(vals_asc[k]) if k < n_distinct else sentinel
    return ThresholdResult(theta_hat=theta, value=best, candidates_evaluated=n_distinct + 1)


def _sweep_micro(spec, inv, true_pos, nd):
    """Best candidate index k (entries with inv >= k are positive; k = nd is
    the all-negative sentinel) and its exact ratio."""
    tp = np.cumsum(np.bincount(inv[true_pos], minlength=nd + 1)[::-1])[::-1]
    fp = np.cumsum(np.bincount(inv[~true_pos], minlength=nd + 1)[::-1])[::-1]
    vals, _ = _ratio_arrays(spec, *_fractions(tp, fp, tp[0] - tp, fp[0] - fp))
    k = int(np.argmax(vals))  # first maximum: the smallest threshold
    return k, float(vals[k])


def _sweep_grouped(spec, inv, true_pos, ginv, nd):
    """As _sweep_micro, for the mean ratio over the groups of ginv."""
    m = inv.size
    ngrp = int(ginv.max()) + 1
    # entries by (group, score descending): a group's entries at or above
    # candidate k form a prefix of its segment, ending after key g*nd + nd-1-k
    key = ginv.astype(np.int64) * nd + (nd - 1 - inv)
    order = np.argsort(key)
    key = key[order]
    cpos = np.concatenate(([0], np.cumsum(true_pos[order])))
    cnt = np.bincount(ginv, minlength=ngrp)
    start = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    npos = cpos[start + cnt] - cpos[start]

    def counts_at(p, g):
        """tp/fp/fn/tn of group g when its prefix ending before p is positive."""
        tp = cpos[p] - cpos[start[g]]
        fp = p - start[g] - tp
        return tp, fp, npos[g] - tp, cnt[g] - npos[g] - fp

    r_init, _ = _ratio_arrays(spec, *_fractions(*counts_at(start, np.arange(ngrp))))
    # one block per (group, candidate); its ratio after the flip and the change
    # against the group's previous block
    last = np.flatnonzero(np.append(key[1:] != key[:-1], True))
    g_b = ginv[order[last]]
    k_b = inv[order[last]]
    r_after, _ = _ratio_arrays(spec, *_fractions(*counts_at(last + 1, g_b)))
    same = np.append(False, g_b[1:] == g_b[:-1])
    delta = r_after - np.where(same, np.roll(r_after, 1), r_init[g_b])
    step = np.bincount(k_b, weights=delta, minlength=nd + 1)
    approx = r_init.sum() + np.cumsum(step[::-1])[::-1]

    # |approx - exact sum| <= eps * B * (3m + G + 1) to first order, for
    # B = G * max|ratio|: the <= 2m + nd + 1 roundings in delta, bincount and
    # cumsum each err by at most (eps/2) * 2B, and each pairwise sum of G
    # ratios (the base and the exact value) by (eps/2) * B * G. The true
    # maximizer lies within twice the bound of the approximate maximum.
    bound = ngrp * max(np.abs(r_after).max(), np.abs(r_init).max())
    tol = 4.0 * np.finfo(float).eps * bound * (m + ngrp + 1)
    near = np.flatnonzero(approx >= approx.max() - 2.0 * tol)

    # a candidate that changes no group's ratio has its upper neighbour's
    # exact value; recompute each run of such candidates once, at its top
    changed = np.zeros(nd + 1, dtype=bool)
    changed[k_b[delta != 0.0]] = True
    changed[nd] = True
    tops = np.flatnonzero(changed)
    rep = tops[np.searchsorted(tops, near)]
    uniq = np.unique(rep)

    def exact(ks):
        p = np.searchsorted(key, np.arange(ngrp) * nd + (nd - 1 - ks[:, None]), side="right")
        return _mean_ratio(spec, *_fractions(*counts_at(p, np.arange(ngrp))))[0]

    # chunks keep each (candidates x groups) work array near 2**18 entries
    chunks = np.array_split(uniq, -(-uniq.size * ngrp // 2**18))
    vals = np.concatenate([exact(ks) for ks in chunks])[np.searchsorted(uniq, rep)]
    i = int(np.argmax(vals))  # first maximum: the smallest threshold
    return int(near[i]), float(vals[i])
