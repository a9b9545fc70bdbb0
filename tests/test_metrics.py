import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nondecomp.metrics import (
    METRIC_REGISTRY,
    Confusion,
    MetricSpec,
    _rank_ids,
    apply_threshold,
    confusion_grouped,
    confusion_micro,
    eval_metric,
    eval_metric_info,
    get_metric,
    threshold_sweep,
)

F1 = get_metric("micro_f1")
ACC = get_metric("accuracy")
INST_F1 = get_metric("instance_f1")
MACRO_F1 = get_metric("macro_f1")


def micro_conf(tp, fp, fn, tn, count=1):
    """A micro confusion (one slot, no group ids) with the given fractions."""
    return Confusion(*(np.array([v]) for v in (tp, fp, fn, tn, count)), group_ids=None)


def brute_force_sweep(z, y, spec, group_index=None):
    """Independent oracle: evaluate the metric at every cut point."""
    z = np.asarray(z, dtype=float)
    candidates = sorted(np.unique(z).tolist()) + [float(np.max(z)) + 1.0]
    best_val, best_theta = -np.inf, None
    for theta in candidates:
        yhat = (z >= theta).astype(np.int8)
        if spec.mode == "micro":
            conf = confusion_micro(yhat, y)
        else:
            conf = confusion_grouped(yhat, y, group_index)
        val = eval_metric(spec, conf)
        # smallest theta achieving the max
        if val > best_val or (val == best_val and theta < best_theta):
            best_val, best_theta = val, theta
    return best_theta, best_val


@st.composite
def heavy_tie_instances(draw):
    """Scores on a coarse grid (0 or 1 decimals), few groups, and labels
    that are often all positive or all negative."""
    m = draw(st.integers(1, 24))
    scale = draw(st.sampled_from([1.0, 10.0]))
    z = np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))) / scale
    kind = draw(st.sampled_from(["mixed", "all_negative", "all_positive"]))
    if kind == "mixed":
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    else:
        y = np.full(m, int(kind == "all_positive"))
    groups = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    return z, y.astype(np.int8), groups


class TestConfusionMicro:
    def test_perfect_prediction(self):
        y = np.array([1, 1, 1, 0])
        conf = confusion_micro(y, y)
        assert conf.tp == 0.75 and conf.tn == 0.25
        assert conf.fp == 0.0 and conf.fn == 0.0

    def test_degenerate_predictor(self):
        y = np.ones(5, dtype=int)
        yhat = np.zeros(5, dtype=int)
        conf = confusion_micro(yhat, y)
        assert conf.fn == 1.0
        assert conf.tp == conf.fp == conf.tn == 0.0

    def test_hand_enumerated(self):
        # entries (0,0), (0,1), (1,0)
        y = np.array([1, 0, 1])
        yhat = np.array([1, 1, 0])
        conf = confusion_micro(yhat, y)
        assert conf.tp == pytest.approx(1 / 3)
        assert conf.fp == pytest.approx(1 / 3)
        assert conf.fn == pytest.approx(1 / 3)
        assert conf.tn == 0.0

    def test_one_slot_without_group_ids(self):
        conf = confusion_micro(np.array([1, 0, 0]), np.array([1, 1, 0]))
        assert len(conf) == 1 and conf.group_ids is None
        assert conf.count.tolist() == [3]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty observation set"):
            confusion_micro(np.array([]), np.array([]))

    def test_nonbinary_errors(self):
        with pytest.raises(ValueError):
            confusion_micro(np.array([0, 2]), np.array([0, 1]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=40)
        yhat = rng.integers(0, 2, size=40)
        base = confusion_micro(yhat, y)
        for _ in range(5):
            perm = rng.permutation(40)
            conf = confusion_micro(yhat[perm], y[perm])
            assert (conf.tp, conf.fp, conf.fn, conf.tn) == (base.tp, base.fp, base.fn, base.tn)

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.integers(1, 50)
            y = rng.integers(0, 2, size=m)
            yhat = rng.integers(0, 2, size=m)
            conf = confusion_micro(yhat, y)
            assert abs(conf.tp + conf.fp + conf.fn + conf.tn - 1.0) <= 1e-12


class TestConfusionGrouped:
    def test_single_group_matches_micro(self):
        y = np.array([1, 0, 1, 1])
        yhat = np.array([1, 1, 0, 1])
        grouped = confusion_grouped(yhat, y, np.zeros(4, dtype=int))
        micro = confusion_micro(yhat, y)
        assert len(grouped) == 1
        assert (grouped.tp[0], grouped.fp[0], grouped.fn[0], grouped.tn[0]) == (
            micro.tp, micro.fp, micro.fn, micro.tn
        )
        assert grouped.count[0] == micro.count

    def test_two_rows_hand_check(self):
        # row 0 perfect, row 1 all wrong positives
        rows = np.array([0, 0, 1, 1])
        y = np.array([1, 0, 0, 0])
        yhat = np.array([1, 0, 1, 1])
        grouped = confusion_grouped(yhat, y, rows)
        assert len(grouped) == 2
        assert grouped.tp[0] + grouped.tn[0] == 1.0
        assert grouped.fp[1] + grouped.fn[1] == 1.0

    def test_empty_groups_reported(self):
        # groups with no observed entries get no slot; group_ids names the rest
        rows = np.array([0, 0, 3])
        y = np.array([1, 0, 1])
        grouped = confusion_grouped(y, y, rows)
        assert len(grouped) == 2
        assert list(grouped.group_ids) == [0, 3]
        assert list(grouped.count) == [2, 1]


def reference_grouped(yhat, y, group_index):
    """Confusion per group, ranked by np.unique and counted entry by entry."""
    ids, inv = np.unique(group_index, return_inverse=True)
    counts = np.zeros((len(ids), 4), dtype=np.int64)  # tn, fn, fp, tp
    for g, a, b in zip(inv, yhat, y):
        counts[g, 2 * a + b] += 1
    tn, fn, fp, tp = counts.T
    total = tp + fp + fn + tn
    return Confusion(tp / total, fp / total, fn / total, tn / total, total, ids)


GROUP_ID_CASES = {
    "gaps_repeats_unsorted": np.array([7, 2, 7, 11, 2, 40, 11, 7, 0, 40]),
    "no_gaps_unsorted": np.array([3, 0, 2, 1, 3, 0, 1, 2, 2]),
    "one_group": np.full(5, 6),
    "one_entry": np.array([13]),
    "int32_gaps": np.array([9, 4, 4, 30, 9], dtype=np.int32),
    "uint8_gaps": np.array([1, 200, 1, 77], dtype=np.uint8),
    # no gaps in small dtypes, where 4 * id wraps unless ranks are widened
    "uint8_no_gaps": np.arange(100, dtype=np.uint8)[::-1],
    "int8_no_gaps": np.arange(100, dtype=np.int8),
    "int16_no_gaps": np.arange(9000, dtype=np.int16),
    "uint16_no_gaps": np.arange(17000, dtype=np.uint16)[::-1],
    "uint64_gaps": np.array([5, 0, 5, 9], dtype=np.uint64),
}


class TestGroupIds:
    """Group ids are nonnegative integers, ranked by counting into one
    counter per id up to the largest."""

    @pytest.mark.parametrize("case", sorted(GROUP_ID_CASES))
    def test_ranks_match_np_unique(self, case):
        gi = GROUP_ID_CASES[case]
        rng = np.random.default_rng(len(gi))
        y = rng.integers(0, 2, size=gi.size).astype(np.int8)
        yhat = rng.integers(0, 2, size=gi.size).astype(np.int8)
        got = confusion_grouped(yhat, y, gi)
        want = reference_grouped(yhat, y, gi)
        for field in ("tp", "fp", "fn", "tn", "count", "group_ids"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("case", sorted(GROUP_ID_CASES))
    def test_rank_ids_is_np_unique(self, case):
        gi = GROUP_ID_CASES[case]
        got, want = _rank_ids(gi), np.unique(gi, return_inverse=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", [INST_F1, MACRO_F1])
    def test_sweep_on_gapped_ids_equals_sweep_on_relabelled_ids(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 60))
            z = np.round(rng.normal(size=m), 2)
            y = rng.integers(0, 2, size=m)
            gapped = rng.choice(np.array([3, 8, 9, 21, 50]), size=m)
            relabelled = np.unique(gapped, return_inverse=True)[1]
            assert threshold_sweep(z, y, spec, gapped) == threshold_sweep(z, y, spec, relabelled)

    @pytest.mark.parametrize(
        "ids", [np.array([0, -1, 2]), np.array([0.0, 1.0, 2.0]), np.array([True, False, True])]
    )
    def test_ids_other_than_nonnegative_integers_rejected(self, ids):
        y = np.array([1, 0, 1])
        with pytest.raises(ValueError, match="nonnegative integers"):
            confusion_grouped(y, y, ids)
        with pytest.raises(ValueError, match="nonnegative integers"):
            threshold_sweep(np.array([0.5, -1.0, 2.0]), y, MACRO_F1, ids)


class TestEvalMetric:
    def test_perfect_f1(self):
        conf = micro_conf(tp=0.5, fp=0.0, fn=0.0, tn=0.5, count=10)
        assert eval_metric(F1, conf) == 1.0

    def test_f1_formula(self):
        conf = micro_conf(tp=0.25, fp=0.25, fn=0.25, tn=0.25, count=4)
        assert eval_metric(F1, conf) == pytest.approx(0.5)

    def test_hamming_accuracy(self):
        conf = micro_conf(tp=0.3, fp=0.1, fn=0.2, tn=0.4, count=10)
        assert eval_metric(ACC, conf) == pytest.approx(0.7)

    def test_degenerate_group_contributes_zero(self):
        conf = micro_conf(tp=0.0, fp=0.0, fn=0.0, tn=1.0, count=3)
        info = eval_metric_info(F1, conf)
        assert info.value == 0.0
        assert info.degenerate_groups == 1

    def test_mode_arity_enforced(self):
        conf = micro_conf(tp=1.0, fp=0.0, fn=0.0, tn=0.0, count=1)
        with pytest.raises(ValueError):
            eval_metric(INST_F1, conf)
        with pytest.raises(ValueError):
            eval_metric(F1, [conf, conf])
        grouped = confusion_grouped(np.array([1, 0]), np.array([1, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            eval_metric(F1, grouped)

    def test_instance_equals_micro_on_identical_rows(self):
        # both rows have the same confusion fractions
        rows = np.array([0, 0, 1, 1])
        y = np.array([1, 0, 1, 0])
        yhat = np.array([1, 1, 1, 1])
        micro = eval_metric(F1, confusion_micro(yhat, y))
        inst = eval_metric(INST_F1, confusion_grouped(yhat, y, rows))
        assert inst == pytest.approx(micro, abs=1e-15)

    def test_f1_and_accuracy_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            parts = rng.dirichlet(np.ones(4))
            conf = micro_conf(*parts, count=100)
            assert 0.0 <= eval_metric(F1, conf) <= 1.0
            assert 0.0 <= eval_metric(ACC, conf) <= 1.0

    def test_nan_coefficients_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(a11=float("nan"))


class TestApplyThreshold:
    def test_boundary_inclusive(self):
        assert apply_threshold(np.array([-1.0, 0.0, 2.0]), 0.0).tolist() == [0, 1, 1]

    def test_above_max_all_zero(self):
        z = np.array([0.5, 1.5])
        assert apply_threshold(z, z.max() + 1.0).sum() == 0

    def test_below_min_all_one(self):
        z = np.array([0.5, 1.5])
        assert apply_threshold(z, z.min() - 1.0).sum() == 2

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            apply_threshold(np.array([np.nan]), 0.0)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        z = np.round(rng.normal(size=50), 6)
        theta = float(z[7])
        base = apply_threshold(z, theta)
        for c in (0.5, 2.0, 3.0, 10.0):
            assert np.array_equal(apply_threshold(c * z, c * theta), base)


class TestThresholdSweep:
    def test_separable_scores_reach_one(self):
        y = np.array([0, 0, 1, 1, 1])
        z = np.array([-2.0, -1.0, 0.5, 1.0, 3.0])
        res = threshold_sweep(z, y, F1)
        assert res.value == 1.0

    def test_all_positive_labels(self):
        y = np.ones(4, dtype=int)
        z = np.array([0.1, -0.5, 2.0, 1.0])
        res = threshold_sweep(z, y, F1)
        assert res.theta_hat == z.min()
        assert res.value == 1.0

    def test_candidates_counted(self):
        z = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([0, 1, 1, 1])
        res = threshold_sweep(z, y, F1)
        assert res.candidates_evaluated == 4  # 3 distinct + sentinel

    def test_value_matches_eval_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.integers(2, 60)
            z = np.round(rng.normal(size=m), 3)  # force ties
            y = rng.integers(0, 2, size=m)
            res = threshold_sweep(z, y, F1)
            yhat = apply_threshold(z, res.theta_hat)
            assert res.value == eval_metric(F1, confusion_micro(yhat, y))

    @pytest.mark.parametrize("spec", [F1, ACC, INST_F1, MACRO_F1])
    def test_matches_brute_force(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(2, 50))
            z = np.round(rng.normal(size=m), 2)
            y = rng.integers(0, 2, size=m)
            rows = rng.integers(0, 4, size=m)
            gi = rows if spec.mode != "micro" else None
            res = threshold_sweep(z, y, spec, group_index=gi)
            theta_bf, val_bf = brute_force_sweep(z, y, spec, group_index=rows)
            assert res.value == val_bf
            assert res.theta_hat == theta_bf

    @pytest.mark.parametrize("name", sorted(METRIC_REGISTRY))
    @settings(max_examples=60)
    @given(case=heavy_tie_instances())
    def test_matches_brute_force_heavy_ties(self, name, case):
        z, y, groups = case
        spec = get_metric(name)
        gi = groups if spec.mode != "micro" else None
        res = threshold_sweep(z, y, spec, group_index=gi)
        theta_bf, val_bf = brute_force_sweep(z, y, spec, group_index=groups)
        assert res.value == val_bf
        assert res.theta_hat == theta_bf

    def test_plateau_returns_smallest_maximizer(self):
        # row 0 is ranked perfectly for -10 < theta <= 9; rows 1-5 hold no
        # positives, so flipping their 50 negatives leaves every row's F1
        # unchanged and all 51 candidates from 9 down to -5 tie exactly
        plateau = np.linspace(-5.0, 5.0, 50)
        z = np.concatenate(([10.0, 9.0, -10.0], plateau))
        y = np.concatenate(([1, 1, 0], np.zeros(50, dtype=int)))
        rows = np.concatenate(([0, 0, 0], 1 + np.arange(50) % 5))
        res = threshold_sweep(z, y, INST_F1, group_index=rows)
        theta_bf, val_bf = brute_force_sweep(z, y, INST_F1, group_index=rows)
        assert (res.theta_hat, res.value) == (theta_bf, val_bf) == (-5.0, 1.0 / 6.0)

    @pytest.mark.parametrize("top", [1e17, 1e300, -1e17])
    def test_sentinel_lies_above_huge_scores(self, top):
        # top + 1.0 == top here, so only a sentinel past nextafter(top)
        # gives the all-negative labeling the sweep's value was scored on
        z = np.array([top, top - abs(top) / 2])
        y = np.array([0, 0])
        res = threshold_sweep(z, y, ACC)
        yhat = apply_threshold(z, res.theta_hat)
        assert res.theta_hat > top and yhat.sum() == 0
        assert res.value == eval_metric(ACC, confusion_micro(yhat, y)) == 1.0

    def test_scores_with_no_finite_sentinel_rejected(self):
        # nextafter(max float, inf) is inf, so no finite theta labels all negative
        z = np.array([np.finfo(float).max, 0.0])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="largest finite"):
            threshold_sweep(z, np.array([0, 0]), ACC)
        assert threshold_sweep(np.nextafter(z, 0.0), np.array([0, 0]), ACC).theta_hat < np.inf

    def test_grouped_needs_group_index(self):
        with pytest.raises(ValueError, match="group_index"):
            threshold_sweep(np.array([1.0]), np.array([1]), INST_F1)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            threshold_sweep(np.array([]), np.array([]), F1)


class TestRegistry:
    def test_known_names(self):
        assert set(METRIC_REGISTRY) == {
            "micro_f1", "instance_f1", "macro_f1", "accuracy", "jaccard",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("f2")

    def test_jaccard_formula(self):
        conf = micro_conf(tp=0.25, fp=0.25, fn=0.25, tn=0.25, count=4)
        assert eval_metric(get_metric("jaccard"), conf) == pytest.approx(1 / 3)
