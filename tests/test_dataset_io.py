import hashlib
import io
import re
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nondecomp.dataset_io import (
    DatasetFormatError,
    ModelFormatError,
    PlotSeries,
    ResultRow,
    SparseDataset,
    emit_plot,
    load_model,
    mask_observations,
    parse_dataset,
    read_parsed,
    save_model,
    text_key,
    write_dataset,
    write_parsed,
    write_results_csv,
)
from nondecomp.estimator import DenseModel, FactoredModel, predict_scores
from nondecomp.sampler import OmegaDistribution, sample_omega

SAMPLE = "2 3 2\n0 0:1.0 2:-0.5\n1 1:2.0\n"


ARRAY_NAMES = ("indptr", "indices", "values", "label_indptr", "label_indices")


def assert_same_arrays(got, want):
    """The five CSR arrays of two datasets agree byte for byte, so -0.0 and
    0.0 differ."""
    for name in ARRAY_NAMES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestParseDataset:
    def test_hand_parse(self):
        ds = parse_dataset(io.StringIO(SAMPLE))
        assert (ds.n, ds.d, ds.L) == (2, 3, 2)
        want = SparseDataset(2, 3, 2, [[(0, 1.0), (2, -0.5)], [(1, 2.0)]], [{0}, {1}])
        assert_same_arrays(ds, want)

    def test_empty_label_field(self):
        ds = parse_dataset(io.StringIO("1 2 3\n 0:1.5\n"))
        assert_same_arrays(ds, SparseDataset(1, 2, 3, [[(0, 1.5)]], [set()]))

    def test_labels_only_line(self):
        ds = parse_dataset(io.StringIO("1 2 3\n0,2\n"))
        assert_same_arrays(ds, SparseDataset(1, 2, 3, [[]], [{0, 2}]))

    def test_duplicate_feature_index_rejected(self):
        with pytest.raises(DatasetFormatError, match="line 2.*duplicate"):
            parse_dataset(io.StringIO("1 2 1\n0 0:1 0:2\n"))

    def test_out_of_range_label(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("1 2 1\n3 0:1\n"))

    def test_out_of_range_feature(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("1 2 1\n0 5:1\n"))

    def test_malformed_header(self):
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_dataset(io.StringIO("2 3\n"))

    def test_wrong_line_count(self):
        with pytest.raises(DatasetFormatError, match="instance lines"):
            parse_dataset(io.StringIO("3 2 2\n0 0:1\n"))

    def test_bad_feature_token(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("1 2 1\n0 0:abc\n"))

    @pytest.mark.parametrize("val", ["nan", "inf", "-inf", "NaN"])
    def test_nonfinite_feature_rejected(self, val):
        with pytest.raises(DatasetFormatError, match="line 3: non-finite"):
            parse_dataset(io.StringIO(f"2 2 1\n0 0:1\n 1:{val}\n"))

    def test_header_dims_must_fit_int64(self):
        # indices are held as 64-bit integers
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(io.StringIO(f"1 {2**63} 1\n0 {2**63 - 1}:1\n"))
        assert str(err.value) == "line 1: header dimensions out of range"

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing header"),
        ("2 3\n", "line 1: header must be 'n d L'"),
        ("1 2 x\n0\n", "line 1: header must contain three integers"),
        ("1 0 1\n0\n", "line 1: header dimensions out of range"),
        ("3 2 2\n0 0:1\n", "line 2: expected 3 instance lines, found 1"),
        ("1 2 1\nx 0:1\n", "line 2: bad label index 'x'"),
        ("1 2 1\n3 0:1\n", "line 2: label index 3 out of range [0, 1)"),
        ("1 2 1\n0 5\n", "line 2: bad feature token '5'"),
        ("1 2 1\n0 5:\n", "line 2: bad feature token '5:'"),
        ("1 2 1\n0 0:abc\n", "line 2: bad feature token '0:abc'"),
        ("2 2 1\n0 0:1\n 1:nan\n", "line 3: non-finite feature value '1:nan'"),
        ("1 2 1\n0 5:1\n", "line 2: feature index 5 out of range [0, 2)"),
        ("1 2 1\n0 0:1 0:2\n", "line 2: duplicate feature index 0"),
    ], ids=["empty", "header_fields", "header_int", "header_range", "line_count",
            "label_token", "label_range", "no_colon", "no_value", "bad_value",
            "nonfinite", "feature_range", "duplicate"])
    def test_every_format_error_message(self, text, message):
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(io.StringIO(text))
        assert str(err.value) == message


class TestWriteDataset:
    def test_round_trip_bytes(self):
        # the last two rows of the second text: labels without features, and neither
        for text in (SAMPLE, "4 3 2\n0 0:1.0 2:-0.5\n1 1:2.0\n0,1\n\n"):
            ds = parse_dataset(io.StringIO(text))
            buf = io.StringIO()
            write_dataset(ds, buf)
            assert buf.getvalue() == text

    def test_round_trip_logical(self):
        rng = np.random.default_rng(0)
        n, d, L = 8, 5, 4
        features = []
        labels = []
        for _ in range(n):
            idx = sorted(rng.choice(d, size=rng.integers(0, d + 1), replace=False).tolist())
            features.append([(j, float(np.round(rng.normal(), 6))) for j in idx])
            labels.append(set(rng.choice(L, size=rng.integers(0, L + 1), replace=False).tolist()))
        ds = SparseDataset(n=n, d=d, L=L, features=features, labels=labels)
        buf = io.StringIO()
        write_dataset(ds, buf)
        back = parse_dataset(io.StringIO(buf.getvalue()))
        assert_same_arrays(back, ds)

        # a second write is byte-identical
        buf2 = io.StringIO()
        write_dataset(back, buf2)
        assert buf2.getvalue() == buf.getvalue()


    def test_canonical_form(self):
        # rows are written with sorted feature indices and sorted, unique labels
        ds = parse_dataset(io.StringIO("2 3 2\n1,0,1 2:0.5 0:-1.0\n 1:2.0\n"))
        buf = io.StringIO()
        write_dataset(ds, buf)
        assert buf.getvalue() == "2 3 2\n0,1 0:-1.0 2:0.5\n 1:2.0\n"


def csr(features, labels):
    """The CSR arrays of per-row (index, value) lists and label sets."""
    return (np.cumsum([0, *map(len, features)]), [j for row in features for j, _ in row],
            [v for row in features for _, v in row], np.cumsum([0, *map(len, labels)]),
            [k for row in labels for k in sorted(row)])


# every kind of fault a dataset can hold: n, d, L, per-row lists that hold
# it (or None) and else its CSR arrays, the first row at fault and why, and
# a text that holds it (or None)
FAULTS = [
    pytest.param(1, 2, 2, None, ([0, 1], [0, 1], [1.0, 2.0], [0, 0], []),
                 1, "1 feature entries past the last row", "1 2 2\n 0:1.0\n 1:2.0\n",
                 id="entry_past_the_last_row"),
    pytest.param(2, 2, 2, None, ([0, 5, 6], [0, 1], [1.0, 2.0], [0, 0, 0], []),
                 0, "feature entries 0 to 5 of the 2 stored", None, id="pointers_past_the_end"),
    pytest.param(2, 2, 2, None, ([0, 2, 1], [0, 1], [1.0, 2.0], [0, 0, 0], []),
                 1, "feature entries 2 to 1 of the 2 stored", None, id="falling_pointers"),
    pytest.param(1, 2, 2, ([[(0, 1.0)], [(1, 2.0)]], [set(), set()]), None,
                 1, "3 feature row pointers, not n + 1 = 2", "1 2 2\n 0:1.0\n 1:2.0\n",
                 id="rows_past_n"),
    pytest.param(1, 2, 2, None, ([0, 1], [0], [1.0], [0, 2], [1]),
                 0, "label entries 0 to 2 of the 1 stored", None,
                 id="label_pointers_past_the_end"),
    pytest.param(2, 2, 2, ([[(0, 1.0)], [(1, float("nan"))]], [set(), set()]), None,
                 1, "non-finite feature value nan", "2 2 2\n 0:1.0\n 1:nan\n", id="nonfinite"),
    pytest.param(2, 2, 2, ([[(0, 1.0)], [(2, 1.0)]], [set(), set()]), None,
                 1, "feature index 2 out of range [0, 2)", "2 2 2\n 0:1.0\n 2:1.0\n",
                 id="feature_range"),
    pytest.param(2, 2, 2, ([[(0, 1.0)], [(1, 1.0), (1, 2.0)]], [set(), set()]), None,
                 1, "duplicate feature index 1", "2 2 2\n 0:1.0\n 1:1.0 1:2.0\n",
                 id="duplicate"),
    pytest.param(2, 2, 2, ([[(0, 1.0)], [(0, 1.0)]], [set(), {2}]), None,
                 1, "label index 2 out of range [0, 2)", "2 2 2\n 0:1.0\n2 0:1.0\n",
                 id="label_range"),
    pytest.param(2, 2, 2, ([[(0, 1.0)]], [set()]), None,
                 0, "2 feature row pointers, not n + 1 = 3", "2 2 2\n 0:1.0\n", id="row_count"),
]


def faults(field):
    """The FAULTS that give the field at index ``field``: 3, lists; 7, a text."""
    return [fault for fault in FAULTS if fault.values[field] is not None]


class TestRefusals:
    """Every way to build a dataset refuses each fault with a ValueError
    naming its first row, never another exception: the constructors, a
    sidecar with its own digest (a miss), and parse_dataset of a text that
    holds the fault, which names line row + 2."""

    @pytest.mark.parametrize("n, d, L, rows, arrays, row, reason, text", faults(3))
    def test_list_constructor(self, n, d, L, rows, arrays, row, reason, text):
        with pytest.raises(ValueError) as err:
            SparseDataset(n, d, L, *rows)
        assert str(err.value) == f"row {row}: {reason}"

    @pytest.mark.parametrize("n, d, L, rows, arrays, row, reason, text", FAULTS)
    def test_from_arrays(self, n, d, L, rows, arrays, row, reason, text):
        with pytest.raises(ValueError) as err:
            SparseDataset.from_arrays(n, d, L, *(arrays or csr(*rows)))
        assert str(err.value) == f"row {row}: {reason}"

    @pytest.mark.parametrize("n, d, L, rows, arrays, row, reason, text", FAULTS)
    def test_sidecar_with_its_own_digest(self, n, d, L, rows, arrays, row, reason, text):
        assert read_parsed(signed(payload(n, d, L, arrays or csr(*rows))), KEY) is None

    @pytest.mark.parametrize("n, d, L, rows, arrays, row, reason, text", faults(7))
    def test_parse_of_a_text(self, n, d, L, rows, arrays, row, reason, text):
        with pytest.raises(DatasetFormatError, match=f"^line {row + 2}: "):
            parse_dataset(io.StringIO(text))

    @pytest.mark.parametrize("features, labels, message", [
        ([[], [], [(5, 1.0)], [(1, 1.0), (1, 2.0)]], [set()] * 4,
         "row 2: feature index 5 out of range [0, 2)"),
        ([[], [], [(1, 1.0), (1, 2.0)], []], [set(), set(), set(), {2}],
         "row 2: duplicate feature index 1"),
        ([[(0, 1.0)], [], [], [(0, float("inf"))]], [set(), set(), {2}, set()],
         "row 2: label index 2 out of range [0, 2)"),
    ], ids=["after_empty_rows", "duplicate_before_label", "label_before_value"])
    def test_names_the_first_row_at_fault(self, features, labels, message):
        # an empty row shares its start with the next row, which holds the entry
        with pytest.raises(ValueError) as err:
            SparseDataset(n=4, d=2, L=2, features=features, labels=labels)
        assert str(err.value) == message

    @pytest.mark.parametrize("n, d, L, arrays", [
        (0, 0, 1, ([0], [], [], [0], [])),
        (0, 1, 2**63, ([0], [], [], [0], [])),
        (1, 2, 2, ([[0, 1]], [0], [1.0], [0, 0], [])),
        (1, 2, 2, ([0, 2], [0, 1], [1.0], [0, 0], [])),
    ], ids=["no_features", "labels_past_int64", "two_dim_pointers", "missing_value"])
    def test_sizes_and_shapes(self, n, d, L, arrays):
        with pytest.raises(ValueError):
            SparseDataset.from_arrays(n, d, L, *arrays)


class TestBenchDatasetApi:
    """The dataset calls the benchmark makes, in the form it makes them, so
    that a change to this API fails here rather than in a benchmark run."""

    X = np.array([[0.5, -1.25, 0.0], [2.0, 0.1, -0.0], [1e-300, 3.0, -7.5]])
    Y = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 1, 0]], dtype=np.int8)

    def test_lists_in_dense_arrays_out(self, tmp_path):
        ds = SparseDataset(
            n=3, d=3, L=4,
            features=[list(enumerate(row.tolist())) for row in self.X],
            labels=[set(np.flatnonzero(row).tolist()) for row in self.Y],
        )
        path = tmp_path / "train.txt"
        with open(path, "w") as fh:
            write_dataset(ds, fh)
        with open(path) as fh:
            back = parse_dataset(fh)
        for got in (ds, back):
            X, Y = got.to_dense_X(), got.label_matrix()
            assert (X.dtype, X.shape, Y.dtype, Y.shape) == (np.float64, (3, 3), np.int8, (3, 4))
            assert X.tobytes() == self.X.tobytes()
            assert Y.tobytes() == self.Y.tobytes()
        assert_same_arrays(back, ds)


class TestMaskObservations:
    def test_full_ratio_covers_everything(self):
        Y = np.random.default_rng(1).integers(0, 2, size=(6, 5))
        obs = mask_observations(Y, 1.0, OmegaDistribution.uniform(), seed=0)
        assert obs.size == 30
        np.testing.assert_array_equal(obs.values, Y[obs.rows, obs.cols].astype(float))

    def test_count_is_rounded_product(self):
        Y = np.zeros((100, 10), dtype=np.int8)
        obs = mask_observations(Y, 0.2, OmegaDistribution.uniform(), seed=1)
        assert obs.size == 200

    def test_dataset_source_absent_labels_are_zero(self):
        ds = parse_dataset(io.StringIO(SAMPLE))
        obs = mask_observations(ds.label_matrix(), 1.0, OmegaDistribution.uniform(), seed=2)
        np.testing.assert_array_equal(obs.values.reshape(2, 2), [[1.0, 0.0], [0.0, 1.0]])

    def test_seed_reproducible(self):
        Y = np.random.default_rng(3).integers(0, 2, size=(20, 20))
        a = mask_observations(Y, 0.3, OmegaDistribution.uniform(), seed=9)
        b = mask_observations(Y, 0.3, OmegaDistribution.uniform(), seed=9)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_ratio_bounds(self):
        Y = np.zeros((4, 4))
        with pytest.raises(ValueError):
            mask_observations(Y, 0.0, OmegaDistribution.uniform(), seed=0)
        with pytest.raises(ValueError):
            mask_observations(Y, 1.2, OmegaDistribution.uniform(), seed=0)

    @pytest.mark.parametrize("m", [1, 37, 200])
    def test_count_draws_the_pairs_sample_omega_draws(self, m):
        Y = np.random.default_rng(5).integers(0, 2, size=(20, 10))
        obs = mask_observations(Y, None, OmegaDistribution.uniform(), seed=7, m=m)
        rows, cols = sample_omega(20, 10, m, OmegaDistribution.uniform(), 7)
        np.testing.assert_array_equal(obs.rows, rows)
        np.testing.assert_array_equal(obs.cols, cols)
        np.testing.assert_array_equal(obs.values, Y[rows, cols].astype(float))

    @pytest.mark.parametrize("ratio, m", [(None, None), (0.5, 8), (None, 0), (None, 17)])
    def test_count_needs_exactly_one_valid_size(self, ratio, m):
        with pytest.raises(ValueError):
            mask_observations(np.zeros((4, 4)), ratio, OmegaDistribution.uniform(), 0, m=m)


class TestModelRoundTrip:
    def test_dense_exact(self):
        rng = np.random.default_rng(4)
        model = DenseModel(W=rng.normal(size=(2, 2)), theta=0.25)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        X = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(predict_scores(X, back), predict_scores(X, model))
        assert back.theta == model.theta

    def test_factored_exact(self):
        rng = np.random.default_rng(5)
        model = FactoredModel(W1=rng.normal(size=(4, 3)), W2=rng.normal(size=(6, 3)))
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        X = rng.normal(size=(5, 4))
        assert back.theta is None
        assert np.max(np.abs(predict_scores(X, back) - predict_scores(X, model))) < 1e-12

    def test_dense_bytes(self):
        model = DenseModel(W=np.array([[1.0, -0.5], [0.1, 2.0], [3.0, 0.0]]), theta=0.25)
        buf = io.StringIO()
        save_model(model, buf)
        assert buf.getvalue() == (
            "nondecomp-model dense\ndims 3 2\ntheta 0.25\n"
            "1 -0.5\n0.10000000000000001 2\n3 0\n"
        )

    def test_factored_bytes(self):
        # d = 2, L = 3, k = 1, so the dims line shows each size in its place
        model = FactoredModel(W1=np.array([[1.5], [-2.0]]), W2=np.array([[0.5], [1e-300], [-7.0]]))
        buf = io.StringIO()
        save_model(model, buf)
        assert buf.getvalue() == (
            "nondecomp-model factored\ndims 2 3 1\ntheta none\n"
            "1.5\n-2\n0.5\n1e-300\n-7\n"
        )

    def test_values_written_as_numpy_scalars_format(self):
        # the text of each value is the 17-digit form of the numpy scalar
        W = np.array([[-0.0, 5e-324, 2.2250738585072014e-308], [1.7976931348623157e308, 0.1, 1 / 3]])
        buf = io.StringIO()
        save_model(DenseModel(W=W), buf)
        body = buf.getvalue().split("\n")[3:-1]
        assert body == [" ".join(f"{v:.17g}" for v in row) for row in W]
        assert body[0].split()[0] == "-0"

    def test_corrupted_header(self):
        with pytest.raises(ModelFormatError, match="header"):
            load_model(io.StringIO("something-else dense\ndims 2 2\ntheta none\n"))

    @pytest.mark.parametrize("val", ["nan", "inf", "-inf"])
    def test_nonfinite_theta_rejected(self, val):
        text = f"nondecomp-model dense\ndims 1 2\ntheta {val}\n1 2\n"
        with pytest.raises(ModelFormatError, match="line 3: non-finite theta"):
            load_model(io.StringIO(text))

    def test_nonfinite_weight_rejected(self):
        text = "nondecomp-model factored\ndims 2 1 1\ntheta 0.5\n1\n2\nnan\n"
        with pytest.raises(ModelFormatError, match="line 6: non-finite value in W2"):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("body, message", [
        ("theta abc\n1 2\n", "line 3: bad theta 'abc'"),
        ("theta 0.5\n1 2\n3 x\n", "line 5: W row 1: could not convert string to float: 'x'"),
        ("theta 0.5\n1 2\n3\n", "line 5: W row 1 has 1 values, expected 2"),
        ("", "line 3: missing theta line"),
        ("theta\n", "line 3: missing theta line"),
    ])
    def test_format_error_names_line(self, body, message):
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("nondecomp-model dense\ndims 2 2\n" + body))
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("nondecomp-model dense\ndims 60000000 2000000\ntheta none\n1 2\n",
         "line 2: truncated stream while reading W; dims call for 60000000 rows"),
        ("nondecomp-model dense\ndims 1 3000000000\ntheta none\n1 2\n",
         "line 4: W row 0 has 2 values, expected 3000000000"),
        ("nondecomp-model dense\ndims -1 2\ntheta none\n", "line 2: negative dims -1 2"),
        ("nondecomp-model dense\ndims 1 2\ntheta none\n1 2\n3 4\nfoo bar baz\n",
         "line 5: unexpected line after the last matrix"),
        ("nondecomp-model factored\ndims 1 1 1\ntheta none\n1\n2\n\n3\n",
         "line 7: unexpected line after the last matrix"),
        ("", "line 1: truncated stream: missing header"),
        ("nondecomp-model dense\n", "line 2: truncated stream: missing header"),
        ("nondecomp-model dense\ndims 2 2", "line 3: truncated stream: missing header"),
        ("something-else dense\ndims 2 2\ntheta none\n",
         "line 1: bad header line 'something-else dense'"),
        ("nondecomp-model dense\nsize 2 2\ntheta none\n", "line 2: missing dims line"),
        ("nondecomp-model factored\ndims 6 20 0\ntheta none\n" + "\n" * 26,
         "line 2: factored model needs 'dims d L k' with k >= 1"),
    ], ids=["huge_rows", "huge_cols", "negative", "dense_trailing", "factored_trailing",
            "empty", "no_dims", "no_theta", "bad_header", "dims_keyword", "zero_rank"])
    def test_body_checked_against_dims(self, text, message):
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO(text))
        assert str(err.value) == message

    def test_truncated(self):
        rng = np.random.default_rng(6)
        buf = io.StringIO()
        save_model(DenseModel(W=rng.normal(size=(3, 2))), buf)
        text = "\n".join(buf.getvalue().split("\n")[:-2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(io.StringIO(text))


class TestResultsCsv:
    def test_single_row(self):
        rows = [ResultRow("algorithm1", "micro_f1", "test", 0.5, 0.01, "abc123")]
        buf = io.StringIO()
        write_results_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "method,metric_name,split,value,stderr,config_hash"

    def test_values_round_trip(self):
        import csv

        value = 0.123456789012345678
        buf = io.StringIO()
        write_results_csv([ResultRow("m", "f1", "train", value, 0.0, "h")], buf)
        row = list(csv.DictReader(io.StringIO(buf.getvalue())))[0]
        assert abs(float(row["value"]) - value) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            write_results_csv([], io.StringIO())

    def test_row_validation(self):
        with pytest.raises(ValueError):
            ResultRow("m", "f1", "train", float("inf"), 0.0, "h")
        with pytest.raises(ValueError):
            ResultRow("m", "f1", "train", 0.5, -0.1, "h")


class TestEmitPlot:
    def test_two_series_two_polylines(self):
        series = [
            PlotSeries("algorithm1", (0.1, 0.2, 0.5), (0.8, 0.9, 0.99)),
            PlotSeries("plugin", (0.1, 0.2, 0.5), (0.7, 0.8, 0.95)),
        ]
        buf = io.StringIO()
        emit_plot(series, buf, ylabel="micro_f1")
        svg = buf.getvalue()
        assert svg.count("<polyline") == 2
        assert "sampling ratio" in svg
        assert "micro_f1" in svg
        assert svg.startswith("<svg ")

    def test_deterministic_output(self):
        series = [PlotSeries("a", (0.0, 1.0), (1.0, 2.0))]
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            emit_plot(series, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            emit_plot([], io.StringIO())

    def test_constant_series_ok(self):
        buf = io.StringIO()
        emit_plot([PlotSeries("flat", (0.1, 0.2), (0.5, 0.5))], buf)
        assert "<polyline" in buf.getvalue()


# floats whose text form is easy to get wrong: subnormals, the extremes, -0.0
EXTREME_FLOATS = (5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, -0.0, 0.1)
floats = st.one_of(
    st.sampled_from(EXTREME_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def bits(values):
    """Exact bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def datasets(draw):
    n, d, L = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    features, labels = [], []
    for _ in range(n):
        idx = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        features.append(sorted((j, draw(floats)) for j in idx))
        labels.append(set(draw(st.lists(st.integers(0, L - 1), unique=True, max_size=L))))
    return SparseDataset(n=n, d=d, L=L, features=features, labels=labels)


@st.composite
def models(draw):
    d, L, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    theta = draw(st.one_of(st.none(), floats))

    def matrix(rows, cols):
        return np.array(draw(st.lists(floats, min_size=rows * cols, max_size=rows * cols)),
                        dtype=float).reshape(rows, cols)

    if draw(st.booleans()):
        return DenseModel(W=matrix(d, L), theta=theta)
    return FactoredModel(W1=matrix(d, k), W2=matrix(L, k), theta=theta)


KEY = text_key(SAMPLE.encode(), "utf-8")


def sidecar(ds, key=KEY):
    buf = io.BytesIO()
    write_parsed(ds, key, buf)
    return buf.getvalue()


def signed(data, key=KEY, version=b"2"):
    """Sidecar bytes of the payload ``data`` under a header line with its
    digest, padded with spaces to a multiple of 8 bytes."""
    line = b"nondecomp-parsed %s %s %s" % (version, key.encode(),
                                           hashlib.sha256(data).hexdigest().encode())
    return line + b" " * (-(len(line) + 1) % 8) + b"\n" + data


def payload(n, d, L, arrays, sizes=None):
    """The sidecar payload of n, d, L and the five CSR ``arrays``: eight
    int64s, which are n, d, L and the arrays' lengths (or ``sizes``), then
    the arrays; all little-endian."""
    arrays = [np.asarray(a, dtype)
              for a, dtype in zip(arrays, ("<i8", "<i8", "<f8", "<i8", "<i8"))]
    head = np.array([n, d, L, *(sizes or [a.size for a in arrays])], "<i8")
    return b"".join(a.tobytes() for a in (head, *arrays))


def sample_arrays():
    ds = parse_dataset(io.StringIO(SAMPLE))
    return [ds.indptr, ds.indices, ds.values, ds.label_indptr, ds.label_indices]


class TestParsedSidecar:
    @settings(max_examples=40)
    @given(ds=datasets())
    def test_round_trip(self, ds):
        back = read_parsed(sidecar(ds), KEY)
        assert (back.n, back.d, back.L) == (ds.n, ds.d, ds.L)
        assert_same_arrays(back, ds)

    def test_bytes_are_deterministic(self):
        # two writes from two parses of one text; no time or path is in them
        first = sidecar(parse_dataset(io.StringIO(SAMPLE)))
        assert sidecar(parse_dataset(io.StringIO(SAMPLE))) == first
        assert first.startswith(b"nondecomp-parsed 2 " + KEY.encode() + b" ")

    def test_forged_sidecar_of_valid_arrays_reads(self):
        # the reference for the forgeries below: only what they change fails;
        # the writer lays the payload out as documented
        want = parse_dataset(io.StringIO(SAMPLE))
        data = signed(payload(2, 3, 2, sample_arrays()))
        assert data == sidecar(want)
        assert_same_arrays(read_parsed(data, KEY), want)

    def test_key_is_of_the_bytes_and_their_codec(self):
        data = SAMPLE.encode()
        assert text_key(data, "UTF-8") == text_key(data, "utf8") != text_key(data, "latin-1")
        assert text_key(data + b"\n", "utf-8") != text_key(data, "utf-8")
        assert read_parsed(sidecar(parse_dataset(io.StringIO(SAMPLE))),
                           text_key(data, "latin-1")) is None

    @pytest.mark.parametrize("damage", [
        lambda b: b[:-5],
        lambda b: b[:b.index(b"\n") + 1],
        lambda b: b"",
        lambda b: b + b"\0",
        lambda b: b[:-3] + bytes([b[-3] ^ 1]) + b[-2:],
        lambda b: b.replace(b"nondecomp-parsed 2", b"nondecomp-parsed 3", 1),
        lambda b: b.replace(b"\n", b"\r\n", 1),
        lambda b: b.replace(b" \n", b"\n", 1),
    ], ids=["truncated", "header_only", "empty", "trailing_byte", "flipped_bit",
            "wrong_version", "crlf_header", "unpadded_header"])
    def test_damaged_sidecar_is_refused(self, damage):
        data = sidecar(parse_dataset(io.StringIO(SAMPLE)))
        assert read_parsed(data, KEY) is not None
        assert read_parsed(damage(data), KEY) is None

    @pytest.mark.parametrize("forge", [
        lambda arrays: payload(2, 3, 2, arrays[:-1], [3, 3, 3, 3, 2]),
        lambda arrays: payload(2, 3, 2, arrays, [3, 3, 3, 3, 3]),
        lambda arrays: payload(2, 3, 2, arrays, [3, 3, 3, 3, 1]),
        lambda arrays: payload(2, 3, 2, arrays, [3, 3, 3, 4, 1]),
        lambda arrays: payload(2, 3, 2, arrays) + bytes(8),
        lambda arrays: payload(2, 3, 2, arrays, [3, 3, 3, -1, 6]),
        lambda arrays: payload(2, 3, 2, arrays)[:56],
    ], ids=["missing_array", "lengths_past_payload", "lengths_short_of_payload",
            "lengths_misplace_arrays", "trailing_bytes", "negative_length", "short_record"])
    def test_valid_digest_of_arrays_no_parse_gives_is_refused(self, forge):
        assert read_parsed(signed(forge(sample_arrays())), KEY) is None

    def test_wrong_version_with_its_own_digest_is_refused(self):
        assert read_parsed(signed(payload(2, 3, 2, sample_arrays()), version=b"3"), KEY) is None

    def test_hit_holds_read_only_views_of_the_bytes(self):
        want = parse_dataset(io.StringIO(rows_300("0 1:1.2", 290)))
        data = sidecar(want)
        ds = read_parsed(data, KEY)
        arrays = [getattr(ds, name) for name in ARRAY_NAMES]
        assert all(a.base is data and not a.flags.writeable for a in arrays)
        # the header line is padded to put the payload on an 8-byte boundary
        assert all(a.flags.aligned for a in arrays)
        # every reader of a dataset takes the views as it takes parsed arrays
        assert bits(ds.to_dense_X()) == bits(want.to_dense_X())
        assert ds.label_matrix().tobytes() == want.label_matrix().tobytes()
        got, text = io.StringIO(), io.StringIO()
        write_dataset(ds, got)
        write_dataset(want, text)
        assert got.getvalue() == text.getvalue()

    def test_fault_names_a_row_of_read_only_unaligned_arrays(self):
        # the checks read the arrays only, so any read-only views serve
        arrays = [unaligned_view(a) for a in ([0, 1, 1, 3], [0, 0, 1], [1.0, 2.0, np.inf],
                                              [0, 0, 0, 1], [2])]
        assert not arrays[2].flags.aligned
        with pytest.raises(ValueError, match=r"^row 2: non-finite feature value inf$"):
            SparseDataset.from_arrays(3, 2, 2, *arrays)


def unaligned_view(values):
    """A read-only view of ``values``, as int64 or float64, that starts one
    byte into its buffer."""
    a = np.asarray(values, dtype=float if isinstance(values[0], float) else np.int64)
    return np.frombuffer(b"\0" + a.tobytes(), a.dtype, a.size, 1)


@st.composite
def csr_arrays(draw):
    """n, d, L and five CSR arrays, most of them no dataset: indices in
    [-1, 5], and any feature values, nan and inf included."""
    n, d, L = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def rows():
        # row pointers from row lengths or any at all, over as many entries
        # as the last pointer or any number
        indptr = draw(st.one_of(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
                lambda counts: [0, *accumulate(counts)]),
            st.lists(st.integers(-1, 8), max_size=n + 2)))
        size = (indptr[-1] if indptr and indptr[-1] >= 0 and draw(st.booleans())
                else draw(st.integers(0, 8)))
        return indptr, draw(st.lists(st.integers(-1, 5), min_size=size, max_size=size))

    indptr, indices = rows()
    values = draw(st.lists(st.floats(), min_size=len(indices), max_size=len(indices)))
    return n, d, L, (indptr, indices, values, *rows())


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(args=csr_arrays())
    def test_from_arrays_refuses_or_round_trips(self, args):
        # every dataset that exists reads back unchanged through the text
        # and through the sidecar; what is refused is refused as a ValueError
        n, d, L, arrays = args
        try:
            ds = SparseDataset.from_arrays(n, d, L, *arrays)
        except ValueError:
            return
        text = io.StringIO()
        write_dataset(ds, text)
        for back in (parse_dataset(io.StringIO(text.getvalue())), read_parsed(sidecar(ds), KEY)):
            assert (back.n, back.d, back.L) == (n, d, L)
            assert_same_arrays(back, ds)

    @settings(max_examples=40)
    @given(ds=datasets())
    def test_dataset_round_trip(self, ds):
        buf = io.StringIO()
        write_dataset(ds, buf)
        back = parse_dataset(io.StringIO(buf.getvalue()))
        assert (back.n, back.d, back.L) == (ds.n, ds.d, ds.L)
        assert_same_arrays(back, ds)

    @settings(max_examples=40)
    @given(model=models())
    def test_model_round_trip(self, model):
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert type(back) is type(model)
        if model.theta is None:
            assert back.theta is None
        else:
            assert bits([back.theta]) == bits([model.theta])
        for name in ("W",) if isinstance(model, DenseModel) else ("W1", "W2"):
            assert getattr(back, name).shape == getattr(model, name).shape
            assert bits(getattr(back, name)) == bits(getattr(model, name))


def rows_300(odd_row, at):
    """A 300-row dataset text whose row ``at`` is ``odd_row``."""
    rows = [f"{i % 3},{(i + 1) % 3} {i % 4}:{i / 7!r} {(i + 2) % 4}:-{i}" for i in range(300)]
    rows[at] = odd_row
    return "300 4 3\n" + "\n".join(rows) + "\n"


def rows_300_dataset(odd_labels, odd_features, at):
    """The dataset of ``rows_300`` whose row ``at`` has the given labels and
    (index, value) pairs."""
    features = [[(i % 4, i / 7), ((i + 2) % 4, -float(i))] for i in range(300)]
    labels = [{i % 3, (i + 1) % 3} for i in range(300)]
    features[at], labels[at] = odd_features, odd_labels
    return SparseDataset(300, 4, 3, features, labels)


# texts in unusual layouts and spellings, with the arrays each parses to:
# d, L, indptr, indices, values, label_indptr, label_indices
PARSED_TEXTS = [
    ("2 4 3\n0,2 0:1.5 3:-2\n1 1:0.25\n", 4, 3, [0, 2, 3], [0, 3, 1], [1.5, -2.0, 0.25],
     [0, 2, 3], [0, 2, 1]),
    ("0 4 3\n", 4, 3, [0], [], [], [0], []),
    ("3 4 3\n\n \n2\n", 4, 3, [0, 0, 0, 0], [], [], [0, 0, 0, 1], [2]),
    ("2 4 3\r\n0 0:1\r\n1\r\n", 4, 3, [0, 1, 1], [0], [1.0], [0, 1, 2], [0, 1]),
    ("1 4 3\n0 0:1\t1:2  2:3\x0b3:4\n", 4, 3, [0, 4], [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0],
     [0, 1], [0]),
    ("1 4 3\n 2:1 0:2 1:3\n", 4, 3, [0, 3], [0, 1, 2], [2.0, 3.0, 1.0], [0, 0], []),
    ("1 4 3\n2,0,2 0:1\n", 4, 3, [0, 1], [0], [1.0], [0, 2], [0, 2]),
    ("1 4 3\n+1 +1:+1\n", 4, 3, [0, 1], [1], [1.0], [0, 1], [1]),
    ("1 40 30\n1_0 1_0:1_0\n", 40, 30, [0, 1], [10], [10.0], [0, 1], [10]),
    ("1 4 3\n١ ٢:1\n", 4, 3, [0, 1], [2], [1.0], [0, 1], [1]),
    ("1 4 3\n0 1:.5\n", 4, 3, [0, 1], [1], [0.5], [0, 1], [0]),
    ("1 4 3\n0 1:5.\n", 4, 3, [0, 1], [1], [5.0], [0, 1], [0]),
    ("1 4 3\n0 1:-0.0\n", 4, 3, [0, 1], [1], [-0.0], [0, 1], [0]),
    ("1 4 3\n0 0000000000000000001:1\n", 4, 3, [0, 1], [1], [1.0], [0, 1], [0]),
    ("1 4 3\n0000000000000000002 0:1\n", 4, 3, [0, 1], [0], [1.0], [0, 1], [2]),
    ("1 4 3\n0 0:1", 4, 3, [0, 1], [0], [1.0], [0, 1], [0]),
]

# malformed texts, with the message each is rejected with
REJECTED_TEXTS = [
    ("1 4 3\n0 1:2:3\n", "line 2: bad feature token '1:2:3'"),
    ("1 4 3\n0 1:2:3 2\n", "line 2: bad feature token '1:2:3'"),
    ("1 4 3\n0 :5\n", "line 2: bad feature token ':5'"),
    ("1 4 3\n0 5:\n", "line 2: bad feature token '5:'"),
    ("1 4 3\n0 15\n", "line 2: bad feature token '15'"),
    ("1 4 3\n0 1::5\n", "line 2: bad feature token '1::5'"),
    ("1 4 3\n0 1:nan\n", "line 2: non-finite feature value '1:nan'"),
    ("1 4 3\n0 1:-inf\n", "line 2: non-finite feature value '1:-inf'"),
    ("1 4 3\n0 1:1e999\n", "line 2: non-finite feature value '1:1e999'"),
    ("1 4 3\n0 1:1.a\n", "line 2: bad feature token '1:1.a'"),
    ("1 4 3\n0 a:1\n", "line 2: bad feature token 'a:1'"),
    ("1 4 3\nb 1:1\n", "line 2: bad label index 'b'"),
    ("1 4 3\n0 4:1\n", "line 2: feature index 4 out of range [0, 4)"),
    ("1 4 3\n0 -1:1\n", "line 2: feature index -1 out of range [0, 4)"),
    ("1 4 3\n3 0:1\n", "line 2: label index 3 out of range [0, 3)"),
    ("1 4 3\n-1 0:1\n", "line 2: label index -1 out of range [0, 3)"),
    ("1 4 3\n0 0:1 0:2\n", "line 2: duplicate feature index 0"),
    ("1 4 3\n0, 0:1\n", "line 2: bad label index ''"),
    ("1 4 3\n0\t1 0:1\n", "line 2: bad label index '0\\t1'"),
    ("1 4 3\n0 99999999999999999999:1\n",
     "line 2: feature index 99999999999999999999 out of range [0, 4)"),
    ("1 4 3\n99999999999999999999 0:1\n",
     "line 2: label index 99999999999999999999 out of range [0, 3)"),
    ("1 4 3\n0 1.0:1\n", "line 2: bad feature token '1.0:1'"),
    ("1 4 3\n0 1e0:1\n", "line 2: bad feature token '1e0:1'"),
    ("1 4 3\n0 007:1\n", "line 2: feature index 7 out of range [0, 4)"),
    ("1 4 3\n0 1:1.2.3\n", "line 2: bad feature token '1:1.2.3'"),
    ("1 4 3\n0 1:1-2\n", "line 2: bad feature token '1:1-2'"),
    ("1 4 3\n0 1:1e\n", "line 2: bad feature token '1:1e'"),
    ("1 4 3\n0 1:0x1p3\n", "line 2: bad feature token '1:0x1p3'"),
    ("1 4 3\n0 1000000000000000000:1\n",
     "line 2: feature index 1000000000000000000 out of range [0, 4)"),
    ("1 4 3\n1000000000000000000 0:1\n",
     "line 2: label index 1000000000000000000 out of range [0, 3)"),
    ("1 4 3\n1.0 0:1\n", "line 2: bad label index '1.0'"),
    ("1 4 3\n1,,2 0:1\n", "line 2: bad label index ''"),
    ("1 4 3\n1, 0:1\n", "line 2: bad label index ''"),
    ("1 4 3\n0 0:1\n\n", "line 3: expected 1 instance lines, found 2"),
    (rows_300("0 1:1.2.3", 290), "line 292: bad feature token '1:1.2.3'"),
]


class TestParseOutcomes:
    @pytest.mark.parametrize(
        "text, d, L, indptr, indices, values, label_indptr, label_indices", PARSED_TEXTS)
    def test_parsed_texts(self, text, d, L, indptr, indices, values, label_indptr,
                          label_indices):
        ds = parse_dataset(io.StringIO(text))
        assert (ds.n, ds.d, ds.L) == (len(indptr) - 1, d, L)
        for got, want, dtype in ((ds.indptr, indptr, np.int64), (ds.indices, indices, np.int64),
                                 (ds.values, values, float),
                                 (ds.label_indptr, label_indptr, np.int64),
                                 (ds.label_indices, label_indices, np.int64)):
            assert got.dtype == dtype
            assert got.tobytes() == np.array(want, dtype=dtype).tobytes()

    @pytest.mark.parametrize("text, message", REJECTED_TEXTS)
    def test_rejected_texts(self, text, message):
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(io.StringIO(text))
        assert str(err.value) == message

    @pytest.mark.parametrize("row, labels, features", [
        ("\t1 0:1", {1}, [(0, 1.0)]),
        ("1\r", {1}, []),
        ("+1 +1:+1", {1}, [(1, 1.0)]),
    ], ids=["tab_before_label", "cr_after_label", "plus_signs"])
    def test_odd_row_in_a_later_block(self, row, labels, features):
        assert_same_arrays(parse_dataset(io.StringIO(rows_300(row, 280))),
                           rows_300_dataset(labels, features, 280))

    def test_error_in_a_later_block_names_its_line(self):
        with pytest.raises(DatasetFormatError, match="^line 292: bad feature token '1:1.2.3'$"):
            parse_dataset(io.StringIO(rows_300("0 1:1.2.3", 290)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_valid_and_mutated_texts(self, data):
        # a text parses to a dataset that writes and reads back unchanged, or
        # is rejected naming one of its lines; no other exception escapes
        text = data.draw(dataset_texts())
        n = int(text.split()[0])
        try:
            ds = parse_dataset(io.StringIO(text))
        except DatasetFormatError as exc:
            line = re.match(r"line (\d+): ", str(exc))
            assert line is not None and 1 <= int(line.group(1)) <= n + 1, str(exc)
            return
        buf = io.StringIO()
        write_dataset(ds, buf)
        back = parse_dataset(io.StringIO(buf.getvalue()))
        assert (back.n, back.d, back.L) == (ds.n, ds.d, ds.L)
        assert_same_arrays(back, ds)


def walkthrough_text():
    """Dataset text of the README walkthrough's size (n = 2000, d = 50,
    L = 200): every feature set, with 17-digit values, and about half the
    labels positive."""
    rng = np.random.default_rng(0)
    n, d, L = 2000, 50, 200
    Y = rng.random((n, L)) < 0.5
    ds = SparseDataset.from_arrays(
        n, d, L, np.arange(0, n * d + 1, d), np.tile(np.arange(d), n),
        rng.standard_normal(n * d), np.r_[0, np.cumsum(Y.sum(axis=1))], np.nonzero(Y)[1],
    )
    buf = io.StringIO()
    write_dataset(ds, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def walkthrough():
    """The walkthrough-size text, its dataset, and that dataset's sidecar."""
    text = walkthrough_text()
    ds = parse_dataset(io.StringIO(text))
    return text, ds, sidecar(ds)


def traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Discard:
    """A text stream that keeps nothing, so only the writer's memory counts."""

    def write(self, text):
        return len(text)


class TestDatasetMemory:
    """Peaks at the walkthrough's size. Each bound lies between the measured
    peak and the peak of the copies each array used to be held in."""

    def test_list_constructor_holds_the_arrays_once(self, walkthrough):
        # 3.7 MiB for 3.1 MiB of CSR arrays; a flat list of the
        # (index, value) pairs and one of the labels took 7.5 MiB
        _, want, _ = walkthrough
        features = [list(zip(want.indices[a:b].tolist(), want.values[a:b].tolist()))
                    for a, b in zip(want.indptr[:-1], want.indptr[1:])]
        labels = [set(want.label_indices[a:b].tolist())
                  for a, b in zip(want.label_indptr[:-1], want.label_indptr[1:])]
        ds, peak = traced_peak(lambda: SparseDataset(want.n, want.d, want.L, features, labels))
        assert_same_arrays(ds, want)
        assert peak <= 1.5 * sum(getattr(ds, name).nbytes for name in ARRAY_NAMES)

    def test_fault_check_holds_no_row_per_entry(self, walkthrough):
        # 0.6 MiB, 0.75 bytes per index byte, to check sorted arrays; the
        # row of every stored entry, as int64, took 3.2 MiB
        _, want, _ = walkthrough
        arrays = [getattr(want, name) for name in ARRAY_NAMES]
        ds, peak = traced_peak(lambda: SparseDataset.from_arrays(want.n, want.d, want.L, *arrays))
        assert all(np.shares_memory(getattr(ds, name), a) for name, a in zip(ARRAY_NAMES, arrays))
        assert peak <= 2 * ds.indices.nbytes

    def test_write_holds_a_block_of_rows(self, walkthrough):
        # 1.3 MiB, 0.45 bytes per text byte; 256-row blocks and a check
        # with a row per entry took 4.6 MiB
        text, ds, _ = walkthrough
        _, peak = traced_peak(lambda: write_dataset(ds, Discard()))
        assert peak <= 0.7 * len(text)

    def test_sidecar_hit_copies_no_array(self, walkthrough):
        # 0.6 MiB, 0.2 bytes per sidecar byte; arrays copied out of the
        # sidecar's bytes took 6.2 MiB
        _, want, data = walkthrough
        ds, peak = traced_peak(lambda: read_parsed(data, KEY))
        assert_same_arrays(ds, want)
        assert peak <= 0.5 * len(data)


class TestParseMemory:
    def test_peak_per_text_byte_at_walkthrough_size(self):
        # the stream's own buffer is not counted: a parse, from reading the
        # text to the dataset it returns, peaks at about 3 bytes per text
        # byte; per-row lists of (index, value) tuples peaked at about 12.5
        text = walkthrough_text()
        stream = io.StringIO(text)
        tracemalloc.start()
        try:
            ds = parse_dataset(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.indices.size == 2000 * 50
        assert peak <= 4 * len(text)


# replacements for one token: colons dropped, doubled or moved, values the
# checker rejects or accepts in an unusual spelling, letters, indices out of range
FEATURE_MUTATIONS = (
    "{j}{v}", "{j}::{v}", "{j}:{v}:{j}", ":{v}", "{j}:", "{j}:nan", "{j}:inf", "+{j}:+1",
    "{j}:1_0", "1_{j}:{v}", "{j}:1.a", "a:{v}", "{d}:{v}", "-{j}1:{v}", "{L}", "",
    "{j}:{v} {j}:1",
)
LABEL_MUTATIONS = ("", "+{j}", "1_{j}", "{j}a", "-{j}1", "{L}", "\t{j}", "{j}:1", "\u0663")


@st.composite
def dataset_texts(draw):
    """Dataset text in the layouts the checker accepts (CRLF line ends,
    tabs, runs of spaces, unsorted and repeated indices, empty rows), then
    possibly one feature or label token replaced by a mutation."""
    n, d, L = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = []
    for _ in range(n):
        labels = [str(j) for j in draw(st.lists(st.integers(0, L - 1), max_size=L + 1))]
        idx = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        feats = [[str(j), repr(draw(floats))] for j in draw(st.permutations(idx))]
        rows.append((labels, feats))
    target = draw(st.sampled_from((None, 0, 1)))  # no mutation, a label, a feature
    cells = [(r, k) for r, row in enumerate(rows) for k in range(len(row[target or 0]))]
    if target is not None and cells:
        r, k = draw(st.sampled_from(cells))
        if target:
            j, v = rows[r][1][k]
            rows[r][1][k] = [draw(st.sampled_from(FEATURE_MUTATIONS)).format(j=j, v=v, d=d, L=L)]
        else:
            rows[r][0][k] = draw(st.sampled_from(LABEL_MUTATIONS)).format(j=rows[r][0][k], L=L)
    end = draw(st.sampled_from(("\n", "\r\n")))
    sep = draw(st.sampled_from((" ", "\t", "  ", " \t")))
    lines = []
    for labels, feats in rows:
        tokens = sep.join(":".join(f) for f in feats)
        label_field = ",".join(labels)
        lines.append(f"{label_field} {tokens}" if tokens or draw(st.booleans()) else label_field)
    return f"{n} {d} {L}{end}" + "".join(line + end for line in lines)
