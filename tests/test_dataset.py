"""Loading, validation, and round-trip tests for the dataset module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diproperm as dp
from diproperm.errors import (
    DatasetEmptyError,
    LabelDomainError,
    NonMonotoneIndexError,
    ParseError,
    RaggedRowsError,
    SingleClassError,
    ValidationError,
)


def test_load_dense_with_labels_file(tmp_path):
    data = tmp_path / "x.csv"
    labels = tmp_path / "y.txt"
    data.write_text("1,0\n0,1\n1,1\n0,0\n")
    labels.write_text("-1\n1\n-1\n1\n")
    ds = dp.load_dense(data, labels_path=labels)
    assert ds.n_samples == 4 and ds.n_features == 2
    assert np.array_equal(ds.features, [[1, 0], [0, 1], [1, 1], [0, 0]])
    assert np.array_equal(ds.labels, [-1, 1, -1, 1])
    assert ds.names == ("V1", "V2")
    # exactly one label source, one label per sample, at least one label
    for kw in ({}, {"labels_path": labels, "label_column": 0}):
        with pytest.raises(ValidationError, match="exactly one of label_column or labels_path"):
            dp.load_dense(data, **kw)
    labels.write_text("-1\n1\n-1\n")
    with pytest.raises(ValidationError, match="^3 labels for 4 samples$"):
        dp.load_dense(data, labels_path=labels)
    labels.write_text("\n\n")
    with pytest.raises(DatasetEmptyError, match="no labels in"):
        dp.load_labels(labels)


def test_load_dense_label_column_and_header(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("a,b,cls\n1,2,-1\n3,4,1\n5,6,-1\n7,8,1\n")
    ds = dp.load_dense(f, has_header=True, label_column="cls")
    assert ds.feature_names == ("a", "b")
    assert np.array_equal(ds.labels, [-1, 1, -1, 1])
    assert ds.features[3, 1] == 8.0
    # a name needs a header that holds it; an index must be a column
    for kw, message in (({"has_header": True, "label_column": "klass"}, "'klass' not in header"),
                        ({"label_column": "cls"}, "'cls' not in header"),
                        ({"has_header": True, "label_column": 3}, "index 3 out of range"),
                        ({"has_header": True, "label_column": "-1"}, "index -1 out of range")):
        with pytest.raises(ValidationError, match=message) as exc:
            dp.load_dense(f, **kw)
        assert (exc.value.row, exc.value.col) == (None, None)
    f.write_text("a,b,cls\n\n")
    with pytest.raises(DatasetEmptyError, match="has a header but no data rows"):
        dp.load_dense(f, has_header=True, label_column="cls")


def test_load_dense_rejects_label_token_2(tmp_path):
    data = tmp_path / "x.csv"
    labels = tmp_path / "y.txt"
    data.write_text("1,0\n0,1\n1,1\n0,0\n")
    labels.write_text("-1\n\n1\n2\n1\n")  # line 4: blank lines still count
    with pytest.raises(LabelDomainError, match=r"recode.*\(row 4\)$") as exc:
        dp.load_dense(data, labels_path=labels)
    assert exc.value.row == 4
    labels.write_text("-1, 1, 2, 1\n")  # one comma-separated row
    with pytest.raises(LabelDomainError, match=r"\(row 1\)$"):
        dp.load_labels(labels)
    # a label column: rows are data rows, as for a bad number
    data.write_text("1,0,-1\n0,1,1\n1,1,2\n0,0,1\n")
    with pytest.raises(LabelDomainError, match=r"'2' is not in .*\(row 3\)$"):
        dp.load_dense(data, label_column=2)


def test_load_dense_ragged_rows(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("1,2,3\n4,5,6,7\n")
    with pytest.raises(RaggedRowsError):
        dp.load_dense(f, labels_path=f)


def test_load_dense_bad_number(tmp_path):
    data = tmp_path / "x.csv"
    labels = tmp_path / "y.txt"
    data.write_text("1,2\n3,oops\n5,6\n7,8\n")
    labels.write_text("-1\n1\n-1\n1\n")
    with pytest.raises(ParseError) as exc:
        dp.load_dense(data, labels_path=labels)
    assert exc.value.row == 2 and exc.value.col == 2


def test_load_dense_names_a_non_finite_value(tmp_path):
    data, labels = tmp_path / "x.csv", tmp_path / "y.txt"
    data.write_text("1,2\n3,nan\n5,6\n7,8\n")
    labels.write_text("-1\n1\n-1\n1\n")
    with pytest.raises(ValidationError, match="nan at sample 2, feature 2$"):
        dp.load_dense(data, labels_path=labels)


def test_load_sparse_names_a_non_finite_value(tmp_path):
    f = tmp_path / "x.svm"
    f.write_text("-1 1:1\n1 2:inf\n-1 1:1\n1 1:2\n")
    with pytest.raises(ValidationError, match="inf at sample 2, feature 2$"):
        dp.load_sparse(f)


def test_load_sparse_basic(tmp_path):
    f = tmp_path / "x.svm"
    f.write_text("# a comment line is skipped\n-1 3:1\n+1 1:1 2:1\n-1 1:1\n1 2:1 3:1\n")
    ds = dp.load_sparse(f)
    assert ds.features.shape == (4, 3)
    assert np.array_equal(ds.features[0], [0, 0, 1])
    assert np.array_equal(ds.features[1], [1, 1, 0])
    assert np.array_equal(ds.labels, [-1, 1, -1, 1])
    # n_features may widen the data, not cut it
    assert dp.load_sparse(f, n_features=5).features.shape == (4, 5)
    with pytest.raises(ValidationError, match="n_features=2 smaller than max index 3"):
        dp.load_sparse(f, n_features=2)


def test_load_sparse_bad_entry(tmp_path):
    f = tmp_path / "x.svm"
    for entry in ("3:abc", "3", "x:1"):
        f.write_text(f"-1 1:1\n1 2:1 {entry}\n-1 1:1\n1 2:1\n")
        with pytest.raises(ParseError, match=f"bad sparse entry '{entry}'") as exc:
            dp.load_sparse(f)
        assert (exc.value.row, exc.value.col) == (2, None)


def test_load_sparse_empty(tmp_path):
    f = tmp_path / "x.svm"
    f.write_text("")
    with pytest.raises(DatasetEmptyError):
        dp.load_sparse(f)


def test_load_sparse_non_monotone(tmp_path):
    f = tmp_path / "x.svm"
    f.write_text("-1 3:1 2:1\n1 1:1\n")
    with pytest.raises(NonMonotoneIndexError):
        dp.load_sparse(f)


def test_load_sparse_label_domain(tmp_path):
    f = tmp_path / "x.svm"
    f.write_text("1 1:1\n2 1:1\n")
    with pytest.raises(LabelDomainError, match=r"\(row 2\)$"):
        dp.load_sparse(f)


def test_mushrooms_bundle(mushrooms):
    assert mushrooms.features.shape == (50, 112)
    assert mushrooms.class_counts() == (38, 12)
    assert set(np.unique(mushrooms.features)) == {0.0, 1.0}
    assert mushrooms.names[28] == "odor=pungent"
    assert mushrooms.names[110] == "habitat=urban"
    # one dummy active per encoded attribute
    assert np.all(mushrooms.features.sum(axis=1) == 21)


def test_dense_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(4)
    ds = dp.LabeledDataset(rng.normal(size=(7, 3)), [-1, 1, -1, 1, 1, -1, 1])
    data, labels = tmp_path / "x.csv", tmp_path / "y.txt"
    dp.write_dense(ds, data)
    dp.write_labels(ds, labels)
    again = dp.load_dense(data, labels_path=labels)
    assert again == dp.LabeledDataset(ds.features, ds.labels)
    dp.write_dense(again, tmp_path / "x2.csv")
    assert (tmp_path / "x2.csv").read_bytes() == data.read_bytes()


def test_sparse_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(5)
    X = (rng.random((6, 4)) < 0.5).astype(float)
    ds = dp.LabeledDataset(X, [-1, -1, 1, 1, -1, 1])
    f = tmp_path / "x.svm"
    dp.write_sparse(ds, f)
    again = dp.load_sparse(f, n_features=4)
    assert again == dp.LabeledDataset(ds.features, ds.labels)


def test_subset_rows_identity_and_errors(mushrooms):
    same = dp.subset_rows(mushrooms, np.arange(50))
    assert same == mushrooms
    only_neg = np.flatnonzero(mushrooms.labels == -1)
    with pytest.raises(SingleClassError):
        dp.subset_rows(mushrooms, only_neg)
    with pytest.raises(IndexError):
        dp.subset_rows(mushrooms, [0, 1, 2, 50])
    with pytest.raises(IndexError):
        dp.subset_rows(mushrooms, [0, 0, 1, 2])


def test_subset_rows_slices_rows(mushrooms):
    sub = dp.subset_rows(mushrooms, np.arange(10))
    assert sub.n_samples == 10
    assert np.array_equal(sub.features, mushrooms.features[:10])


def test_validation_rules():
    ok = dict(features=np.eye(4), labels=[-1, 1, -1, 1])
    dp.LabeledDataset(**ok)
    with pytest.raises(ValidationError):
        dp.LabeledDataset(np.full((4, 2), np.nan), [-1, 1, -1, 1])
    X = np.zeros((4, 3))
    X[2, 1], X[3, 0] = -np.inf, np.nan  # the first in sample order is named
    with pytest.raises(ValidationError, match="the first is -inf at sample 3, feature 2$"):
        dp.LabeledDataset(X, [-1, 1, -1, 1])
    with pytest.raises(SingleClassError):
        dp.LabeledDataset(np.eye(4), [1, 1, 1, 1])
    with pytest.raises(LabelDomainError):
        dp.LabeledDataset(np.eye(4), [-1, 1, 0, 1])
    with pytest.raises(ValidationError):
        dp.LabeledDataset(np.eye(3), [-1, 1, -1])  # too few samples
    with pytest.raises(ValidationError):
        dp.LabeledDataset(np.eye(4), [-1, 1, -1, 1], feature_names=("a",))


def test_dataset_is_immutable():
    ds = dp.LabeledDataset(np.eye(4), [-1, 1, -1, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 8),
    p=st.integers(1, 5),
    fill=st.sampled_from([0.0, np.nan, np.inf]),
    labels=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=8),
)
def test_validation_accepts_iff_invariants_hold(n, p, fill, labels):
    labels = (labels * 4)[:n]
    X = np.full((n, p), fill)
    valid = (
        np.isfinite(X).all()
        and n >= 4
        and (-1 in labels)
        and (1 in labels)
    )
    if valid:
        ds = dp.LabeledDataset(X, labels)
        assert ds.n_samples == n
    else:
        with pytest.raises(ValidationError):
            dp.LabeledDataset(X, labels)


def test_synthetic_blobs_shape_and_balance():
    ds = dp.synthetic_blobs(n_samples=30, n_features=3, seed=1)
    assert ds.features.shape == (30, 3)
    assert ds.class_counts() == (15, 15)
    # centers are separated along the first axis
    neg = ds.features[ds.labels == -1, 0].mean()
    pos = ds.features[ds.labels == 1, 0].mean()
    assert pos - neg > 2.0
