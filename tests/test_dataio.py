"""Dataset loading, splitting, and synthetic generator tests."""
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qnnae import dataio
from qnnae.dataio import Dataset, SplitSpec, load_csv, make_synthetic, split, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_first_appearance_mapping(tmp_path):
    path = write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n")
    ds = load_csv(path)
    assert ds.num_classes == 2
    assert list(ds.labels) == [0, 1, 0]
    assert ds.label_names == ("a", "b")
    assert np.allclose(ds.features, [[1, 2], [3, 4], [5, 6]])


def test_load_rejects_nan(tmp_path):
    path = write(tmp_path, "f1,label\n1.0,a\nnan,b\n")
    with pytest.raises(ValueError, match="3"):
        load_csv(path)


def test_load_rejects_non_numeric(tmp_path):
    path = write(tmp_path, "f1,label\n1.0,a\nx,b\n")
    with pytest.raises(ValueError, match="3"):
        load_csv(path)


def test_load_requires_label_column(tmp_path):
    path = write(tmp_path, "f1,f2\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path)


def test_feature_names_come_from_the_header(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("x,label,y\n1,a,2\n3,b,4\n5,a,6\n")
    ds = load_csv(path)
    assert ds.feature_names == ("x", "y")
    assert ds.subset([0, 2]).feature_names == ("x", "y")
    assert make_synthetic("xor", 8).feature_names == ("f1", "f2")
    with pytest.raises(ValueError, match="1 feature names for 2 features"):
        Dataset(ds.features, ds.labels, 2, feature_names=("x",))


def test_load_requires_feature_column(tmp_path):
    # the second row is malformed too: the header must be rejected before any row is read
    path = write(tmp_path, "label\na\nb,c\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: header has no feature columns")):
        load_csv(path)


@pytest.mark.parametrize("header, lineno", [
    ("f\x0b1,f2,label\n", 1),  # a vertical tab splits a message's line
    ('f1,"f\n2",label\n', 2),
])
def test_load_rejects_column_names_that_do_not_print(tmp_path, header, lineno):
    path = write(tmp_path, header + "1,x,a\n2,3,b\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: column name")):
        load_csv(path)


@pytest.mark.parametrize("header, message", [
    ("f1,label,label\n", "repeated column name 'label'"),  # the copy would be a feature
    ("f1, f1 ,label\n", "repeated column name 'f1'"),
    (",f2,label\n", "column 1 has no name"),
    ("f1,f2,label,\n", "column 4 has no name"),
])
def test_load_rejects_repeated_or_empty_column_names(tmp_path, header, message):
    path = write(tmp_path, header + "1,2,a,a\n3,4,b,b\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: {message}")):
        load_csv(path)


def test_open_text_drops_one_byte_order_mark(tmp_path):
    path = tmp_path / "marked.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\r\nb\n")
    assert dataio.open_text(path).read() == "\ufeffa\nb\n"


def test_content_lines(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"\xef\xbb\xbf# head\r\n\r\n \t \r\n a = 1 # note\r\nb\rc#\n#\n")
    assert list(dataio.content_lines(path)) == [(4, "a = 1"), (5, "b"), (6, "c")]


def test_load_reports_short_row(tmp_path):
    path = write(tmp_path, "f1,f2,label\n1,2,a\n3,b\n")
    with pytest.raises(ValueError, match="3"):
        load_csv(path)


@pytest.mark.parametrize("row", ["0.69,-0.75,", "0.69,-0.75,  ", '0.69,-0.75,""'])
def test_load_rejects_empty_label(tmp_path, row):
    # a blank label would otherwise become a class of its own
    path = write(tmp_path, f"f1,f2,label\n1,2,0\n3,4,1\n{row}\n5,6,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: empty label")):
        load_csv(path)


def test_roundtrip(tmp_path):
    original = make_synthetic("two_gaussians", 40, 0.5, seed=2)
    path = tmp_path / "round.csv"
    write_csv(original, path)
    reloaded = load_csv(path)
    assert np.array_equal(reloaded.features, original.features)
    assert np.array_equal(reloaded.labels, original.labels)
    assert reloaded.num_classes == original.num_classes
    assert reloaded.feature_names == ("f1", "f2")
    assert reloaded.label_names == original.label_names

    # the file's own names come back, even with commas, quotes and newlines in them
    source = write(tmp_path, 'width,"h,1",label,"say ""hi"""\n'
                             '1,2,"a,b",3\n4,5,"say ""c""",6\n7,8,"d\ne",9\n')
    named = load_csv(source)
    write_csv(named, path)
    assert path.read_text() == ('width,"h,1","say ""hi""",label\n'
                                '1.0,2.0,3.0,"a,b"\n4.0,5.0,6.0,"say ""c"""\n'
                                '7.0,8.0,9.0,"d\ne"\n')
    reloaded = load_csv(path)
    assert reloaded.feature_names == ("width", "h,1", 'say "hi"')
    assert reloaded.label_names == ("a,b", 'say "c"', "d\ne")
    assert np.array_equal(reloaded.features, named.features)
    assert np.array_equal(reloaded.labels, named.labels)


def test_roundtrip_quotes_a_label_holding_a_carriage_return(tmp_path):
    # csv.writer with \n line ends leaves a lone \r bare, and the reload
    # split the record there
    source = tmp_path / "cr.csv"
    source.write_bytes(b'x,label\n1,"a\rb"\n2,c\n')
    loaded = load_csv(source)
    assert loaded.label_names == ("a\rb", "c")
    path = tmp_path / "cr2.csv"
    write_csv(loaded, path)
    assert path.read_bytes() == b'x,label\n1.0,"a\rb"\n2.0,c\n'
    reloaded = load_csv(path)
    assert reloaded.label_names == loaded.label_names
    assert np.array_equal(reloaded.labels, loaded.labels)
    assert np.array_equal(reloaded.features, loaded.features)


@pytest.mark.parametrize("names, message", [
    (("label", "x"), "repeated column name 'label'"),
    (("x", "x"), "repeated column name 'x'"),
    (("", "x"), "column 1 has no name"),
    (("x", "y\nz"), "column name 'y\\nz' does not print"),
    ((" x", "y "), "column name ' x' has surrounding whitespace"),
])
def test_dataset_refuses_feature_names_a_header_cannot_hold(tmp_path, names, message):
    # write_csv heads the features with these names and the labels with
    # `label`; load_csv would refuse the header
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(np.zeros((2, 2)), [0, 1], 2, feature_names=names)


@pytest.mark.parametrize("label_names, message", [
    (("a",), "1 label names for 2 classes"),
    (("a", "b", "c"), "3 label names for 2 classes"),
    ((0, 1), "label name 0 must be a non-empty str"),
    (("a", ""), "label name '' must be a non-empty str"),
    (("a", " a"), "label name ' a' must be a non-empty str without surrounding whitespace"),
    ((" a", "b"), "label name ' a' must be a non-empty str without surrounding whitespace"),
    (("a", "b\ud800"), "label name 'b\\ud800' is not UTF-8 text"),
    (("a", "a"), "label names ('a', 'a') repeat"),
])
def test_dataset_refuses_label_names_that_do_not_read_back(label_names, message):
    # write_csv would crash on them, drop one, or write a file that load_csv
    # refuses or reads back with other names
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(np.zeros((4, 1)), [0, 1, 0, 1], 2, label_names=label_names)


# Python 3.10's csv reader refuses a NUL character in any field
ANY_CHARACTER = st.characters(exclude_characters="\x00" if sys.version_info < (3, 11) else "")
# names that need quoting; a label may also hold a line break or be `label`,
# but not a lone surrogate, which UTF-8 cannot encode
QUOTED_NAMES = ["a b", "a,b", '"q"']
FEATURE_NAME = st.one_of(st.text(st.characters(categories=["L", "N", "P", "S", "Zs"]),
                                 min_size=1, max_size=4), st.sampled_from(QUOTED_NAMES))
LABEL_NAME = st.one_of(st.text(ANY_CHARACTER, min_size=1, max_size=4),
                       st.sampled_from(QUOTED_NAMES + ["x\ry", "d\ne", "label", "b\udc80"]))


@st.composite
def constructible_datasets(draw):
    """A Dataset built from drawn names and values, with classes 0 and 1 among
    its rows, as a loadable file needs two; drawings it refuses are skipped."""
    num_features, num_classes = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    labels = draw(st.permutations(
        [0, 1] + draw(st.lists(st.integers(0, num_classes - 1), max_size=4))))
    features = draw(hnp.arrays(np.float64, (len(labels), num_features),
                               elements=st.floats(allow_nan=False, allow_infinity=False)))
    label_names = tuple(draw(st.lists(LABEL_NAME, min_size=num_classes, max_size=num_classes,
                                      unique=True)))
    feature_names = tuple(draw(st.lists(FEATURE_NAME, min_size=num_features,
                                        max_size=num_features, unique=True)))
    try:
        return Dataset(features, labels, num_classes, label_names=label_names,
                       feature_names=feature_names)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(constructible_datasets())
def test_any_dataset_that_constructs_reads_back(tmp_path_factory, ds):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_csv(ds, path)
    reloaded = load_csv(path)
    assert reloaded.feature_names == ds.feature_names
    assert np.array_equal(reloaded.features, ds.features)
    assert ([reloaded.label_names[i] for i in reloaded.labels]
            == [ds.label_names[i] for i in ds.labels])


def test_label_column_anywhere(tmp_path):
    path = write(tmp_path, "f1,label,f2\n1,a,2\n3,b,4\n")
    ds = load_csv(path)
    assert np.allclose(ds.features, [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def dataset_with_labels(labels):
    labels = np.asarray(labels)
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(len(labels), 2)), labels, int(labels.max()) + 1)


def test_split_sizes():
    ds = dataset_with_labels([0, 1] * 50)
    train, validation = split(ds, SplitSpec(0.1, seed=3))
    assert train.num_examples == 10
    assert validation.num_examples == 90


def test_split_empty_train_rejected():
    ds = dataset_with_labels([0, 1, 0, 1])
    with pytest.raises(ValueError):
        split(ds, SplitSpec(0.05, seed=0))


def test_split_deterministic():
    ds = dataset_with_labels([0, 1] * 30)
    a_train, a_val = split(ds, SplitSpec(0.2, seed=9))
    b_train, b_val = split(ds, SplitSpec(0.2, seed=9))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_val.features, b_val.features)


def test_split_is_partition_and_order_stable():
    ds = dataset_with_labels([0, 1, 2] * 20)
    ds.features[:, 0] = np.arange(60)  # row identity marker
    train, validation = split(ds, SplitSpec(0.25, seed=1))
    train_ids = train.features[:, 0]
    val_ids = validation.features[:, 0]
    combined = np.sort(np.concatenate([train_ids, val_ids]))
    assert np.array_equal(combined, np.arange(60))
    assert np.array_equal(train_ids, np.sort(train_ids))
    assert np.array_equal(val_ids, np.sort(val_ids))


def test_split_stratified_proportions():
    ds = dataset_with_labels([0] * 70 + [1] * 20 + [2] * 10)
    train, _ = split(ds, SplitSpec(0.2, seed=5))
    counts = np.bincount(train.labels, minlength=3)
    assert train.num_examples == 20
    for cls, total in enumerate([70, 20, 10]):
        assert abs(counts[cls] - 0.2 * total) <= 1
        assert counts[cls] >= 1


def test_split_stratified_impossible():
    # 5 classes cannot all appear in a train split of 2
    ds = dataset_with_labels(list(range(5)) * 4)
    with pytest.raises(ValueError):
        split(ds, SplitSpec(0.1, seed=0))


def test_split_unstratified():
    ds = dataset_with_labels([0, 1] * 50)
    train, validation = split(ds, SplitSpec(0.1, seed=2, stratified=False))
    assert train.num_examples == 10
    assert train.num_examples + validation.num_examples == 100


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------

def best_linear_accuracy(points, labels):
    """Exhaustive oracle: best accuracy of any linear threshold on the points."""
    best = 0.0
    for angle in np.linspace(0, 2 * math.pi, 720, endpoint=False):
        w = np.array([math.cos(angle), math.sin(angle)])
        projections = points @ w
        for b in np.concatenate([projections - 1e-9, projections + 1e-9]):
            predicted = (projections > b).astype(int)
            best = max(best, np.mean(predicted == labels))
    return best


def test_xor_not_linearly_separable():
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    assert best_linear_accuracy(corners, labels) <= 0.75


def test_synthetic_balance():
    for kind in dataio.SYNTHETIC_KINDS:
        for n in (8, 41, 100):
            ds = make_synthetic(kind, n, 0.1, seed=7)
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(counts[0] - counts[1]) <= 1
            assert ds.num_examples == n


def test_synthetic_deterministic():
    a = make_synthetic("rings", 50, 0.2, seed=4)
    b = make_synthetic("rings", 50, 0.2, seed=4)
    assert np.array_equal(a.features, b.features)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic("spirals", 100, 0.1, seed=0)
    with pytest.raises(ValueError):
        make_synthetic("xor", 4, 0.1, seed=0)
    for noise in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            make_synthetic("xor", 40, noise, seed=0)
    assert make_synthetic("xor", 40, 0.0, seed=0).num_examples == 40


def test_two_gaussians_learnable():
    # pinned-seed empirical oracle: 2 hidden neurons reach 95% validation accuracy
    from qnnae import evaluate, mlp

    ds = make_synthetic("two_gaussians", 200, 0.3, seed=11)
    report = evaluate.evaluate_sampled(
        mlp.MlpArchitecture(2, 2, 1), ds, num_samples=5, seed=11
    )
    assert report.mean_accuracy >= 0.95


def test_errors_name_the_file_line_after_a_multiline_field(tmp_path):
    # the quoted field on lines 2-3 is one record; the bad record is on line 4
    for bad_row in ("1,x,b", "1,b"):
        path = write(tmp_path, f'f1,f2,label\n0,"1\n",a\n{bad_row}\n', name="ml.csv")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4:")):
            load_csv(path)
