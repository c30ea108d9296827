import csv
import io
import json
import re
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from relarm.dataset import (
    Direction,
    IndicatorSpec,
    RawDataset,
    _parse_plain,
    _parse_rows,
    load_dataset,
)
from relarm.errors import ValidationError
from relarm.normalize import normalize_dataset


def write_spec(path, names, directions=None):
    directions = directions or ["positive"] * len(names)
    path.write_text(
        json.dumps(
            {"indicators": [{"name": n, "direction": d} for n, d in zip(names, directions)]}
        )
    )


def test_country_fixture_loads(country_dataset):
    assert country_dataset.n_objects == 30
    assert country_dataset.n_indicators == 9
    assert country_dataset.objects[0] == "Switzerland"
    assert country_dataset.indicators[3].direction is Direction.NEGATIVE


def test_minimal_two_by_one(tmp_path):
    write_spec(tmp_path / "spec.json", ["x"])
    (tmp_path / "d.csv").write_text("object,x\na,0.0\nb,1.0\n")
    ds = load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")
    assert ds.n_objects == 2 and ds.n_indicators == 1
    assert np.array_equal(ds.values.ravel(), [0.0, 1.0])


def test_blank_cell_reports_coordinates(tmp_path):
    write_spec(tmp_path / "spec.json", ["x", "y"])
    (tmp_path / "d.csv").write_text("object,x,y\na,1,2\nb,,4\n")
    with pytest.raises(ValidationError, match=r"row 3.*'x'"):
        load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")


def test_non_numeric_cell(tmp_path):
    write_spec(tmp_path / "spec.json", ["x"])
    (tmp_path / "d.csv").write_text("object,x\na,1\nb,oops\n")
    with pytest.raises(ValidationError, match=r"row 3.*non-numeric.*'oops'"):
        load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")


def test_duplicate_object_id(tmp_path):
    write_spec(tmp_path / "spec.json", ["x"])
    (tmp_path / "d.csv").write_text("object,x\na,1\na,2\n")
    with pytest.raises(ValidationError, match="duplicate object ids"):
        load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")


def test_duplicate_object_id_among_many_is_fast():
    m = 50_000
    objects = [f"obj{i}" for i in range(m)]
    objects[-1] = "obj123"
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"duplicate object ids: \['obj123'\]$"):
        RawDataset(
            objects=tuple(objects),
            indicators=(IndicatorSpec("x", Direction.POSITIVE),),
            values=np.zeros((m, 1)),
        )
    assert time.perf_counter() - start < 0.5


def test_duplicate_indicator_names():
    spec = IndicatorSpec("x", Direction.POSITIVE)
    with pytest.raises(ValidationError, match=r"duplicate indicator names: \['x'\]$"):
        RawDataset(objects=("a", "b"), indicators=(spec, spec), values=np.zeros((2, 2)))


def test_undeclared_and_missing_columns(tmp_path):
    write_spec(tmp_path / "spec.json", ["x", "y"])
    (tmp_path / "d.csv").write_text("object,x,z\na,1,2\nb,3,4\n")
    with pytest.raises(ValidationError, match="absent"):
        load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")
    write_spec(tmp_path / "spec2.json", ["x"])
    with pytest.raises(ValidationError, match="undeclared"):
        load_dataset(tmp_path / "d.csv", tmp_path / "spec2.json")


def test_columns_reordered_to_spec_order(tmp_path):
    write_spec(tmp_path / "spec.json", ["y", "x"])
    (tmp_path / "d.csv").write_text("object,x,y\na,1,2\nb,3,4\n")
    ds = load_dataset(tmp_path / "d.csv", tmp_path / "spec.json")
    assert [s.name for s in ds.indicators] == ["y", "x"]
    assert ds.values[0].tolist() == [2.0, 1.0]


def test_load_is_deterministic(tmp_path, country_dataset, data_dir):
    again = load_dataset(data_dir / "country_raw.csv", data_dir / "country_config.json")
    assert again == country_dataset


def save_dataset(dataset, path):
    """Write a dataset back to CSV losslessly (shortest round-trip floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["object"] + [s.name for s in dataset.indicators])
        for obj, row in zip(dataset.objects, dataset.values):
            w.writerow([obj] + [repr(float(v)) for v in row])


def test_roundtrip(tmp_path, country_dataset):
    save_dataset(country_dataset, tmp_path / "out.csv")
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "indicators": [
                    {
                        "name": s.name,
                        "direction": s.direction.value,
                        "pre_normalized": s.pre_normalized,
                    }
                    for s in country_dataset.indicators
                ]
            }
        )
    )
    assert load_dataset(tmp_path / "out.csv", spec) == country_dataset


def test_single_object_rejected():
    # one object is a dataset that can be scored, but has no column ranges
    spec = (IndicatorSpec("x", Direction.POSITIVE),)
    one = RawDataset(objects=("a",), indicators=spec, values=np.array([[1.0]]))
    with pytest.raises(ValidationError, match="at least 2 rating objects to take column ranges, got 1"):
        normalize_dataset(one)
    with pytest.raises(ValidationError, match="need at least 1 rating object, got 0"):
        RawDataset(objects=(), indicators=spec, values=np.empty((0, 1)))


def test_non_finite_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        RawDataset(
            objects=("a", "b"),
            indicators=(IndicatorSpec("x", Direction.POSITIVE),),
            values=np.array([[1.0], [np.nan]]),
        )


def test_empty_indicator_name_rejected():
    with pytest.raises(ValidationError):
        IndicatorSpec("", Direction.POSITIVE)


# --- the plain-table parser against the per-cell parser ---------------------

NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0.0", "1e-320", ".5", "5.", "+1.5", "1E5"]),
)
# cells both parsers read as numbers that a table may not hold
NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e500"])
# cells float() reads and numpy's parser does not, or that neither reads
ODD_CELL = st.sampled_from(["1_000", "#5", "5#", "", "abc", "0x10", "1 2"])
PAD = st.sampled_from(["", " ", "  ", "\t"])
ID = st.text(alphabet="abcXYZ019 #_-.", min_size=0, max_size=6)
QUOTED_ID = st.text(alphabet="ab, #", min_size=0, max_size=4).map(lambda s: f'"{s}"')


@st.composite
def tables(draw):
    """CSV text with a spec that names its columns in another order, and at
    most one defect that sends the text to the per-cell path; returns the
    text, the spec and the defect."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d#", "e f"]),
                          min_size=1, max_size=4, unique=True))
    spec_order = draw(st.permutations(names))
    specs = tuple(IndicatorSpec(n, Direction.POSITIVE) for n in spec_order)
    defect = draw(st.sampled_from(
        [None, None, None, "blank", "quote", "cell", "non-finite", "header", "ragged",
         "space"]
    ))
    pad = lambda s: draw(PAD) + s + draw(PAD)  # noqa: E731
    rows = [[pad("object")] + [pad(n) for n in names]]
    for _ in range(0 if defect == "header" else draw(st.integers(1, 6))):
        rows.append([pad(draw(ID))] + [pad(draw(NUMBER)) for _ in names])
    if defect == "ragged":  # one row a cell wider, another a cell narrower
        rows.append([pad(draw(ID))] + [pad(draw(NUMBER)) for _ in names])
        wide, narrow = draw(st.permutations(range(1, len(rows))))[:2]
        rows[wide].append(pad(draw(NUMBER)))
        rows[narrow].pop()
    if defect == "quote":
        rows[draw(st.integers(1, len(rows) - 1))][0] = draw(QUOTED_ID)
    if defect in ("cell", "non-finite"):
        rows[draw(st.integers(1, len(rows) - 1))][draw(st.integers(1, len(names)))] = (
            draw(ODD_CELL if defect == "cell" else NON_FINITE)
        )
    lines = [",".join(row) for row in rows]
    if defect in ("blank", "space"):
        line = "" if defect == "blank" else draw(st.sampled_from([" ", "\t", "  "]))
        lines.insert(draw(st.integers(1, len(lines))), line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, specs, defect


def _per_cell(text, specs):
    try:
        return _parse_rows(list(csv.reader(io.StringIO(text, newline=""))), specs, "t")
    except ValidationError:
        return None


def assert_same_table(fast, slow):
    assert slow is not None
    assert fast[0] == slow[0]
    assert fast[1].shape == slow[1].shape
    assert fast[1].tobytes() == slow[1].tobytes()  # bit for bit, signed zeros included


@settings(max_examples=400, deadline=None)
@given(tables())
def test_plain_parse_equals_per_cell_parse(table):
    text, specs, defect = table
    fast = _parse_plain(text, specs)
    event("plain parse" if fast is not None else "declined")
    if fast is not None:
        assert_same_table(fast, _per_cell(text, specs))
    if defect == "non-finite":  # declined, so that the per-cell path names the cell
        assert fast is None
        with pytest.raises(ValidationError, match=r"^t: row \d+, column .*: non-finite"):
            _parse_rows(list(csv.reader(io.StringIO(text, newline=""))), specs, "t")


SPECS_XY = (IndicatorSpec("y", Direction.POSITIVE), IndicatorSpec("x", Direction.NEGATIVE))


@pytest.mark.parametrize("text", [
    "object,x,y\na,1,2\nb,3,4\n",
    "object,x,y\r\na,1,2\r\nb,3,4",
    " object , x ,\ty\n a# ,  1 , 2\t\nb,-0.0,+4\n",
    "object,x,y\ra,1e-320,2\rb,3,4\r",
])
def test_plain_parse_taken(text):
    fast = _parse_plain(text, SPECS_XY)
    assert fast is not None
    assert_same_table(fast, _per_cell(text, SPECS_XY))


@pytest.mark.parametrize("text", [
    "object,x,y\n",  # header only
    "object,x,y\na,1,2\n\nb,3,4\n",  # blank line
    'object,x,y\n"a,b",1,2\nb,3,4\n',  # quoted id
    "object,x,y\na,1_000,2\nb,3,4\n",  # float()-only syntax
    "object,x,y\na,1,2,3\nb,3,4\n",  # ragged row
    "object,x,y\na,1,2,3\nb,3\n",  # ragged rows whose commas add up
    "object,x,y\na,1,2\n \nb,3,4\n",  # whitespace-only line
    "object,x,y\na,1,2,3,4\n\nb,3,4\n",  # blank line beside a wide row
    "object,x,z\na,1,2\nb,3,4\n",  # names differ from the spec
    "object,x,y\na,,2\nb,3,4\n",  # missing value
    "object,x,y\na,nan,2\nb,3,-inf\n",  # non-finite values, which the per-cell path names
])
def test_plain_parse_declined(text):
    assert _parse_plain(text, SPECS_XY) is None


def test_plain_parse_declines_repeated_header_names():
    # loadtxt would read column 1 twice and never see the rows' widths
    specs = (IndicatorSpec("x", Direction.POSITIVE),) * 2
    assert _parse_plain("object,x,x\na,1\nb,3,4,5\n", specs) is None


@pytest.mark.parametrize("text, outcome", [
    ("object,x,y\na,1_000,2\nb,3,4\n", [[2.0, 1000.0], [4.0, 3.0]]),
    ('object,x,y\n"a,b",1,2\nb,3,4\n', [[2.0, 1.0], [4.0, 3.0]]),
    ("object,x,y\na,1,2\n\nb,3,4\n", r"row 3 has 0 cells, expected 3"),
    ("object,x,y\na,1,2,3\nb,3\n", r"row 2 has 4 cells, expected 3"),
    ("object,x,y\na,1,2\n \nb,3,4\n", r"row 3 has 1 cells, expected 3"),
    ("object,x,y\na,#1,2\nb,3,4\n", r"row 2, column 'x': non-numeric value '#1'"),
    ("object,x,y\n", "need at least 1 rating object, got 0"),
])
def test_declined_tables_keep_per_cell_results(tmp_path, text, outcome):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(outcome, str):
        with pytest.raises(ValidationError, match=outcome):
            load_dataset(path, SPECS_XY)
    else:
        assert load_dataset(path, SPECS_XY).values.tolist() == outcome


@pytest.mark.parametrize("text, specs, message", [
    ("object,x,y\n", SPECS_XY, "need at least 1 rating object, got 0"),
    ("object,x,y\na,1,2\na,3,4\n", SPECS_XY, r"duplicate object ids: \['a'\]"),
    ("object,x,y\na,nan,2\nb,3,4\n", SPECS_XY,
     r"row 2, column 'x': non-finite value 'nan'"),
    ("object,x\na,1\nb,2\n", (IndicatorSpec("x", Direction.POSITIVE),) * 2,
     r"duplicate indicator names: \['x'\]"),
], ids=["header-only", "repeated-row", "nan-cell", "repeated-indicator"])
def test_dataset_errors_name_the_file(tmp_path, text, specs, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_dataset(path, specs)


def test_non_utf8_data_names_file_and_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"object,x,y\na,1,2\nb\xe9,3,4\n")
    with pytest.raises(ValidationError, match=rf"{path}: line 3: byte 0xe9"):
        load_dataset(path, SPECS_XY)
