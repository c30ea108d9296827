import csv
import io
import os
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from relarm import _fork
from relarm.dataset import (
    Direction,
    IndicatorSpec,
    RawDataset,
    _parse_rows,
    load_dataset,
)
from relarm.errors import ValidationError
from relarm.normalize import normalize_dataset
from conftest import FORK_CPUS, ForkDecided, decide_only, parse_plain, record_shares


def declared(*names):
    return tuple(IndicatorSpec(n, Direction.POSITIVE) for n in names)


def test_country_fixture_loads(country_dataset):
    assert country_dataset.n_objects == 30
    assert country_dataset.n_indicators == 9
    assert country_dataset.objects[0] == "Switzerland"
    assert country_dataset.indicators[3].direction is Direction.NEGATIVE


def test_minimal_two_by_one(tmp_path):
    (tmp_path / "d.csv").write_text("object,x\na,0.0\nb,1.0\n")
    ds = load_dataset(tmp_path / "d.csv", declared("x"))
    assert ds.n_objects == 2 and ds.n_indicators == 1
    assert np.array_equal(ds.values.ravel(), [0.0, 1.0])


def test_blank_cell_reports_coordinates(tmp_path):
    (tmp_path / "d.csv").write_text("object,x,y\na,1,2\nb,,4\n")
    with pytest.raises(ValidationError, match=r"row 3.*'x'"):
        load_dataset(tmp_path / "d.csv", declared("x", "y"))


def test_non_numeric_cell(tmp_path):
    (tmp_path / "d.csv").write_text("object,x\na,1\nb,oops\n")
    with pytest.raises(ValidationError, match=r"row 3.*non-numeric.*'oops'"):
        load_dataset(tmp_path / "d.csv", declared("x"))


def test_duplicate_object_id(tmp_path):
    (tmp_path / "d.csv").write_text("object,x\na,1\na,2\n")
    with pytest.raises(ValidationError, match="duplicate object ids"):
        load_dataset(tmp_path / "d.csv", declared("x"))


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
    (tmp_path / "d.csv").write_text("object,x,z\na,1,2\nb,3,4\n")
    with pytest.raises(ValidationError, match="absent"):
        load_dataset(tmp_path / "d.csv", declared("x", "y"))
    with pytest.raises(ValidationError, match="undeclared"):
        load_dataset(tmp_path / "d.csv", declared("x"))


def test_columns_reordered_to_spec_order(tmp_path):
    (tmp_path / "d.csv").write_text("object,x,y\na,1,2\nb,3,4\n")
    ds = load_dataset(tmp_path / "d.csv", declared("y", "x"))
    assert [s.name for s in ds.indicators] == ["y", "x"]
    assert ds.values[0].tolist() == [2.0, 1.0]


def test_load_is_deterministic(country_config, country_dataset, data_dir):
    again = load_dataset(data_dir / "country_raw.csv", country_config.indicators)
    assert again == country_dataset


@pytest.mark.parametrize("specs", [
    "config.json",
    [{"name": "x", "direction": "positive"}],
], ids=["config-path", "raw-entries"])
def test_specs_that_are_not_declarations_are_a_type_error(tmp_path, specs):
    (tmp_path / "d.csv").write_text("object,x\na,1\nb,2\n")
    with pytest.raises(TypeError, match=r"^specs must be IndicatorSpec declarations, "
                                        r"such as load_config\(path\)\.indicators$"):
        load_dataset(tmp_path / "d.csv", specs)


def save_dataset(dataset, path):
    """Write a dataset back to CSV losslessly (shortest round-trip floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["object"] + [s.name for s in dataset.indicators])
        for obj, row in zip(dataset.objects, dataset.values):
            w.writerow([obj] + [repr(float(v)) for v in row])


def test_roundtrip(tmp_path, country_dataset):
    save_dataset(country_dataset, tmp_path / "out.csv")
    assert load_dataset(tmp_path / "out.csv", country_dataset.indicators) == country_dataset


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
    most one defect: one that sends the text to the per-cell path, or a
    header that renames, drops or repeats one name; returns the text, the
    spec and the defect."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d#", "e f"]),
                          min_size=1, max_size=4, unique=True))
    spec_order = draw(st.permutations(names))
    specs = tuple(IndicatorSpec(n, Direction.POSITIVE) for n in spec_order)
    defect = draw(st.sampled_from(
        [None, None, None, "blank", "quote", "cell", "non-finite", "header", "ragged",
         "space", "rename", "drop", "repeat"]
    ))
    header = list(names)
    i = draw(st.integers(0, len(names) - 1))
    if defect == "rename":
        header[i] = "z"
    elif defect == "drop":
        del header[i]
    elif defect == "repeat":
        header.insert(draw(st.integers(0, len(header))), names[i])
    pad = lambda s: draw(PAD) + s + draw(PAD)  # noqa: E731
    rows = [[pad("object")] + [pad(n) for n in header]]
    for _ in range(0 if defect == "header" else draw(st.integers(1, 6))):
        rows.append([pad(draw(ID))] + [pad(draw(NUMBER)) for _ in header])
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


@st.composite
def wide_tables(draw):
    """A table of 50 to 80 columns and 1 to 4 rows, the shape whose rows
    are few and long, in the form :func:`tables` returns, with at most one
    defect: a blank line, a bad or non-finite cell, or a short row."""
    n = draw(st.integers(50, 80))
    names = [f"c{j}" for j in range(n)]
    specs = tuple(IndicatorSpec(c, Direction.POSITIVE) for c in draw(st.permutations(names)))
    defect = draw(st.sampled_from([None, None, "blank", "cell", "non-finite", "ragged"]))
    rows = [["object"] + names]
    for _ in range(draw(st.integers(1, 4))):
        rows.append([draw(ID)] + draw(st.lists(NUMBER, min_size=n, max_size=n)))
    r = draw(st.integers(1, len(rows) - 1))
    if defect in ("cell", "non-finite"):
        rows[r][draw(st.integers(1, n))] = draw(ODD_CELL if defect == "cell" else NON_FINITE)
    elif defect == "ragged":
        rows[r].pop()
    lines = [",".join(row) for row in rows]
    if defect == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end, specs, defect


def outcome(parse):
    """What a parse gave, comparable with ``==``: its ids, value shape and
    value bytes (bit for bit, signed zeros included), or its error text."""
    try:
        table = parse()
    except (ValidationError, csv.Error) as exc:
        return "error", str(exc)
    return table[0], table[1].shape, table[1].tobytes()


def assert_plain_is_per_cell(text, specs):
    """The one parse policy: of every text, the plain parse gives what the
    per-cell parse of the whole text gives, the same table bit for bit or
    the same error."""
    got = outcome(lambda: parse_plain(text, specs))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert got == outcome(lambda: _parse_rows(rows, specs))
    return got


@settings(max_examples=400, deadline=None)
@given(tables())
def test_plain_parse_equals_per_cell_parse(table):
    text, specs, _ = table
    got = assert_plain_is_per_cell(text, specs)
    event("error" if got[0] == "error" else "table")


SPECS_XY = (IndicatorSpec("y", Direction.POSITIVE), IndicatorSpec("x", Direction.NEGATIVE))


@pytest.mark.parametrize("text", [
    "object,x,y\na,1,2\nb,3,4\n",
    "object,x,y\r\na,1,2\r\nb,3,4",
    " object , x ,\ty\n a# ,  1 , 2\t\nb,-0.0,+4\n",
    "object,x,y\ra,1e-320,2\rb,3,4\r",
])
def test_plain_parse_taken(text):
    got = assert_plain_is_per_cell(text, SPECS_XY)
    assert got[0] != "error"


@pytest.mark.parametrize("text", [
    "object,x,y\n",  # header only: parsed whole
    "object,x,y\na,1,2\n\nb,3,4\n",  # blank line
    'object,x,y\n"a,b",1,2\nb,3,4\n',  # quoted id: parsed whole
    "object,x,y\na,1_000,2\nb,3,4\n",  # float()-only syntax
    "object,x,y\na,1,2,3\nb,3,4\n",  # ragged row
    "object,x,y\na,1,2,3\nb,3\n",  # ragged rows whose commas add up
    "object,x,y\na,1,2\n \nb,3,4\n",  # whitespace-only line
    "object,x,y\na,1,2,3,4\n\nb,3,4\n",  # blank line beside a wide row
    "object,x,y\na,,2\nb,3,4\n",  # missing value
    "object,x,y\na,nan,2\nb,3,-inf\n",  # non-finite values, which the per-cell path names
])
def test_plain_parse_declined(text):
    """Texts that numpy's C parser declines: their share, or with a quote
    or a header alone the whole text, is parsed cell by cell, so the plain
    parse gives the per-cell table or error."""
    assert_plain_is_per_cell(text, SPECS_XY)


@pytest.mark.parametrize("text, specs, message", [
    ("object,x,z\na,1,2\nb,3,4\n", SPECS_XY, r"columns declared but absent: \['y'\]"),
    ("object,x,x\na,1\nb,3,4,5\n", (IndicatorSpec("x", Direction.POSITIVE),) * 2,
     r"columns repeated in the header: \['x'\]"),
    # no data line: still the header's error, not a decline
    ("object,x,z\n", SPECS_XY, r"columns declared but absent: \['y'\]"),
    ("object\n", SPECS_XY, "header must have an id column plus data"),
], ids=["names-differ", "repeated-names", "header-only", "no-data-column"])
def test_plain_parse_header_errors(text, specs, message):
    # raised where the plain path finds them, as the per-cell path raises them
    rows = list(csv.reader(io.StringIO(text, newline="")))
    for parse in (lambda: parse_plain(text, specs), lambda: _parse_rows(rows, specs)):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            parse()


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
    # a repeated column on each path: the quoted id sends the second table per cell
    ("object,x,x,y\na,1,9,2\nb,3,8,4\n", SPECS_XY, r"columns repeated in the header: \['x'\]"),
    ('object,x,x,y\n"a",1,9,2\nb,3,8,4\n', SPECS_XY,
     r"columns repeated in the header: \['x'\]"),
], ids=["header-only", "repeated-row", "nan-cell", "repeated-indicator", "repeated-column",
        "repeated-column-quoted-id"])
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


# --- the plain parse forked, one share per process, against one process -----


@pytest.fixture
def forked_parse(fork_calls, monkeypatch):
    """Every plain parse forks, one share per reported CPU, however short
    its text; the list collects one entry per fork."""
    monkeypatch.setattr(_fork, "FORK_MIN_BYTES", 0)
    return fork_calls


def serial_parse(text, specs):
    """``_parse_plain`` with the fork gated off for every table."""
    saved = _fork.FORK_MIN_BYTES
    _fork.FORK_MIN_BYTES = float("inf")
    try:
        return parse_plain(text, specs)
    finally:
        _fork.FORK_MIN_BYTES = saved


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(tables(), wide_tables()), st.integers(2, FORK_CPUS))
def test_forked_plain_parse_equals_serial(forked_parse, monkeypatch, table, n):
    """The plain parse cut into up to ``n`` shares gives what it gives in
    one, and that is what the per-cell parse gives."""
    text, specs, _ = table
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    before = len(forked_parse)
    got = assert_plain_is_per_cell(text, specs)
    event("forked" if len(forked_parse) > before else "one share")
    assert got == outcome(lambda: serial_parse(text, specs))


@pytest.mark.parametrize("text, ids", [
    ("object,x,y\na,1,2\n", ["a"]),
    ("object,x,y\na,1,2\nb,3,4\n", ["a", "b"]),
    ("object,x,y\na,1,2\nb,3,4\nc,5,6\n", ["a", "b", "c"]),
    ("object,x,y\r\na,1,2\r\nb,3,4\r\nc,5,6\r\n", ["a", "b", "c"]),
    ("object,x,y\ra,1,2\rb,3,4\rc,5,6\r", ["a", "b", "c"]),
    ("object,x,y\na,1,2\nb,3,4\nc,5,6", ["a", "b", "c"]),  # no newline at the end
    ("object,x,y\n,1,2\n", [""]),
    ("object,x,y\na,1,2\n,3,4\n", ["a", ""]),
], ids=["1-row", "2-rows", "3-rows", "crlf", "cr", "no-final-newline", "1-empty-id",
        "child-empty-id"])
def test_forked_plain_parse_of_few_rows(forked_parse, text, ids):
    """With more CPUs than rows, each row is a share of its own and the
    CPUs left over get none.  A share sends its ids back joined by newlines:
    a share of one row gives back one id, even an empty one."""
    got = outcome(lambda: parse_plain(text, SPECS_XY))
    assert got[0] == ids
    assert len(forked_parse) == len(ids) - 1
    assert got == outcome(lambda: serial_parse(text, SPECS_XY))


@pytest.mark.parametrize("columns, rows, forks", [
    (9, 5_000, False),  # fit_tall
    (9, 25_000, True),
    (9, 38_000, True),
    (9, 50_000, True),
    (9, 100_000, True),  # assign_bulk
    (120, 2_000, True),  # fit_wide
])
def test_parse_fork_gate_at_the_measured_points(fork_calls, monkeypatch, columns, rows, forks):
    """The parse forks when its text reaches :data:`_fork.FORK_MIN_BYTES`,
    however long its rows.  The rows are as long as the benchmark's: 181 B
    at 9 columns, 2290 B at 120.  With each share pinned to its own CPU,
    the first ``relarm assign`` of a fresh process on 2 CPUs was faster
    forked than in one process at every forked point measured: the first
    25k rows of the benchmark's 100k x 9 table (4.5 MB) in 22 of 24 runs
    (median 100 against 137 ms), 38k rows in 20 of 24 (160 against
    197 ms) and all 100k in 23 of 24; ``relarm run`` of the 2000 x 120
    table, its restarts forked too, in 18 of 24."""
    cell = "-1234.567890123456"  # the benchmark's cells are 18 B on average
    header = "object," + ",".join(f"c{j}" for j in range(columns)) + "\n"
    text = header + ("obj000001," + ",".join([cell] * columns) + "\n") * rows
    specs = tuple(IndicatorSpec(f"c{j}", Direction.POSITIVE) for j in range(columns))
    decide_only(monkeypatch)
    with pytest.raises(ForkDecided) as decided:
        parse_plain(text, specs)
    assert decided.value.args == (FORK_CPUS if forks else 1,)


def test_blank_line_at_a_share_boundary(forked_parse, monkeypatch):
    """A blank line ends one share or starts the next: the share that holds
    it is parsed cell by cell, which names the blank line's file row."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = record_shares(monkeypatch)
    rows = [f"{i},{i},{i}\n" for i in range(6)]  # one width, so the cut is known
    placed = set()
    for i in range(1, len(rows)):
        text = "object,x,y\n" + "".join(rows[:i]) + "\n" + "".join(rows[i:])
        blank = text.index("\n\n") + 1
        with pytest.raises(ValidationError, match=rf"^row {i + 2} has 0 cells, expected 3$"):
            parse_plain(text, SPECS_XY)
        cut = calls[-1][1][0]
        placed.add({cut: "first", cut - 1: "last"}.get(blank))
    assert {"first", "last"} <= placed


@pytest.mark.parametrize("cell, message", [
    ("oops", "non-numeric value 'oops'"),
    ("inf", "non-finite value 'inf'"),
])
def test_bad_cell_in_a_child_share_names_its_file_line(forked_parse, tmp_path, cell, message):
    rows = [f"o{i},{i},{i}" for i in range(8)]
    rows[6] = f"o6,{cell},6"  # file line 8, in the last share
    path = tmp_path / "d.csv"
    path.write_text("object,x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match=(
        rf"^{re.escape(str(path))}: row 8, column 'x': {message}$"
    )):
        load_dataset(path, SPECS_XY)
    assert len(forked_parse) == 3
