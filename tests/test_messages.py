"""A huge value in an input gives a short error line that still says where.

Each reader echoes a value through ``errors.shown``: its first 60
characters of ``repr``, then ``…`` and its length.  A value that short is
echoed whole, as before.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from relarm.cli import main
from relarm.config import config_from_dict, parse_indicator_specs
from relarm.dataset import (
    Direction,
    IndicatorSpec,
    RawDataset,
    check_indicators,
    load_dataset,
)
from relarm.errors import LISTED_MAX, ValidationError, listed
from relarm.io import read_ratings_csv, read_reference_csv
from relarm.normalize import ConstantColumnWarning, normalize_dataset, range_width
from relarm.rating import collapse_category
from relarm.snapshot import load_snapshot, save_snapshot

HUGE = "x" * 100_000
SHOWN_TEXT = f"'{'x' * 59}… (100002 characters)"  # repr(HUGE), cut at 60
SHOWN = re.escape(SHOWN_TEXT)
RATINGS_HEADER = "object,cluster,projection,category\n"


def error(read, path):
    with pytest.raises(ValidationError) as info:
        read(path)
    return str(info.value)


@pytest.mark.parametrize("text, message", [
    (RATINGS_HEADER + f"{HUGE},1,0.5,AAA\nb,1,0.5,AAA\n{HUGE},1,0.5,AAA\n",
     rf"row 4: object {SHOWN} is already rated at row 2"),
    (RATINGS_HEADER + f"a,1,0.5,AAA\nb,1,0.5,{HUGE}\n",
     rf"row 3: cluster 1 has projection 0.5 and category {SHOWN}, "
     r"but row 2 gave it 0.5 and 'AAA'"),
    (RATINGS_HEADER + f"a,1,0.5,{HUGE}\nb,1,0.5,AAA\n",
     rf"row 3: cluster 1 has projection 0.5 and category 'AAA', "
     rf"but row 2 gave it 0.5 and {SHOWN}"),
], ids=["repeated-object", "category-differs", "first-category-huge"])
def test_ratings_errors_echo_a_huge_value_short(tmp_path, text, message):
    path = tmp_path / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    got = error(read_ratings_csv, path)
    assert re.fullmatch(rf"{re.escape(str(path))}: {message}", got), got
    assert len(got) - len(str(path)) < 200


@pytest.mark.parametrize("obj, agency, message", [
    (HUGE, "S&P", rf"row 3: object {SHOWN} is already rated by agency 'S&P' at row 2"),
    ("Chile", HUGE, rf"row 3: object 'Chile' is already rated by agency {SHOWN} at row 2"),
], ids=["object", "agency"])
def test_reference_repeat_echoes_a_huge_value_short(tmp_path, obj, agency, message):
    path = tmp_path / "reference.csv"
    path.write_text(f"object,agency,category\n{obj},{agency},AA\n{obj},{agency},A\n",
                    encoding="utf-8")
    got = error(read_reference_csv, path)
    assert re.fullmatch(rf"{re.escape(str(path))}: {message}", got), got


@pytest.mark.parametrize("entries, message", [
    ([HUGE], rf"indicators\[0\] must be an object with a 'name', got {SHOWN}"),
    ([{"name": "x", "direction": HUGE}],
     rf"'indicators\[0\].direction' must be 'positive' or 'negative', got {SHOWN}"),
    ([{"name": HUGE, "direction": "positive"}] * 2, rf"'indicators\[1\].name' repeats {SHOWN}"),
    ([["x"]], r"indicators\[0\] must be an object with a 'name', got \['x'\]"),
], ids=["entry", "direction", "repeated-name", "short-entry"])
def test_indicator_spec_errors_echo_a_huge_value_short(entries, message):
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        parse_indicator_specs(entries)


LISTED = rf"\[{SHOWN}\]"  # each name of a list is cut on its own


def specs(*names):
    return tuple(IndicatorSpec(n, Direction.POSITIVE) for n in names)


@pytest.mark.parametrize("header, names, message", [
    ("object,x,y", ("x", HUGE), rf"columns declared but absent: {LISTED}"),
    (f"object,x,y,{HUGE}", ("x", "y"), rf"columns present but undeclared: {LISTED}"),
    (f"object,x,{HUGE},{HUGE}", ("x", HUGE), rf"columns repeated in the header: {LISTED}"),
    ("object,x,z", ("x", "y"), r"columns declared but absent: \['y'\]"),
    ("object,x", tuple("xabcdefghij"),
     r"columns declared but absent: \['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j'\]"),
], ids=["absent", "undeclared", "repeated", "short-name", "many-short-names"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "per-cell"])
def test_header_errors_echo_a_huge_name_short(tmp_path, header, names, message, quoted):
    path = tmp_path / "d.csv"
    width = header.count(",")
    rows = [("a" if not quoted else '"a"') + ",1" * width, "b" + ",2" * width]
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    got = error(lambda p: load_dataset(p, specs(*names)), path)
    assert re.fullmatch(rf"{re.escape(str(path))}: {message}", got), got
    assert len(got) - len(str(path)) < 200


MANY = [f"c{j}" for j in range(100_000)]
# the first LISTED_MAX names, then the count of the rest
MANY_LISTED = re.escape(
    "[" + ", ".join(repr(n) for n in MANY[:LISTED_MAX])
    + f", … ({len(MANY) - LISTED_MAX} more)]"
)


def test_a_list_is_cut_past_its_first_elements():
    assert listed(range(LISTED_MAX)) == repr(list(range(LISTED_MAX)))
    assert listed(range(LISTED_MAX + 1)) == (
        repr(list(range(LISTED_MAX)))[:-1] + ", … (1 more)]"
    )


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "per-cell"])
def test_a_header_of_many_undeclared_names_is_short(tmp_path, quoted):
    path = tmp_path / "d.csv"
    ident = '"a"' if quoted else "a"
    path.write_text(f"object,x,{','.join(MANY)}\n{ident},1{',0' * len(MANY)}\n",
                    encoding="utf-8")
    got = error(lambda p: load_dataset(p, specs("x")), path)
    assert re.fullmatch(
        rf"{re.escape(str(path))}: columns present but undeclared: {MANY_LISTED}", got
    ), got[:300]
    assert len(got) - len(str(path)) < 400


BUNDLED = Path(__file__).resolve().parents[1] / "src" / "relarm" / "data"
# repr(f"collapse_table.{HUGE}"), cut at 60
COLLAPSE_KEY = re.escape(f"'collapse_table.{'x' * 44}… (100017 characters)")
# seven labels, each cut on its own
LABELS = [HUGE + str(i) for i in range(7)]
LISTED_LABELS = re.escape(
    "[" + ", ".join(f"'{'x' * 59}… (100003 characters)" for _ in LABELS) + "]"
)


def test_collapse_target_outside_huge_labels_is_short():
    raw = json.loads((BUNDLED / "country_config.json").read_text(encoding="utf-8"))
    raw.update(labels=LABELS, collapse_table={"AA+": "ZZZ"})
    with pytest.raises(ValidationError) as info:
        config_from_dict(raw)
    message = rf"'collapse_table.AA\+' must be one of the labels {LISTED_LABELS}, got 'ZZZ'"
    assert re.fullmatch(message, str(info.value)), str(info.value)
    assert len(str(info.value)) < 1000


@pytest.mark.parametrize("key, value, message", [
    ("labels", HUGE, rf"'labels' must be a list, got {SHOWN}"),
    ("collapse_table", HUGE, rf"'collapse_table' must be an object, got {SHOWN}"),
    ("collapse_table", {"AA+": HUGE},
     r"'collapse_table.AA\+' must be one of the labels \[.*\], " rf"got {SHOWN}"),
    ("distance", HUGE, rf"'distance' must be \"euclidean\", got {SHOWN}"),
    (HUGE, 1, rf"unknown key {SHOWN}"),
    ("collapse_table", {HUGE: "ZZZ"},
     rf"{COLLAPSE_KEY} must be one of the labels \[.*\], got 'ZZZ'"),
    ("collapse_table", {HUGE: 5}, rf"{COLLAPSE_KEY} must be a string, got 5"),
    ("indicators", [{"name": "x", "direction": "positive", HUGE: 1}],
     re.escape(f"unknown key 'indicators[0].{'x' * 45}… (100016 characters)")),
    ("labels", ["AAA", HUGE, "A", "BBB", "BB", HUGE, "CCC"], rf"'labels\[5\]' repeats {SHOWN}"),
], ids=["labels", "collapse-table", "collapse-value", "fixed-key", "unknown-key",
        "collapse-key", "collapse-key-value", "indicator-key", "repeated-label"])
def test_config_errors_echo_a_huge_value_short(key, value, message):
    raw = json.loads((BUNDLED / "country_config.json").read_text(encoding="utf-8"))
    raw[key] = value
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        config_from_dict(raw)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.__setitem__("format_version", HUGE),
     rf"unsupported snapshot format {SHOWN}"),
    (lambda doc: doc["model"].__setitem__("d", HUGE),
     rf"'model.d' must be an integer in \[1, 9\], got {SHOWN}"),
    (lambda doc: (doc["config"]["indicators"][0].__setitem__("name", HUGE),
                  doc["normalization"]["column_min"].__setitem__(0, 1e9)),
     rf"'normalization.column_min' 1000000000.0 exceeds 'normalization.column_max' "
     rf"[-0-9.e+]+ for indicator {SHOWN}"),
    (lambda doc: (doc["config"]["indicators"][0].__setitem__("name", HUGE),
                  doc["normalization"]["column_min"].__setitem__(0, -1.5e308),
                  doc["normalization"]["column_max"].__setitem__(0, 1.5e308)),
     rf"'normalization': column {SHOWN}: the width hi - lo of its range "
     r"\[-1.5e\+308, 1.5e\+308\] is not a finite number"),
    (lambda doc: doc["clusters"]["categories"].__setitem__(0, HUGE),
     rf"stored cluster categories \[{SHOWN}, [^…]*\] disagree with \[[^…]*\], "
     r"the labels bound by descending projection"),
    (lambda doc: doc["clusters"].__setitem__("categories", HUGE),
     rf"stored cluster categories {SHOWN} disagree with \[[^…]*\], "
     r"the labels bound by descending projection"),
], ids=["format", "d", "range-order", "range-width", "stored-category", "stored-categories"])
def test_snapshot_errors_echo_a_huge_value_short(tmp_path, country_run, edit, message):
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = error(load_snapshot, path)
    assert re.fullmatch(rf"{re.escape(str(path))}: {message}", got), got


def test_many_stored_categories_are_short(tmp_path, country_run):
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["clusters"]["categories"] = MANY
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = error(load_snapshot, path)
    assert re.fullmatch(
        rf"{re.escape(str(path))}: stored cluster categories {MANY_LISTED} disagree with "
        r"\[[^…]*\], the labels bound by descending projection", got
    ), got[:300]
    assert len(got) - len(str(path)) < 400


def specs_of(*names, pre_normalized=False):
    return tuple(IndicatorSpec(n, Direction.POSITIVE, pre_normalized) for n in names)


@pytest.mark.parametrize("objects, names, values, message", [
    ((HUGE, HUGE), ("x",), [[1.0], [2.0]],  # the whole list cut at 60
     re.escape(f"duplicate object ids: ['{'x' * 58}… (100004 characters)")),
    (("a", HUGE), ("x",), [[1.0], [np.nan]],
     rf"non-finite value at row 2 \({SHOWN}\), column 'x'"),
    (("a", "b"), (HUGE,), [[1.0], [np.inf]],
     rf"non-finite value at row 2 \('b'\), column {SHOWN}"),
    (("a", HUGE), ("x",), [[0.5], [1.5]],
     rf"pre-normalized column 'x' has value 1.5 outside \[0, 1\] for object {SHOWN}"),
    ((HUGE, "a", "b", "b", "a"), ("x",), [[1.0]] * 5, r"duplicate object ids: \['a', 'b'\]"),
], ids=["duplicate-id", "non-finite-id", "non-finite-column", "pre-normalized-id",
        "short-duplicate-ids"])
def test_table_check_echoes_a_huge_value_short(objects, names, values, message):
    """A whole-table check quotes an id, a column name, or the list of
    repeated ids as one value, through ``shown``."""
    with pytest.raises(ValidationError) as info:
        RawDataset(objects, specs_of(*names, pre_normalized=True), np.array(values))
    assert re.fullmatch(message, str(info.value)), str(info.value)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("cell, message", [
    ("", "missing value"),
    ("oops", "non-numeric value 'oops'"),
    ("inf", "non-finite value 'inf'"),
])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "per-cell"])
def test_bad_cell_under_a_huge_column_name_is_short(tmp_path, cell, message, quoted):
    path = tmp_path / "d.csv"
    ident = '"b"' if quoted else "b"
    path.write_text(f"object,{HUGE}\na,1\n{ident},{cell}\n", encoding="utf-8")
    got = error(lambda p: load_dataset(p, specs_of(HUGE)), path)
    assert got == f"{path}: row 3, column {SHOWN_TEXT}: {message}"


def test_range_width_echoes_a_huge_name_short():
    with pytest.raises(ValidationError, match=(
        rf"^column {SHOWN}: the width hi - lo of its range \[-1e\+308, 1e\+308\] "
        r"is not a finite number$"
    )):
        range_width(-1e308, 1e308, HUGE)


def test_constant_column_warning_echoes_a_huge_name_short():
    raw = RawDataset(("a", "b"), specs_of("x", HUGE), np.array([[1.0, 5.0], [2.0, 5.0]]))
    with pytest.warns(ConstantColumnWarning) as record:
        normalize_dataset(raw)
    assert [str(w.message) for w in record] == [
        f"column {SHOWN_TEXT} is constant; mapped to 0.5"
    ]


def test_uncollapsible_category_echoes_a_huge_value_short():
    with pytest.raises(ValidationError, match=(
        rf"^reference category {SHOWN} does not collapse to any scale label \['A', 'B'\]$"
    )):
        collapse_category(HUGE, ("A", "B"))


def test_uncollapsible_category_echoes_huge_labels_short():
    with pytest.raises(ValidationError) as info:
        collapse_category("Q", tuple(LABELS))
    message = rf"reference category 'Q' does not collapse to any scale label {LISTED_LABELS}"
    assert re.fullmatch(message, str(info.value)), str(info.value)
    assert len(str(info.value)) < 1000


def test_indicator_mismatch_echoes_a_huge_name_short():
    """``check_indicators``, as a library caller meets it: a dataset read
    against other declarations than the snapshot's."""
    with pytest.raises(ValidationError, match=(
        rf"^dataset indicator 1 is {SHOWN} \(positive\), but the snapshot declares "
        r"'x' \(positive\)$"
    )):
        check_indicators(specs(HUGE), specs("x"), "the snapshot")


def test_skipped_reference_object_warning_is_short(tmp_path, capsys):
    """``relarm score`` warns of a reference object absent from the ratings
    in one short line."""
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(RATINGS_HEADER + "a,1,0.5,AAA\n", encoding="utf-8")
    reference = tmp_path / "reference.csv"
    reference.write_text(f"object,agency,category\na,S&P,AAA\n{HUGE},S&P,AA\n",
                         encoding="utf-8")
    argv = ["score", "--ratings", ratings, "--reference", reference, "--out-dir", tmp_path]
    assert main([str(a) for a in argv]) == 0
    assert capsys.readouterr().err == (
        f"warning: reference object {SHOWN_TEXT} absent from results; skipped\n"
    )
