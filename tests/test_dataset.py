import json
import time

import numpy as np
import pytest

from relarm.dataset import (
    Direction,
    IndicatorSpec,
    RawDataset,
    load_dataset,
    save_dataset,
)
from relarm.errors import ValidationError


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
    with pytest.raises(ValidationError, match="at least 2"):
        RawDataset(
            objects=("a",),
            indicators=(IndicatorSpec("x", Direction.POSITIVE),),
            values=np.array([[1.0]]),
        )


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
