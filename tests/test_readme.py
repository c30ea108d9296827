"""README's "Library use" block runs as printed, on the bundled country
files, so a signature change that leaves it stale fails here."""

import re
import shutil
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first ``python`` block under README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_use_block_runs(tmp_path, data_dir, monkeypatch, capsys, country_run):
    for name, bundled in (("config.json", "country_config.json"),
                          ("data.csv", "country_raw.csv"),
                          ("reference.csv", "table8_reference.csv")):
        shutil.copy(data_dir / bundled, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    categories, agreement = capsys.readouterr().out.splitlines()
    assert categories == str(country_run.ratings.categories())
    assert re.fullmatch(r"\d+/\d+ objects match an agency", agreement), agreement
