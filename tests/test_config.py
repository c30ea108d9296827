"""The snapshot's ``config`` section: the exact JSON each config writes,
and that reading it back gives the same config."""

import json

import pytest

from relarm.config import PipelineConfig, config_from_dict, config_to_dict
from relarm.dataset import Direction, IndicatorSpec
from relarm.snapshot import save_snapshot

# json.dumps(config_to_dict(country config), sort_keys=True)
COUNTRY_TEXT = (
    '{"collapse_table": {}, "indicators": ['
    '{"direction": "positive", "name": "gdp_growth", "pre_normalized": false}, '
    '{"direction": "positive", "name": "competitiveness", "pre_normalized": false}, '
    '{"direction": "positive", "name": "gdp_per_capita", "pre_normalized": false}, '
    '{"direction": "negative", "name": "gov_debt_gdp", "pre_normalized": false}, '
    '{"direction": "positive", "name": "budget_balance_gdp", "pre_normalized": false}, '
    '{"direction": "negative", "name": "inflation", "pre_normalized": false}, '
    '{"direction": "negative", "name": "inflation_volatility", "pre_normalized": false}, '
    '{"direction": "positive", "name": "cab_fdi_gdp", "pre_normalized": false}, '
    '{"direction": "positive", "name": "reserves", "pre_normalized": false}], '
    '"k": 7, "labels": ["AAA", "AA", "A", "BBB", "BB", "B", "CCC"], '
    '"max_iterations": 300, "restarts": 50, "seed": 20160731, "variance_threshold": 0.95}'
)

# every field set, none at its default
FULL = PipelineConfig(
    indicators=(
        IndicatorSpec("debt", Direction.NEGATIVE),
        IndicatorSpec("score", Direction.POSITIVE, pre_normalized=True),
    ),
    k=3,
    labels=("A", "B", "C"),
    seed=7,
    variance_threshold=0.8,
    restarts=4,
    max_iterations=25,
    collapse_table={"A+": "A", "C-": "C"},
)

# json.dumps(config_to_dict(FULL), indent=2, sort_keys=True), as save_snapshot writes it
FULL_TEXT = """\
{
  "collapse_table": {
    "A+": "A",
    "C-": "C"
  },
  "indicators": [
    {
      "direction": "negative",
      "name": "debt",
      "pre_normalized": false
    },
    {
      "direction": "positive",
      "name": "score",
      "pre_normalized": true
    }
  ],
  "k": 3,
  "labels": [
    "A",
    "B",
    "C"
  ],
  "max_iterations": 25,
  "restarts": 4,
  "seed": 7,
  "variance_threshold": 0.8
}"""


def test_country_config_writes_its_pinned_text(country_config):
    assert json.dumps(config_to_dict(country_config), sort_keys=True) == COUNTRY_TEXT


def test_full_config_writes_its_pinned_text():
    assert json.dumps(config_to_dict(FULL), indent=2, sort_keys=True) == FULL_TEXT


def test_snapshot_config_section_is_the_pinned_text(tmp_path, country_run):
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
    section = json.loads(path.read_text(encoding="utf-8"))["config"]
    assert json.dumps(section, sort_keys=True) == COUNTRY_TEXT


@pytest.mark.parametrize("which", ["country", "full"])
def test_config_reads_back_as_written(country_config, which):
    cfg = country_config if which == "country" else FULL
    assert config_from_dict(config_to_dict(cfg)) == cfg
