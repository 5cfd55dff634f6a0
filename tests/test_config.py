"""Config validation and round-trip."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import pytest

from flowlink.agents import ScenarioKind
from flowlink.config import ConfigError, EngineConfig, load_config_sections

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_are_valid():
    cfg = EngineConfig()
    assert cfg.verification_interval == 30.0
    assert cfg.retry_window == 2.0


def test_roundtrip_through_dict():
    cfg = EngineConfig(dns_servers=("10.0.0.53",), retry_window=1.5)
    again = EngineConfig.from_dict(dataclasses.asdict(cfg))
    assert again == cfg


def test_roundtrip_through_file(tmp_path):
    cfg = EngineConfig(verification_interval=15.0, log_dir="out")
    path = tmp_path / "cfg.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh)
    assert load_config_sections(str(path)) == (cfg, {})


def test_unknown_field_named_in_error():
    with pytest.raises(ConfigError, match="verification_intervall"):
        EngineConfig.from_dict({"verification_intervall": 30})


def test_bad_duration_named_in_error():
    with pytest.raises(ConfigError, match="grace_period"):
        EngineConfig(grace_period=-5)
    with pytest.raises(ConfigError, match="probe_interval"):
        EngineConfig(probe_interval=0)
    with pytest.raises(ConfigError, match="verification_interval: expected a number"):
        EngineConfig.from_dict({"verification_interval": "soon"})


@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_non_finite_duration_named_in_error(tmp_path, literal):
    path = tmp_path / "cfg.json"
    path.write_text('{"engine": {"retry_window": %s}}' % literal)
    with pytest.raises(ConfigError, match="retry_window: duration must be finite"):
        load_config_sections(str(path))


def test_ports_validated():
    with pytest.raises(ConfigError, match="metrics_port"):
        EngineConfig(metrics_port=99999)


# what each field's type check says it expected
EXPECTED = {"retry_window": "a number", "dns_servers": "a list of strings",
            "max_parked": "an integer >= 1", "metrics_port": "a port 0-65535",
            "listen_port": "a port 0-65535", "listen_addr": "a string",
            "log_dir": "a string"}


@pytest.mark.parametrize("name, value", [
    ("retry_window", True), ("dns_servers", "203.0.113.53"),
    ("dns_servers", 5), ("dns_servers", [5]),
    ("max_parked", "x"), ("max_parked", True), ("max_parked", 0),
    ("metrics_port", True), ("listen_port", "80"),
    ("listen_addr", None), ("log_dir", 5),
])
def test_wrong_type_named_in_error(name, value):
    # the type check's own text: an unknown-field error also names the field
    with pytest.raises(ConfigError,
                       match=re.escape(f"{name}: expected {EXPECTED[name]}, got ")):
        EngineConfig.from_dict({name: value})


def test_sectioned_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "engine": {"retry_window": 0.5},
        "workload": {"hosts": 3, "seed": 9},
    }))
    cfg, workload = load_config_sections(str(path))
    assert cfg.retry_window == 0.5
    assert workload == {"hosts": 3, "seed": 9}


def test_flat_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"retry_window": 0.75}))
    cfg, workload = load_config_sections(str(path))
    assert cfg.retry_window == 0.75 and workload == {}


@pytest.mark.parametrize("engine", [5, [1], "retry_window"])
def test_engine_section_must_be_an_object(tmp_path, engine):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"engine": engine}))
    with pytest.raises(ConfigError, match="engine: expected an object"):
        load_config_sections(str(path))


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config_sections(str(path))


def test_readme_engine_fields_name_exactly_the_config_fields():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Engine fields"):].split("\n\n", 1)[0]
    named = re.findall(r"`([a-z_]+)`", paragraph)
    assert sorted(named) == sorted(f.name for f in dataclasses.fields(EngineConfig))


def test_readme_scenario_kinds_name_exactly_the_scenario_kinds():
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("Scenario kinds:"):].split(".", 1)[0]
    named = re.findall(r"`([a-z_]+)`", sentence)
    assert sorted(named) == sorted(kind.value for kind in ScenarioKind)
