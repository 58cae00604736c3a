"""A check that holds in every test: each RunConfig a test builds reads
back from its canonical text, so every run's manifest can be rerun."""

import pytest

from vpfp.io_config import RunConfig, canonical_text, parse_config


@pytest.fixture(autouse=True)
def configs_round_trip(monkeypatch):
    built = []
    validate = RunConfig.__post_init__

    def record(cfg):
        validate(cfg)
        built.append(cfg)

    monkeypatch.setattr(RunConfig, "__post_init__", record)
    yield
    for cfg in list(built):
        assert parse_config(canonical_text(cfg)) == cfg, cfg
