import dataclasses

import pytest

from udigate.config import _NON_NEGATIVE, _POSITIVE, Config, load_config, parse_config
from udigate.errors import InvalidSpec


def test_defaults_sane():
    cfg = Config()
    assert cfg.lease_duration == 60.0
    assert cfg.heartbeat_interval == 10.0
    assert cfg.sweep_interval == 15.0
    assert cfg.worker_pool_size == 2
    assert cfg.max_attempts == 3
    assert cfg.credential_ttl == 300.0
    assert cfg.cache_ttl == 600.0
    assert cfg.identity_cap == 500
    assert cfg.identity_timeout == 5.0
    # a worker renews faster than its lease runs out
    assert cfg.heartbeat_interval < cfg.lease_duration
    assert cfg.sweep_interval < cfg.lease_duration


def test_parse_overrides_and_comments():
    cfg = parse_config("""
        # tuning for the small test cluster
        lease_duration = 12.5
        worker_pool_size = 4
        cache_enabled = false
        secret = hunter2
    """)
    assert cfg.lease_duration == 12.5
    assert cfg.worker_pool_size == 4
    assert cfg.cache_enabled is False
    assert cfg.secret == b"hunter2"
    # untouched keys keep defaults
    assert cfg.max_attempts == 3


@pytest.mark.parametrize("text", ["true", "1", "yes", "ON"])
def test_bool_truthy_forms(text):
    assert parse_config(f"cache_enabled = {text}").cache_enabled is True


def test_unknown_key_rejected():
    with pytest.raises(InvalidSpec, match="unknown key"):
        parse_config("lease_durations = 5")


def test_bad_value_rejected():
    with pytest.raises(InvalidSpec):
        parse_config("worker_pool_size = many")
    with pytest.raises(InvalidSpec):
        parse_config("cache_enabled = maybe")
    with pytest.raises(InvalidSpec):
        parse_config("just-a-line-without-equals")


def test_secret_file_indirection(tmp_path):
    sf = tmp_path / "secret"
    sf.write_bytes(b"wire-key-123\n")
    cfg = parse_config(f"secret_file = {sf}")
    assert cfg.secret == b"wire-key-123"


def test_empty_secret_rejected(tmp_path):
    empty = tmp_path / "secret"
    empty.write_bytes(b"\n")
    for build in (lambda: Config(secret=b""), lambda: parse_config("secret = "),
                  lambda: parse_config(f"secret_file = {empty}")):
        with pytest.raises(InvalidSpec, match="secret is empty"):
            build()


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "udigate.conf"
    p.write_text("poll_interval = 0.25\nidentity_cap = 9\n")
    cfg = load_config(str(p))
    assert cfg.poll_interval == 0.25
    assert cfg.identity_cap == 9


def test_replace_returns_new_instance():
    base = Config()
    derived = base.replace(lease_duration=1.0)
    assert derived.lease_duration == 1.0
    assert base.lease_duration == 60.0


@pytest.mark.parametrize("key,value", [
    ("heartbeat_interval", 0),
    ("registry_bandwidth", -1),
    ("worker_pool_size", 0),
    ("lease_duration", float("inf")),
    ("convert_bandwidth", float("nan")),
    ("cache_ttl", -0.5),
    ("command_duration", float("nan")),
    ("identity_timeout", float("-inf")),
])
def test_out_of_range_value_rejected(key, value):
    with pytest.raises(InvalidSpec, match=key):
        parse_config(f"{key} = {value}")
    with pytest.raises(InvalidSpec, match=key):
        Config().replace(**{key: value})


def test_zero_allowed_where_it_means_free():
    cfg = Config().replace(**{key: 0 for key in _NON_NEGATIVE})
    assert all(getattr(cfg, key) == 0 for key in _NON_NEGATIVE)


def test_every_numeric_key_has_a_range():
    numeric = {f.name for f in dataclasses.fields(Config) if f.type in ("int", "float")}
    assert numeric == set(_POSITIVE) | set(_NON_NEGATIVE)
