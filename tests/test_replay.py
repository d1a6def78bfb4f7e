"""Gateway replay of the record log against a forward-replay oracle.

``forward_replay`` is the replay the gateway used to do: decode every frame
in log order and apply each usable put and delete. The gateway now decodes
only each key's newest usable entry; the records it builds, every field
and their order must match the oracle's."""

import json
import logging
import os
import random
import struct
import zlib

import pytest

from statemachine import SequenceRunner, build_registry
from udigate.clock import VirtualClock
from udigate.gateway import Gateway, ImageRecord, ImageState
from udigate.refs import ImageReference
from udigate.registry import LocalRegistry
from udigate.store import RecordLog


def forward_replay(path: str) -> tuple[dict, int]:
    """Every frame decoded and applied in log order. Returns (records,
    skipped), skipped counting every rotted, undecodable or unusable frame."""
    entries, skipped = [], 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0
        while off < len(data):
            length, crc = struct.unpack_from("<II", data, off)
            payload = data[off + 8:off + 8 + length]
            off += 8 + length
            try:
                if zlib.crc32(payload) != crc:
                    raise ValueError("crc")
                entries.append(json.loads(payload.decode("utf-8")))
            except ValueError:
                skipped += 1
    records: dict = {}
    for entry in entries:
        try:
            if entry["op"] == "delete":
                records.pop(entry["key"], None)
            elif entry["op"] == "put":
                rec = ImageRecord.from_store_dict(entry["record"])
                if entry["key"] != rec.ref.key():
                    raise ValueError("foreign key")
                records[entry["key"]] = rec
            else:
                raise ValueError("unknown op")
        except (KeyError, TypeError, ValueError):
            skipped += 1
    return records, skipped


def replay(fast_cfg, state_dir: str) -> tuple[list, int]:
    """The gateway's replay of state_dir: (records in order, skip count)."""
    logger = logging.getLogger("udigate.gateway")
    seen: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: seen.append(record.getMessage())
    logger.addHandler(handler)
    try:
        gw = Gateway(fast_cfg, VirtualClock(), LocalRegistry(), state_dir)
    finally:
        logger.removeHandler(handler)
    gw.close()
    skipped = [int(m.split()[3]) for m in seen if m.startswith("record log: skipped")]
    return list(gw._records.items()), sum(skipped)


def assert_matches_oracle(fast_cfg, state_dir: str) -> int:
    expected, oracle_skipped = forward_replay(os.path.join(state_dir, "records.log"))
    got, skipped = replay(fast_cfg, state_dir)
    assert got == list(expected.items())  # same records, every field, same order
    assert skipped <= oracle_skipped  # superseded frames are no longer decoded
    return len(got)


class CheckedRunner(SequenceRunner):
    """Checks every restart's replay against the oracle before booting."""

    replayed = 0  # records replayed over all boots

    def _boot(self) -> Gateway:
        self.replayed += assert_matches_oracle(self.config, self.state_dir)
        return super()._boot()


def test_replay_matches_oracle_over_crash_restart_histories(fast_cfg, tmp_path):
    registry = build_registry()
    master = random.Random(14)
    replayed = 0
    for _ in range(12):
        runner = CheckedRunner(registry, fast_cfg, master.getrandbits(64), str(tmp_path))
        try:
            runner.run(master.randrange(20, 60))
            runner.op_crash()
        finally:
            runner.finish()
        replayed += runner.replayed
    assert replayed > 20  # the histories left records to replay


# -- hand-built logs -----------------------------------------------------------

REFS = [ImageReference("local", "app", "alpha", "v1"),
        ImageReference("local", "app", "beta", "v2"),
        ImageReference("local", "", "café", "v1"),  # escaped in canonical JSON
        ImageReference("cray", "lib", 'say"hi', "1")]  # a quote, escaped too


def frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def store_dict(rng: random.Random, ref: ImageReference) -> dict:
    return ImageRecord(ref, rng.choice(list(ImageState)), f"d{rng.randrange(99)}",
                       f"/u/{rng.randrange(99)}", "", rng.randrange(1 << 20),
                       rng.random(), rng.random(), rng.choice((0.0, 1.5, 2))).to_store_dict()


def write_log(state_dir: str, *entries) -> None:
    log = RecordLog(os.path.join(state_dir, "records.log"))
    for entry in entries:
        log.append(entry)
    log.close()


def put(rng, ref) -> dict:
    return {"op": "put", "key": ref.key(), "record": store_dict(rng, ref)}


def unusable_put(rng: random.Random, ref: ImageReference) -> dict:
    """A put of ``ref`` that replay must skip."""
    other = rng.choice([r for r in REFS if r != ref])
    return rng.choice((
        {"op": "put", "key": ref.key(), "record": store_dict(rng, other)},  # foreign key
        {"op": "put", "key": ref.key(), "record": {**store_dict(rng, ref), "attempts": "1"}},
        {"op": "put", "key": ref.key(), "record": {**store_dict(rng, ref), "state": "NOPE"}},
        {"op": "put", "key": ref.key()},
        {"op": "bogus", "key": ref.key(), "record": store_dict(rng, ref)},
    ))


def random_log(rng: random.Random, n: int) -> bytes:
    """Puts and deletes of four keys, some whitespace-padded, some rotted.
    An unusable put is written only for a key that a usable put has placed
    since its last delete, so it never decides where its key sits in the
    order (see test_an_unusable_put_still_places_its_key)."""
    out, placed = [], set()
    for _ in range(n):
        ref = rng.choice(REFS)
        roll = rng.random()
        if roll < 0.2:
            entry, places = {"op": "delete", "key": ref.key()}, False
        elif roll < 0.35 and ref in placed:
            entry, places = unusable_put(rng, ref), True  # placed already
        else:
            entry, places = put(rng, ref), True
        payload = canon(entry)
        if rng.random() < 0.15:
            payload = json.dumps(entry, indent=1).encode()  # decoded for its key
        framed = bytearray(frame(payload))
        if rng.random() < 0.1:
            framed[8 + rng.randrange(len(payload))] ^= 0x20  # crc rot, in the prefix too
        elif places:
            placed.add(ref)
        else:
            placed.discard(ref)
        out.append(bytes(framed))
    return b"".join(out)


@pytest.mark.parametrize("seed", range(40))
def test_replay_matches_oracle_on_random_logs(fast_cfg, tmp_path, seed):
    rng = random.Random(seed)
    state = tmp_path / "state"
    state.mkdir()
    (state / "records.log").write_bytes(random_log(rng, rng.randrange(5, 80)))
    assert_matches_oracle(fast_cfg, str(state))


@pytest.mark.parametrize("case", [
    "delete then re-put", "another key between delete and re-put",
    "unusable newest put falls back", "put under a foreign key",
])
def test_replay_matches_oracle_on_hand_built_logs(fast_cfg, tmp_path, case):
    rng = random.Random(case)
    a, b, c = REFS[0], REFS[1], REFS[2]
    entries, live = {
        "delete then re-put": ([put(rng, a), put(rng, b), {"op": "delete", "key": a.key()},
                                put(rng, a)], 2),
        "another key between delete and re-put": (
            [put(rng, a), put(rng, b), {"op": "delete", "key": a.key()}, put(rng, c),
             put(rng, a), put(rng, b)], 3),
        "unusable newest put falls back": ([put(rng, a), put(rng, b), put(rng, a),
                                            {**put(rng, a), "record": {}}], 2),
        "put under a foreign key": ([put(rng, a), put(rng, b),
                                     {**put(rng, b), "key": a.key()}], 2),
    }[case]
    write_log(str(tmp_path), *entries)
    assert assert_matches_oracle(fast_cfg, str(tmp_path)) == live


def test_an_unusable_put_still_places_its_key(fast_cfg, tmp_path):
    """The one place the order can differ from the oracle's: an unusable
    put that a later usable put of its key supersedes is never decoded, so
    it places its key in the order as a usable put would have."""
    rng = random.Random(3)
    a, b = REFS[0], REFS[1]
    write_log(str(tmp_path), {**put(rng, a), "record": {}}, put(rng, b), put(rng, a))
    expected, _ = forward_replay(os.path.join(str(tmp_path), "records.log"))
    got, skipped = replay(fast_cfg, str(tmp_path))
    assert dict(got) == expected
    assert [key for key, _ in got] == [a.key(), b.key()]
    assert list(expected) == [b.key(), a.key()]
    assert skipped == 0


def test_replay_builds_one_record_per_live_key(fast_cfg, tmp_path, monkeypatch):
    rng = random.Random(5)
    refs = [ImageReference("local", "app", f"n{i}", "v1") for i in range(11)]
    write_log(str(tmp_path), *[put(rng, refs[0]) for _ in range(1000)],
              *[put(rng, ref) for ref in refs[1:] for _ in range(100)])
    built = []
    real = ImageRecord.from_store_dict
    monkeypatch.setattr(ImageRecord, "from_store_dict",
                        staticmethod(lambda doc: built.append(doc["name"]) or real(doc)))
    got, skipped = replay(fast_cfg, str(tmp_path))
    assert sorted(built) == sorted(ref.name for ref in refs)
    assert [key for key, _ in got] == [ref.key() for ref in refs]
    assert skipped == 0
