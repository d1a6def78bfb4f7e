"""Record log framing: hand-built frames, torn tails, rot skipping and
grouping by key; the writer's lock, failed writes and close."""

import errno
import json
import os
import re
import struct
import zlib

import pytest

from helpers import FailingWrite
from udigate.errors import PersistenceCorrupt, StorageIoError
from udigate.store import RecordLog, load_entries


def frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def entry(key, op="put", **rest) -> bytes:
    return canon({"key": key, "op": op, **rest})


def test_missing_file_is_empty():
    assert load_entries("/nonexistent/records.log") == ({}, 0)


def test_append_then_load(tmp_path):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    log.append({"op": "put", "key": "a"})
    log.append({"op": "delete", "key": "a"})
    log.close()
    groups, skipped = load_entries(path)
    assert skipped == 0
    assert groups == {"a": [entry("a"), entry("a", "delete")]}


def test_append_writes_exact_frames(tmp_path):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    log.append({"k": 1})
    log.close()
    raw = (tmp_path / "records.log").read_bytes()
    assert raw == frame(canon({"k": 1}))


def test_hand_built_file_loads(tmp_path):
    p = tmp_path / "records.log"
    p.write_bytes(frame(entry("a", n=1)) + frame(entry("b", n=2)) + frame(entry("a", n=3)))
    groups, skipped = load_entries(str(p))
    assert groups == {"a": [entry("a", n=1), entry("a", n=3)], "b": [entry("b", n=2)]}
    assert list(groups) == ["a", "b"]
    assert skipped == 0


def test_crc_rot_skips_that_entry_only(tmp_path):
    p = tmp_path / "records.log"
    good1, bad, good2 = entry("a", n=1), bytearray(frame(entry("a", n=2))), entry("a", n=3)
    bad[-1] ^= 0xFF  # flip a payload byte; header crc now mismatches
    p.write_bytes(frame(good1) + bytes(bad) + frame(good2))
    groups, skipped = load_entries(str(p))
    assert groups == {"a": [good1, good2]}
    assert skipped == 1


def test_crc_rot_in_the_key_prefix_is_never_grouped(tmp_path):
    p = tmp_path / "records.log"
    bad = bytearray(frame(entry("b", n=1)))
    bad[8 + len(b'{"key":"')] = ord("c")  # the key now reads "c", the crc no longer matches
    p.write_bytes(frame(entry("a")) + bytes(bad))
    groups, skipped = load_entries(str(p))
    assert groups == {"a": [entry("a")]}
    assert skipped == 1


def test_torn_header_refuses_to_serve(tmp_path):
    p = tmp_path / "records.log"
    p.write_bytes(frame(canon({"a": 1})) + b"\x05\x00\x00")  # 3 trailing bytes
    with pytest.raises(PersistenceCorrupt):
        load_entries(str(p))


def test_cut_mid_payload_refuses_to_serve(tmp_path):
    p = tmp_path / "records.log"
    full = frame(canon({"a": 1, "padding": "x" * 50}))
    p.write_bytes(full[:-10])
    with pytest.raises(PersistenceCorrupt):
        load_entries(str(p))


def test_absurd_length_refuses_to_serve(tmp_path):
    p = tmp_path / "records.log"
    p.write_bytes(struct.pack("<II", 2**31, 0) + b"xx")
    with pytest.raises(PersistenceCorrupt):
        load_entries(str(p))


def test_crc_ok_but_undecodable_skips(tmp_path):
    p = tmp_path / "records.log"
    p.write_bytes(frame(b"\xff\xfe not json") + frame(entry("a")))
    groups, skipped = load_entries(str(p))
    assert groups == {"a": [entry("a")]}
    assert skipped == 1


@pytest.mark.parametrize("payload", [b'{"key":"a","op":"put"', b"[1, 2]", b'"key"',
                                     canon({"op": "put"}), canon({"key": ["a"]}),
                                     b'{"key":"\xff","op":"put"}'])
def test_frame_without_a_usable_key_is_skipped(tmp_path, payload):
    """A frame the prefix cannot key is decoded in full; one that does not
    decode to an object with a hashable "key" is skipped and counted. The
    cut-off JSON matches the prefix; it is grouped, and replay skips it."""
    p = tmp_path / "records.log"
    p.write_bytes(frame(payload) + frame(entry("b")))
    groups, skipped = load_entries(str(p))
    if payload.startswith(b'{"key":"a"'):
        assert (groups, skipped) == ({"a": [payload], "b": [entry("b")]}, 0)
    else:
        assert (groups, skipped) == ({"b": [entry("b")]}, 1)


def test_frames_off_the_canonical_prefix_are_decoded_for_their_key(tmp_path):
    p = tmp_path / "records.log"
    padded = b'{ "key": "a", "op": "put" }'
    escaped = canon({"key": "caf\u00e9|x", "op": "put"})  # json.dumps escapes the e-acute
    quoted = canon({"key": 'say "hi"', "op": "put"})
    p.write_bytes(b"".join(frame(x) for x in (padded, escaped, quoted, entry("a"))))
    groups, skipped = load_entries(str(p))
    assert groups == {"a": [padded, entry("a")], "caf\u00e9|x": [escaped],
                      'say "hi"': [quoted]}
    assert skipped == 0


def test_key_moves_to_the_end_at_its_first_put_after_a_delete(tmp_path):
    p = tmp_path / "records.log"
    frames = [entry("a"), entry("b"), entry("a", "delete"), entry("c"), entry("a"),
              entry("b"), entry("b", "delete"), entry("b", "delete")]
    p.write_bytes(b"".join(frame(x) for x in frames))
    groups, _ = load_entries(str(p))
    assert list(groups) == ["b", "c", "a"]
    assert groups["a"] == [entry("a"), entry("a", "delete"), entry("a")]


def test_append_after_close_raises(tmp_path):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    log.append({"key": "x", "op": "put", "n": 1})
    log.close()
    with pytest.raises(StorageIoError, match="closed"):
        log.append({"key": "x", "op": "put", "n": 2})
    groups, _ = load_entries(path)
    assert groups == {"x": [entry("x", n=1)]}


@pytest.mark.parametrize("stored,short", [(5, False), (20, False), (20, True)],
                         ids=["header-part-then-enospc", "payload-part-then-enospc",
                              "short-write"])
def test_a_failed_write_is_cut_off_the_file(tmp_path, stored, short):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    log.append({"key": "a", "op": "put", "n": 1})
    log._fh = FailingWrite(log._fh, stored, short)
    with pytest.raises(StorageIoError, match="append"):
        log.append({"key": "b", "op": "put", "n": 2, "pad": "x" * 40})
    log.append({"key": "a", "op": "put", "n": 3})
    log.close()
    assert load_entries(path) == ({"a": [entry("a", n=1), entry("a", n=3)]}, 0)


def test_a_failed_cut_closes_the_log(tmp_path, monkeypatch):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    log.append({"key": "a", "op": "put"})
    log._fh = FailingWrite(log._fh, 5)

    def no_truncate(fd, size):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "ftruncate", no_truncate)
    with pytest.raises(StorageIoError):
        log.append({"key": "b", "op": "put"})
    assert log.closed
    with pytest.raises(StorageIoError, match="closed"):
        log.append({"key": "c", "op": "put"})


def test_one_writer_per_log(tmp_path):
    path = str(tmp_path / "records.log")
    log = RecordLog(path)
    with pytest.raises(StorageIoError, match=re.escape(f"state directory {tmp_path} is in use")):
        RecordLog(path)
    log.close()
    RecordLog(path).close()  # close released the lock
