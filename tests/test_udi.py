"""Archive format: round trips, determinism, corruption rejection, streaming."""

import dataclasses
import hashlib
import io
import os
import random
import struct
from pathlib import Path

import pytest

import udigate.udi
from helpers import payload_tree, random_stack, tiny_tree
from udigate.errors import StorageIoError, UdiCorrupt
from udigate.filetree import FileTree, flatten
from udigate.udi import (
    _WINDOW,
    MAGIC,
    MIN_SIZE,
    TRAILER_LEN,
    UdiCheck,
    check_udi,
    open_udi,
    read_udi,
    scan_udi,
    verify_udi,
    write_udi,
    write_udi_stream,
)


def _write(tree, path, ref="local/test:v1", created=100.0, mods=("inject_file:/etc/x",)):
    return write_udi(tree, str(path), source_ref=ref, created_at=created, site_mods=mods)


def test_roundtrip_small(tmp_path):
    t = payload_tree()
    desc = _write(t, tmp_path / "a.udi")
    back, rdesc = read_udi(desc.path)
    assert back == t
    assert rdesc == desc


def test_descriptor_fields(tmp_path):
    desc = _write(tiny_tree(), tmp_path / "a.udi", ref="r/n:t", created=42.5,
                  mods=("m1", "m2"))
    assert desc.source_ref == "r/n:t"
    assert desc.created_at == 42.5
    assert desc.site_mods == ("m1", "m2")
    assert desc.size_bytes == os.path.getsize(desc.path)
    with open(desc.path, "rb") as fh:
        data = fh.read()
    assert desc.digest == data[-TRAILER_LEN:].hex()
    assert bytes.fromhex(desc.digest) == hashlib.sha256(data[:-TRAILER_LEN]).digest()


def test_site_mods_from_a_generator(tmp_path):
    desc = write_udi(tiny_tree(), str(tmp_path / "a.udi"), "r/n:t", 0.0,
                     site_mods=(m for m in ["inject_file:/etc/x"]))
    assert desc.site_mods == ("inject_file:/etc/x",)
    assert scan_udi(desc.path)[0].site_mods == desc.site_mods


def test_identical_inputs_identical_bytes(tmp_path):
    d1 = _write(tiny_tree(), tmp_path / "a.udi")
    d2 = _write(tiny_tree(), tmp_path / "b.udi")
    assert d1.digest == d2.digest
    assert Path(d1.path).read_bytes() == Path(d2.path).read_bytes()


def test_metadata_changes_digest(tmp_path):
    d1 = _write(tiny_tree(), tmp_path / "a.udi", created=1.0)
    d2 = _write(tiny_tree(), tmp_path / "b.udi", created=2.0)
    assert d1.digest != d2.digest


def test_empty_tree_roundtrip(tmp_path):
    desc = _write(FileTree(), tmp_path / "empty.udi")
    back, _ = read_udi(desc.path)
    assert len(back) == 0
    assert verify_udi(desc.path).ok


def test_roundtrip_random_trees(tmp_path):
    rng = random.Random(314)
    for i in range(40):
        tree = flatten(random_stack(rng))
        desc = _write(tree, tmp_path / f"t{i}.udi")
        back, _ = read_udi(desc.path)
        assert back == tree


def test_verify_ok_and_scan_agree(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    assert verify_udi(desc.path) == verify_udi(desc.path)
    assert verify_udi(desc.path).ok
    sdesc, infos = scan_udi(desc.path)
    assert sdesc == desc
    assert [i.path for i in infos] == payload_tree().paths()
    by_path = {i.path: i for i in infos}
    assert by_path["/srv"].kind == "dir"
    assert by_path["/srv/current"].kind == "symlink"
    assert by_path["/srv/data.bin"].size == len(payload_tree().get("/srv/data.bin").content)


def test_verify_missing_file():
    check = verify_udi("/nonexistent/nope.udi")
    assert not check.ok
    assert check.reason == "io"


@pytest.mark.parametrize("mangle,reason", [
    (lambda d: b"XDI1" + d[4:], "magic"),
    (lambda d: d[:4] + struct.pack("<H", 9) + d[6:], "version"),
    (lambda d: d[:-1], "truncated"),          # last content byte now past body end
    (lambda d: d[:10], "truncated"),
    (lambda d: d + b"\x00", "truncated"),     # trailing junk reads as undeclared bytes
    (lambda d: d[:-TRAILER_LEN] + bytes(TRAILER_LEN), "checksum"),
], ids=["magic", "version", "shortened", "torn-header", "appended", "zeroed-trailer"])
def test_verify_rejects_structural_damage(tmp_path, mangle, reason):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    data = Path(desc.path).read_bytes()
    check = verify_udi(mangle(data))
    assert not check.ok
    assert check.reason == reason


def test_every_single_byte_flip_detected(tmp_path):
    desc = _write(tiny_tree(), tmp_path / "a.udi")
    data = bytearray(Path(desc.path).read_bytes())
    for pos in range(len(data)):
        orig = data[pos]
        data[pos] = orig ^ 0x41
        assert not verify_udi(bytes(data)).ok, f"flip at {pos} not caught"
        data[pos] = orig


def test_verify_on_disk_corruption(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    data = bytearray(Path(desc.path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    with open(desc.path, "wb") as fh:
        fh.write(bytes(data))
    check = verify_udi(desc.path)
    assert not check.ok
    assert check.reason in ("checksum", "truncated", "metadata", "magic", "version")


def test_read_udi_refuses_corrupt(tmp_path):
    desc = _write(tiny_tree(), tmp_path / "a.udi")
    with open(desc.path, "r+b") as fh:
        fh.seek(0)
        fh.write(b"Z")
    with pytest.raises(UdiCorrupt):
        read_udi(desc.path)


def test_writer_rejects_short_content(tmp_path):
    # chunks total less than the declared length
    bad = [("/f", "file", 0o644, 10, (b"abc",))]
    with pytest.raises(StorageIoError, match="declared 10 bytes"):
        write_udi_stream(str(tmp_path / "bad.udi"), 0.0, "r:t", (), 1, bad)


@pytest.mark.parametrize("declared", [1, 3], ids=["more-than-declared", "fewer-than-declared"])
def test_writer_rejects_wrong_entry_count(tmp_path, declared):
    def entries():
        yield "/a", "file", 0o644, 1, (b"a",)
        yield "/b", "file", 0o644, 1, (b"b",)
    with pytest.raises(StorageIoError, match="entries"):
        write_udi_stream(str(tmp_path / "bad.udi"), 0.0, "r:t", (), declared, entries())


def test_streaming_writer_chunked_content(tmp_path):
    body = bytes(range(256)) * 64
    chunks = [body[i:i + 100] for i in range(0, len(body), 100)]
    desc = write_udi_stream(str(tmp_path / "s.udi"), 5.0, "r:t", (), 1,
                            [("/big", "file", 0o600, len(body), chunks)])
    tree, _ = read_udi(desc.path)
    assert tree.get("/big").content == body
    assert verify_udi(desc.path).ok


def test_magic_constant():
    assert MAGIC == b"UDI1"


def test_open_udi_path_and_bytes_agree(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    pdesc, pentries = open_udi(desc.path)
    bdesc, bentries = open_udi(Path(desc.path).read_bytes())
    assert pdesc == desc
    assert bdesc == dataclasses.replace(desc, path="")
    assert bentries == pentries
    assert verify_udi(desc.path) == UdiCheck(True, digest=desc.digest)


def _straddling_archive(tmp_path):
    """An archive past one window whose second entry header starts 5 bytes
    before the window boundary, followed by content longer than a window."""
    def write(first_size):
        entries = [
            ("/a", "file", 0o644, first_size, (b"a" * first_size,)),
            ("/b/straddle", "file", 0o600, 7, (b"bbbbbbb",)),
            ("/c", "file", 0o644, 2 * _WINDOW + 3, (bytes(range(256)) * (2 * _WINDOW // 256), b"xyz")),
            ("/d", "symlink", 0o777, 2, (b"/c",)),
        ]
        return write_udi_stream(str(tmp_path / "big.udi"), 1.0, "r:t", (), len(entries),
                                entries)
    _, entries = open_udi(write(1).path)
    header_at = _WINDOW - 5
    desc = write(header_at - entries[0].content_offset)
    return desc, header_at


def test_window_straddling_header_verifies_and_flips_are_caught(tmp_path):
    desc, header_at = _straddling_archive(tmp_path)
    assert desc.size_bytes > 2 * _WINDOW
    check = verify_udi(desc.path)
    assert check.ok, check
    assert check.digest == desc.digest
    data = Path(desc.path).read_bytes()
    fdesc, fentries = open_udi(desc.path)
    bdesc, bentries = open_udi(data)
    assert fentries == bentries
    assert fentries[1].path == "/b/straddle"
    assert fentries[1].content_offset - (2 + len("/b/straddle") + 11) == header_at
    sdesc, sentries = scan_udi(desc.path)
    assert (sdesc, sentries) == (fdesc, fentries)
    tree, _ = read_udi(desc.path)
    assert tree.get("/c").content == data[fentries[2].content_offset:][:2 * _WINDOW + 3]
    assert tree.get("/d").target == "/c"
    for pos in range(header_at, fentries[1].content_offset):
        flipped = bytearray(data)
        flipped[pos] ^= 0x41
        with open(desc.path, "wb") as fh:
            fh.write(flipped)
        assert not verify_udi(desc.path).ok, f"flip at {pos} not caught"


def test_truncated_large_archive_is_rejected(tmp_path):
    desc, _ = _straddling_archive(tmp_path)
    data = Path(desc.path).read_bytes()
    for cut in (_WINDOW + 1, len(data) - 1):
        with open(desc.path, "wb") as fh:
            fh.write(data[:cut])
        check = verify_udi(desc.path)
        assert (check.ok, check.reason) == (False, "truncated")


def test_short_files_are_truncated_not_raised(tmp_path):
    empty = tmp_path / "empty.udi"
    empty.write_bytes(b"")
    short = tmp_path / "short.udi"
    short.write_bytes(MAGIC + bytes(MIN_SIZE - len(MAGIC) - 1))
    for path in (empty, short):
        check = verify_udi(str(path))
        assert (check.ok, check.reason) == (False, "truncated")
    assert verify_udi(b"").reason == "truncated"


# -- the mount-time check ---------------------------------------------------------


def test_check_udi_accepts_only_the_expected_digest(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    assert check_udi(desc.path, desc.digest) == UdiCheck(True, digest=desc.digest)
    with pytest.raises(UdiCorrupt) as exc_info:
        check_udi(desc.path, "0" * 64)
    assert exc_info.value.reason == "descriptor mismatch"
    # a valid archive of another image in its place hashes to its own trailer
    other = _write(payload_tree(b"other"), tmp_path / "b.udi")
    os.replace(other.path, desc.path)
    with pytest.raises(UdiCorrupt) as exc_info:
        check_udi(desc.path, desc.digest)
    assert exc_info.value.reason == "descriptor mismatch"


def test_check_udi_io_and_short_files(tmp_path):
    with pytest.raises(UdiCorrupt) as exc_info:
        check_udi(str(tmp_path / "missing.udi"), "0" * 64)
    assert exc_info.value.reason == "io"
    short = tmp_path / "short.udi"
    short.write_bytes(MAGIC + bytes(MIN_SIZE - len(MAGIC) - 1))
    with pytest.raises(UdiCorrupt) as exc_info:
        check_udi(str(short), "0" * 64)
    assert exc_info.value.reason == "truncated"


def _reads(monkeypatch):
    """(bytes asked for, bytes read) of every read the reader makes from
    here on."""
    reads = []

    class Counting(io.FileIO):
        def read(self, n=-1):
            data = super().read(n)
            reads.append((n, len(data)))
            return data

    # open's arguments pass through; the file is unbuffered either way
    monkeypatch.setattr(udigate.udi, "open",
                        lambda file, mode="r", *args, **kwargs: Counting(file, mode),
                        raising=False)
    return reads


def test_check_udi_hashes_every_byte_in_bounded_reads(tmp_path, monkeypatch):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    data = Path(desc.path).read_bytes()
    n = len(data)
    reads = _reads(monkeypatch)
    for window in (1, 31, 32, 33, 64, n - 33, n - 32, n - 31, n, n + 1):
        monkeypatch.setattr(udigate.udi, "_WINDOW", window)
        reads.clear()
        assert check_udi(desc.path, desc.digest).ok
        sizes = [got for _, got in reads]
        assert sum(sizes) == n and max(sizes) <= max(window, TRAILER_LEN)
        for pos in range(n):
            flipped = bytearray(data)
            flipped[pos] ^= 0x10
            with open(desc.path, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(UdiCorrupt) as exc_info:
                check_udi(desc.path, desc.digest)
            assert exc_info.value.reason == "checksum", (window, pos)
        with open(desc.path, "wb") as fh:
            fh.write(data)


def test_small_archive_is_one_read_of_its_size(tmp_path, monkeypatch):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    reads = _reads(monkeypatch)
    for read in (lambda p: check_udi(p, desc.digest), verify_udi, open_udi):
        reads.clear()
        read(desc.path)
        assert reads == [(desc.size_bytes, desc.size_bytes)]


def test_short_reads_are_read_again_on_both_paths(tmp_path, monkeypatch):
    """An unbuffered read may return fewer bytes than asked for. Every
    reader reads on, on the single-read and the windowed path, and reports
    neither a truncation nor a different digest."""
    reads = []

    class Short(io.FileIO):
        def read(self, n=-1):
            data = super().read(min(n, 7) if n >= 0 else n)
            reads.append(len(data))
            return data

    monkeypatch.setattr(udigate.udi, "open",
                        lambda file, mode="r", *args, **kwargs: Short(file, mode),
                        raising=False)
    desc = _write(payload_tree(), tmp_path / "a.udi")
    for window in (_WINDOW, 64):  # one read of the file's size, then 64-byte windows
        monkeypatch.setattr(udigate.udi, "_WINDOW", window)
        reads.clear()
        assert check_udi(desc.path, desc.digest).ok
        assert verify_udi(desc.path).digest == desc.digest
        assert open_udi(desc.path)[0].digest == desc.digest
        assert max(reads) == 7 and sum(reads) == 3 * desc.size_bytes


def test_unreadable_file_is_io_for_every_reader(tmp_path):
    missing = str(tmp_path / "missing.udi")
    assert verify_udi(missing).reason == "io"
    for read in (open_udi, scan_udi, read_udi, lambda p: check_udi(p, "0" * 64)):
        with pytest.raises(UdiCorrupt) as exc_info:
            read(missing)
        assert exc_info.value.reason == "io"


def test_check_udi_refuses_resized_large_archive(tmp_path):
    desc, _ = _straddling_archive(tmp_path)
    data = Path(desc.path).read_bytes()
    assert check_udi(desc.path, desc.digest).ok
    for changed in (data[:_WINDOW + 1], data[:-1], data + b"\x00", data + data[-TRAILER_LEN:]):
        with open(desc.path, "wb") as fh:
            fh.write(changed)
        with pytest.raises(UdiCorrupt):
            check_udi(desc.path, desc.digest)
