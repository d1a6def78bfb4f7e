"""Archive format: round trips, determinism, corruption rejection, bounded reads."""

import dataclasses
import hashlib
import io
import os
import random
import struct
import tracemalloc
from pathlib import Path

import pytest

import udigate.udi
from helpers import payload_tree, random_stack, read_udi, reference_blob, tiny_tree
from udigate.errors import StorageIoError, UdiCorrupt
from udigate.filetree import FileTree, flatten, tree_to_blob
from udigate.udi import (
    _COUNT_LIMIT,
    _META_LIMIT,
    _WINDOW,
    MAGIC,
    MIN_SIZE,
    TRAILER_LEN,
    check_udi,
    scan_udi,
    verify_udi,
    write_udi,
)


def _write(tree, path, ref="local/test:v1", created=100.0, mods=("inject_file:/etc/x",)):
    return write_udi(tree, str(path), source_ref=ref, created_at=created, site_mods=mods)


def _rejected(source) -> str:
    """The reason verify_udi rejects source with."""
    with pytest.raises(UdiCorrupt) as exc_info:
        verify_udi(source)
    return exc_info.value.reason


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
    assert scan_udi(desc.path).site_mods == desc.site_mods


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
    assert verify_udi(desc.path) == desc


def test_roundtrip_random_trees(tmp_path):
    rng = random.Random(314)
    for i in range(40):
        tree = flatten(random_stack(rng))
        desc = _write(tree, tmp_path / f"t{i}.udi")
        back, _ = read_udi(desc.path)
        assert back == tree


def test_file_table_is_the_layer_blob(tmp_path):
    # the bytes between the metadata and the trailer are the tree's layer
    # blob, as the package encodes it and as the format description packs it
    rng = random.Random(314)
    for i in range(40):
        tree = flatten(random_stack(rng))
        desc = _write(tree, tmp_path / f"t{i}.udi")
        data = Path(desc.path).read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 6)
        table = data[10 + meta_len:-TRAILER_LEN]
        assert table == tree_to_blob(tree) == reference_blob(tree)


def test_verify_ok_and_scan_agree(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    assert verify_udi(desc.path) == verify_udi(desc.path) == desc
    assert scan_udi(desc.path) == desc


def test_verify_missing_file():
    assert _rejected("/nonexistent/nope.udi") == "io"


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
    assert _rejected(mangle(data)) == reason


def test_every_single_byte_flip_detected(tmp_path):
    desc = _write(tiny_tree(), tmp_path / "a.udi")
    data = bytearray(Path(desc.path).read_bytes())
    for pos in range(len(data)):
        orig = data[pos]
        data[pos] = orig ^ 0x41
        with pytest.raises(UdiCorrupt):
            verify_udi(bytes(data))
        data[pos] = orig


def test_verify_on_disk_corruption(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    data = bytearray(Path(desc.path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    with open(desc.path, "wb") as fh:
        fh.write(bytes(data))
    assert _rejected(desc.path) in ("checksum", "truncated", "metadata", "magic", "version")


def test_magic_constant():
    assert MAGIC == b"UDI1"


def test_limits():
    assert _META_LIMIT == 16 * 1024 * 1024
    assert _COUNT_LIMIT == 10_000_000


def _write_peak(tmp_path, mib: int) -> int:
    """The tracemalloc peak of writing mib MiB of 4 KiB files, in bytes."""
    rng = random.Random(mib)
    tree = FileTree()
    for i in range(mib * 256):
        tree.add_file(f"/d{i // 64:03}/f{i:05}", rng.randbytes(4096))
    tracemalloc.start()
    try:
        desc = _write(tree, tmp_path / f"{mib}.udi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert desc.size_bytes > mib * 2 ** 20
    return peak


def test_write_udi_memory_does_not_grow_with_content(tmp_path):
    # the writer joins a few records per chunk and copies no more than that
    assert _write_peak(tmp_path, 8) - _write_peak(tmp_path, 1) < 64 * 1024


def test_write_udi_metadata_limit_is_inclusive(tmp_path):
    # the metadata block is canonical JSON; source_ref pads it to the limit
    overhead = len(udigate.udi._metadata_bytes(0.0, "", ()))
    at_limit = "r" * (_META_LIMIT - overhead)
    desc = write_udi(FileTree(), str(tmp_path / "a.udi"), at_limit, 0.0)
    assert desc.size_bytes == 10 + _META_LIMIT + 4 + TRAILER_LEN
    with pytest.raises(StorageIoError, match="too large"):
        write_udi(FileTree(), str(tmp_path / "b.udi"), at_limit + "r", 0.0)
    assert not (tmp_path / "b.udi").exists()


def _header(meta_len: int, rest: bytes = b"") -> bytes:
    """Magic, version and meta_len, then rest and a zero trailer: the
    parser refuses the header before it reaches the trailer."""
    return struct.pack("<4sHI", MAGIC, 1, meta_len) + rest + bytes(TRAILER_LEN)


def _refusal(source) -> str:
    """The whole message verify_udi rejects source with: the reason and
    what failed."""
    with pytest.raises(UdiCorrupt) as exc_info:
        verify_udi(source)
    return str(exc_info.value)


def test_metadata_length_limit_is_inclusive():
    assert _refusal(_header(_META_LIMIT + 1, bytes(4))) == "truncated: metadata length exceeds limit"
    assert _refusal(_header(_META_LIMIT, bytes(4))) == "truncated: metadata"


def test_entry_count_limit_is_inclusive():
    meta = b"{}"
    over = _header(len(meta), meta + struct.pack("<I", _COUNT_LIMIT + 1))
    at = _header(len(meta), meta + struct.pack("<I", _COUNT_LIMIT))
    assert _refusal(over) == "truncated: entry count exceeds limit"
    assert _refusal(at) == "truncated: entry 0 path_len"


def test_verify_udi_path_and_bytes_agree(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    assert verify_udi(desc.path) == desc
    assert verify_udi(Path(desc.path).read_bytes()) == dataclasses.replace(desc, path="")


_STRADDLE = b"/b/straddle"
_HEADER = 2 + len(_STRADDLE) + 11  # u16 path length, path, kind, mode, length
_BIG = bytes(range(256)) * (2 * _WINDOW // 256) + b"xyz"


def _straddling_archive(tmp_path):
    """An archive past one window whose second entry header starts 5 bytes
    before the window boundary, followed by content longer than a window.
    The header's offset follows from the metadata length: the table starts
    right after the metadata, with a u32 count and the first entry."""
    def write(first_size):
        tree = FileTree()
        tree.add_file("/a", b"a" * first_size)
        tree.add_file(_STRADDLE.decode(), b"bbbbbbb", mode=0o600)
        tree.add_file("/c", _BIG)
        tree.add_symlink("/d", "/c")
        return write_udi(tree, str(tmp_path / "big.udi"), "r:t", 1.0)
    with open(write(0).path, "rb") as fh:
        (meta_len,) = struct.unpack_from("<I", fh.read(10), 6)
    header_at = _WINDOW - 5
    desc = write(header_at - (10 + meta_len + 4 + 2 + len("/a") + 11))
    return desc, header_at


def test_window_straddling_header_verifies_and_flips_are_caught(tmp_path):
    desc, header_at = _straddling_archive(tmp_path)
    assert desc.size_bytes > 2 * _WINDOW
    assert verify_udi(desc.path) == desc
    data = Path(desc.path).read_bytes()
    assert data[header_at:header_at + 2 + len(_STRADDLE)] == struct.pack("<H", len(_STRADDLE)) + _STRADDLE
    assert verify_udi(data) == dataclasses.replace(desc, path="")
    assert scan_udi(desc.path) == desc
    tree, _ = read_udi(desc.path)
    big_at = header_at + _HEADER + 7 + 2 + len("/c") + 11
    assert tree.get("/c").content == data[big_at:big_at + len(_BIG)] == _BIG
    assert tree.get("/d").target == "/c"
    for pos in range(header_at, header_at + _HEADER):
        flipped = bytearray(data)
        flipped[pos] ^= 0x41
        with open(desc.path, "wb") as fh:
            fh.write(flipped)
        with pytest.raises(UdiCorrupt):
            verify_udi(desc.path)


def test_truncated_large_archive_is_rejected(tmp_path):
    desc, _ = _straddling_archive(tmp_path)
    data = Path(desc.path).read_bytes()
    for cut in (_WINDOW + 1, len(data) - 1):
        with open(desc.path, "wb") as fh:
            fh.write(data[:cut])
        assert _rejected(desc.path) == "truncated"


def test_short_files_are_truncated(tmp_path):
    empty = tmp_path / "empty.udi"
    empty.write_bytes(b"")
    short = tmp_path / "short.udi"
    short.write_bytes(MAGIC + bytes(MIN_SIZE - len(MAGIC) - 1))
    for path in (empty, short):
        assert _rejected(str(path)) == "truncated"
    assert _rejected(b"") == "truncated"


# -- the mount-time check ---------------------------------------------------------


def test_check_udi_accepts_only_the_expected_digest(tmp_path):
    desc = _write(payload_tree(), tmp_path / "a.udi")
    check_udi(desc.path, desc.digest)
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
        check_udi(desc.path, desc.digest)
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
    for read in (lambda p: check_udi(p, desc.digest), verify_udi):
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
        check_udi(desc.path, desc.digest)
        assert verify_udi(desc.path) == desc
        assert max(reads) == 7 and sum(reads) == 2 * desc.size_bytes


def test_unreadable_file_is_io_for_every_reader(tmp_path):
    missing = str(tmp_path / "missing.udi")
    for read in (verify_udi, scan_udi, lambda p: check_udi(p, "0" * 64)):
        with pytest.raises(UdiCorrupt) as exc_info:
            read(missing)
        assert exc_info.value.reason == "io"


def test_check_udi_refuses_resized_large_archive(tmp_path):
    desc, _ = _straddling_archive(tmp_path)
    data = Path(desc.path).read_bytes()
    check_udi(desc.path, desc.digest)
    for changed in (data[:_WINDOW + 1], data[:-1], data + b"\x00", data + data[-TRAILER_LEN:]):
        with open(desc.path, "wb") as fh:
            fh.write(changed)
        with pytest.raises(UdiCorrupt):
            check_udi(desc.path, desc.digest)
