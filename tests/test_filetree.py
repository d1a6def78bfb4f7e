"""Tree algebra: layering, whiteouts, site mods, and the flatten oracle.

The flatten property test replays random layer stacks with real syscalls
on a staging directory (tests/helpers.py) and demands byte-for-byte
agreement with the pure-tree implementation.
"""

import hashlib
import posixpath
import random
import tracemalloc

import pytest

from helpers import (EDGE_NAME_POOL, entry_record, layer_blob, materialize_stack, payload_tree,
                     random_stack, read_back_tree, reference_blob, tiny_tree, tree_paths,
                     validate_tree)
from udigate import filetree
from udigate.errors import EmptyLayerList, MalformedLayer, ModConflict
from udigate.filetree import (
    DEFAULT_DIR_MODE,
    MAX_PATH_LEN,
    OPAQUE_WHITEOUT,
    WHITEOUT_PREFIX,
    FileTree,
    SiteConfig,
    SiteMod,
    TreeEntry,
    apply_site_mods,
    blob_digest,
    default_site_config,
    flatten,
    normalize_path,
    tree_from_blob,
    tree_to_blob,
)


def test_add_and_get():
    t = tiny_tree()
    assert "/bin/sh" in t
    assert t.get("/bin/sh").content == b"#!/bin/sh\n"
    assert t.get("/bin").kind == "dir"
    assert t.get("/missing") is None


def test_paths_sorted():
    t = FileTree()
    t.add_file("/z", b"")
    t.add_file("/a", b"")
    t.add_dir("/m")
    assert tree_paths(t) == ["/a", "/m", "/z"]


def test_normalize_rejects_relative_and_dotdot():
    t = FileTree()
    for bad in ("relative", "/a/../b", "/a/./b", "//", "/a//b", ""):
        with pytest.raises(MalformedLayer):
            t.add_file(bad, b"")


def _old_normalize_path(path):
    """normalize_path as it was when it rebuilt the string: the reference
    for the accept and reject set."""
    if not isinstance(path, str) or not path:
        raise MalformedLayer("empty path")
    if not path.startswith("/"):
        raise MalformedLayer(f"path not absolute: {path!r}")
    parts = path.split("/")
    for seg in parts[1:]:
        if seg in ("", ".", ".."):
            raise MalformedLayer(f"bad path segment in {path!r}")
    norm = "/" + "/".join(parts[1:])
    if len(norm.encode("utf-8")) > MAX_PATH_LEN:
        raise MalformedLayer(f"path too long: {norm[:80]!r}...")
    return norm


def _file_blob(path):
    # surrogatepass: a lone surrogate reaches the blob as the bytes that
    # encode it, which are not UTF-8
    return layer_blob(entry_record(path.encode("utf-8", "surrogatepass"), 0, 0o644))


def _assert_normalizes_like_old(path):
    try:
        want = _old_normalize_path(path)
    except (MalformedLayer, UnicodeEncodeError):
        # the old check let a lone surrogate escape as UnicodeEncodeError
        want = None
    if want is not None:
        assert normalize_path(path) == want
        assert tree_paths(tree_from_blob(_file_blob(path))) == [want]
        return
    with pytest.raises(MalformedLayer):
        normalize_path(path)
    if isinstance(path, str):  # a blob's paths are bytes, so only a str has one
        with pytest.raises(MalformedLayer):
            tree_from_blob(_file_blob(path))


# multi-byte paths at the byte limit, whatever their length in characters
_LONG_PATHS = [
    "/" + "\u00e9" * 2047 + "a",             # 4096 bytes in 2049 characters
    "/" + "\u00e9" * 2048,                   # 4097 bytes
    "/" + "\u65e5" * 1365,                   # 4096 bytes in 1366 characters
    "/" + "\u65e5" * 1365 + "a",             # 4097 bytes
    "/" + "/".join(["\U0001F600" * 3] * 315) + "a",   # 4096 bytes, 315 segments
    "/" + "/".join(["\U0001F600" * 3] * 315) + "ab",  # 4097 bytes
    "/" + "a" * 4095,
    "/" + "a" * 4096,
]


@pytest.mark.parametrize("path", [
    "/", "//a", "/a/", "/a/./b", "/a/../b", "a/b", "", "/a", "/a/b", "/.a", "/..a",
    "/a/...", "/.wh..wh..opq", "/\u00e9/\U0001F600", "/a\ud800", None, 5, b"/a", ["/a"],
], ids=repr)
def test_normalize_path_matches_old_implementation(path):
    _assert_normalizes_like_old(path)


def test_normalize_path_at_the_byte_limit():
    for path in _LONG_PATHS:
        size = len(path.encode("utf-8"))
        assert size in (MAX_PATH_LEN, MAX_PATH_LEN + 1)
        _assert_normalizes_like_old(path)
        if size == MAX_PATH_LEN:
            assert normalize_path(path) == path
        else:
            with pytest.raises(MalformedLayer, match="too long"):
                normalize_path(path)


def test_normalize_path_matches_old_on_random_paths():
    rng = random.Random(41)
    tokens = ["/", "/", "/", "a", "b", ".", "..", ".wh.", " ", "\u00e9", "\u65e5",
              "\U0001F600", "\ud800"]
    for _ in range(3000):
        path = "".join(rng.choice(tokens) for _ in range(rng.randrange(0, 10)))
        if rng.random() < 0.05:
            path += "/" + rng.choice(("a", "\u00e9", "\u65e5")) * rng.randrange(1000, 4200)
        _assert_normalizes_like_old(path)


def test_symlink_mode_forced():
    t = FileTree()
    t.add_symlink("/l", "target")
    assert t.get("/l").mode == 0o777


def test_remove_subtree_counts():
    t = FileTree()
    t.add_dir("/a")
    t.add_file("/a/x", b"")
    t.add_file("/a/y", b"")
    # siblings with a common prefix must survive, including those that sort
    # between /a and /a/x ("-", ".", " " come before "/", "0" right after)
    for sibling in ("/ab", "/a-b", "/a.c", "/a 1", "/a0"):
        t.add_file(sibling, b"")
    assert t.remove_subtree("/a") == 3
    assert tree_paths(t) == ["/a 1", "/a-b", "/a.c", "/a0", "/ab"]


def test_validate_catches_file_ancestor():
    t = FileTree()
    t.add_file("/a", b"")
    t._entries["/a/b"] = filetree._record("/a/b", t.get("/a"))  # bypass add checks
    with pytest.raises(MalformedLayer):
        validate_tree(t)


def test_blob_roundtrip_and_digest_stability():
    t = tiny_tree()
    blob = tree_to_blob(t)
    back = tree_from_blob(blob)
    assert back == t
    assert tree_to_blob(back) == blob
    assert t.digest() == blob_digest(blob)


def test_blob_encoder_matches_struct_reference():
    names = ["a", "Z", "é", "日本", "\U0001F600", 'q"uote', "back\\slash", "tab\t", "\u007f",
             "\uffff", "\U0010ffff", "a b"]
    targets = ['../x"y', "c:\\dir\\", "ünï\\\"", "\U0001F4A9/\n"]
    rng = random.Random(7)
    assert tree_to_blob(FileTree()) == reference_blob(FileTree()) == b"\0\0\0\0"
    for _ in range(200):
        t = FileTree()
        for _ in range(rng.randrange(1, 12)):
            path = "/" + "/".join(rng.choice(names) for _ in range(rng.randrange(1, 4)))
            kind = rng.choice(("file", "dir", "symlink"))
            if kind == "file":
                t.add_file(path, rng.randbytes(rng.randrange(0, 40)),
                           mode=rng.choice((0o644, 0o600, 0o755, 0, 0o7777)))
            elif kind == "dir":
                t.add_dir(path, mode=rng.choice((0o755, 0o700, 0o1777)))
            else:
                t.add_symlink(path, rng.choice(targets))
        ref = reference_blob(t)
        assert tree_to_blob(t) == ref
        assert t.digest() == hashlib.sha256(ref).hexdigest()
        assert tree_from_blob(ref) == t


def test_tree_from_blob_rejects_garbage():
    with pytest.raises(MalformedLayer):
        tree_from_blob(b"not json")
    with pytest.raises(MalformedLayer):
        tree_from_blob(b"[1,2,3]")


@pytest.mark.parametrize("rec", [
    {"kind": "symlink", "mode": 0o777, "target": 5},
    {"kind": "symlink", "mode": 0o777, "target": ["x"]},
    {"kind": "symlink", "mode": 0o777, "target": "bad\ud800"},
    {"kind": "file", "mode": 0o644, "target": 0},
    {"kind": "file", "mode": 1.9},
    {"kind": "file", "mode": True},
    {"kind": "file", "mode": "420"},
    {"kind": "dir", "mode": None},
], ids=repr)
def test_both_gates_reject_mistyped_fields(rec):
    # a mistyped field must stop at the gate: past it, the tree digest and
    # the archive writer take a str target and an int mode on trust. A blob
    # holds integers and bytes, so the blob gate's half is the next test:
    # each field that decodes to a value of the right type but a bad one
    with pytest.raises(MalformedLayer):
        FileTree().set_entry("/x", TreeEntry(rec["kind"], rec["mode"], b"", rec.get("target", "")))


@pytest.mark.parametrize("records, message", [
    ([entry_record(b"/x", 0, 0o10000)], "mode not an integer in 0..0o7777"),
    ([entry_record(b"/x", 1, 0xFFFF)], "mode not an integer in 0..0o7777"),
    ([entry_record(b"/x", 1, 0o755, b"data")], "dir with content"),
    ([entry_record(b"/x", 2, 0o777)], "symlink without target"),
    ([entry_record(b"/x", 2, 0o777, b"bad\xed\xa0\x80")], "symlink target not valid UTF-8"),
    ([entry_record(b"/x", 2, 0o777, b"\xff")], "symlink target not valid UTF-8"),
    ([entry_record(b"/x", 3, 0o644)], "unknown kind 3"),
    ([entry_record(b"/\xc3", 0, 0o644)], "path not valid UTF-8"),
    ([entry_record(b"x", 0, 0o644)], "path not absolute"),
    ([entry_record(b"/a/../b", 0, 0o644)], "bad path segment"),
    ([entry_record(b"/b", 0, 0o644), entry_record(b"/a", 0, 0o644)], "out of order or repeated"),
    ([entry_record(b"/a", 0, 0o644), entry_record(b"/a", 0, 0o644)], "out of order or repeated"),
], ids=["file-mode", "dir-mode", "dir-content", "empty-target", "surrogate-target",
        "byte-target", "kind-code", "path-utf8", "relative", "dotdot", "order", "duplicate"])
def test_blob_gate_names_the_bad_field(records, message):
    with pytest.raises(MalformedLayer, match=message):
        tree_from_blob(layer_blob(*records))


def test_blob_gate_refuses_truncated_and_trailing_bytes():
    good = layer_blob(entry_record(b"/a", 0, 0o644, b"abc"))
    assert tree_from_blob(good).get("/a").content == b"abc"
    for cut, message in ((0, "header of entry 0"), (3, "header of entry 0"),
                         (5, "header of entry 0"), (len(good) - 4, "header of entry 0"),
                         (len(good) - 1, "content of entry 0")):
        with pytest.raises(MalformedLayer, match=message):
            tree_from_blob(good[:cut])
    with pytest.raises(MalformedLayer, match="header of entry 1"):
        tree_from_blob(b"\2" + good[1:])
    with pytest.raises(MalformedLayer, match="1 bytes after the last entry"):
        tree_from_blob(good + b"\0")
    with pytest.raises(MalformedLayer, match="bytes after the last entry"):
        tree_from_blob(layer_blob() + good)


def test_every_cut_and_byte_flip_decodes_or_is_malformed():
    # the gate's contract: MalformedLayer and no other exception, whatever
    # the bytes; a flip may still decode, to a tree the gate accepted
    layer = payload_tree()
    layer.add_dir("/\u65e5")
    layer.add_file("/\u65e5/\u00e9", b"\x00\xff", mode=0o7777)
    data = tree_to_blob(layer)
    assert tree_from_blob(data) == layer
    mutants = [data[:cut] for cut in range(len(data))]
    mutants += [data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
                for i in range(len(data)) for flip in (0x01, 0x80, 0xFF)]
    decoded = 0
    for blob in mutants:
        try:
            tree = tree_from_blob(blob)
        except MalformedLayer:
            continue
        decoded += 1
        for path, entry in tree.items():  # what decodes passed both checks
            assert normalize_path(path) == path
            FileTree().set_entry(path, entry)
    assert 0 < decoded < len(mutants)


# segments for the differential test of the blob gate: each kind of byte
# that normalize_path refuses or that the gate's joined-paths check reads
_GATE_SEGMENTS = ["a", "b", "\u00e9", "\U0001F600", "\0", "a\nb", "\n", "\n/", "x\n/y", "/",
                  ".", "..", "", "\ud800", ".a", "-", " "]
# 4095, 4096 and 4097 bytes, in one- and two-byte characters
_GATE_LONG = ["/" + "a" * 4094, "/" + "a" * 4095, "/" + "a" * 4096,
              "/" + "\u00e9" * 2047, "/" + "\u00e9" * 2047 + "a", "/" + "\u00e9" * 2048]


def _gate_path(rng):
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(_GATE_LONG)
    lead = "/" if roll < 0.9 else rng.choice(("", "a", "\n", "\n/", "."))
    return lead + "/".join(rng.choice(_GATE_SEGMENTS) for _ in range(rng.randrange(1, 4)))


def _gate_reference(paths):
    """What the gate must decode paths to: themselves, if each passes
    normalize_path and they strictly ascend; None otherwise."""
    try:
        for path in paths:
            normalize_path(path)
    except MalformedLayer:
        return None
    return paths if all(a < b for a, b in zip(paths, paths[1:])) else None


def test_blob_gate_accepts_exactly_what_normalize_path_accepts_in_order():
    rng = random.Random(24)
    accepted = rejected = with_newline = 0
    for _ in range(3000):
        paths = [_gate_path(rng) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.8:
            paths.sort()
        # surrogatepass: a lone surrogate reaches the blob as the bytes that
        # encode it, which are not UTF-8
        blob = layer_blob(*(entry_record(p.encode("utf-8", "surrogatepass"), 0, 0o644, b"x")
                            for p in paths))
        want = _gate_reference(paths)
        if want is None:
            rejected += 1
            with pytest.raises(MalformedLayer):
                tree_from_blob(blob)
            continue
        accepted += 1
        with_newline += any("\n" in p for p in paths)
        tree = tree_from_blob(blob)
        assert tree_paths(tree) == want
        assert tree_to_blob(tree) == blob
    assert accepted > 400 and rejected > 1000 and with_newline > 100


def test_blob_decode_keeps_content_in_the_blob():
    rng = random.Random(3)
    tree = FileTree()
    for i in range(2048):  # 8 MiB of 4 KiB files
        tree.add_file(f"/d{i // 64:02}/f{i:04}", rng.randbytes(4096))
    blob = tree_to_blob(tree)
    del tree
    tracemalloc.start()
    try:
        decoded = tree_from_blob(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20 / 4
    assert tree_to_blob(decoded) == blob


def test_flatten_empty_rejected():
    with pytest.raises(EmptyLayerList):
        flatten([])


def test_flatten_upper_wins():
    lower = FileTree()
    lower.add_file("/etc/conf", b"old")
    upper = FileTree()
    upper.add_file("/etc/conf", b"new")
    flat = flatten([lower, upper])
    assert flat.get("/etc/conf").content == b"new"


def test_flatten_whiteout_removes_lower():
    lower = FileTree()
    lower.add_dir("/data")
    lower.add_file("/data/keep", b"k")
    lower.add_file("/data/drop", b"d")
    upper = FileTree()
    upper.add_file("/data/.wh.drop", b"")
    flat = flatten([lower, upper])
    assert "/data/keep" in flat
    assert "/data/drop" not in flat
    assert "/data/.wh.drop" not in flat


@pytest.mark.parametrize("marker,expected", [
    ("/d/.wh..wh..opq", ["/d", "/d/new", "/top"]),
    ("/.wh..wh..opq", ["/d", "/d/new"]),  # a marker at / clears every lower entry
], ids=["dir", "root"])
def test_flatten_opaque_whiteout_hides_lower_contents(marker, expected):
    lower = FileTree()
    lower.add_file("/d/old", b"o")
    lower.add_file("/top", b"t")
    upper = FileTree()
    upper.add_dir("/d")
    upper.add_file(marker, b"")
    upper.add_file("/d/new", b"n")
    flat = flatten([lower, upper])
    assert tree_paths(flat) == expected


def test_flatten_whiteout_keeps_a_lower_entry_at_its_own_path(tmp_path):
    # a whiteout is not kept, and it does not remove what a lower layer has
    # at its own path: here a dir named like it, made as a parent
    lower, upper = FileTree(), FileTree()
    lower.add_file(f"/d/{WHITEOUT_PREFIX}x/f", b"f")
    lower.add_file("/d/x", b"x")
    upper.add_file(f"/d/{WHITEOUT_PREFIX}x")
    materialize_stack([lower, upper], str(tmp_path))
    flat = flatten([flatten([lower]), upper])
    assert flat == read_back_tree(str(tmp_path))
    assert tree_paths(flat) == ["/d", f"/d/{WHITEOUT_PREFIX}x", f"/d/{WHITEOUT_PREFIX}x/f"]


def test_flatten_whiteout_then_replace_same_layer():
    lower = FileTree()
    lower.add_dir("/d")
    lower.add_file("/d/x", b"old")
    upper = FileTree()
    upper.add_file("/d/.wh.x", b"")
    upper.add_file("/d/x", b"fresh")
    flat = flatten([lower, upper])
    assert flat.get("/d/x").content == b"fresh"


def test_flatten_dir_over_dir_keeps_children():
    lower = FileTree()
    lower.add_dir("/srv", mode=0o755)
    lower.add_file("/srv/app", b"bin")
    upper = FileTree()
    upper.add_dir("/srv", mode=0o700)
    flat = flatten([lower, upper])
    assert flat.get("/srv").mode == 0o700
    assert "/srv/app" in flat


def test_flatten_kind_change_removes_subtree():
    lower = FileTree()
    lower.add_dir("/opt")
    lower.add_file("/opt/tool", b"t")
    upper = FileTree()
    upper.add_file("/opt", b"now a file")
    flat = flatten([lower, upper])
    assert flat.get("/opt").kind == "file"
    assert "/opt/tool" not in flat


def test_flatten_creates_implied_parents():
    layer = FileTree()
    layer.add_file("/deep/ly/nested", b"x")
    flat = flatten([layer])
    assert flat.get("/deep").kind == "dir"
    assert flat.get("/deep").mode == 0o755
    assert flat.get("/deep/ly").kind == "dir"


def test_flatten_result_validates():
    rng = random.Random(7)
    for _ in range(50):
        flat = flatten(random_stack(rng))
        validate_tree(flat)


def _check_against_filesystem(rng, tmp_path, **stack_args):
    for i in range(25):
        layers = random_stack(rng, **stack_args)
        root = tmp_path / f"stage-{i}"
        root.mkdir()
        materialize_stack(layers, str(root))
        oracle = read_back_tree(str(root))
        assert tree_to_blob(flatten(layers)) == tree_to_blob(oracle)


@pytest.mark.parametrize("seed", range(8))
def test_flatten_matches_filesystem_oracle(seed, tmp_path):
    _check_against_filesystem(random.Random(1000 + seed), tmp_path)


@pytest.mark.parametrize("seed", range(8))
def test_flatten_matches_filesystem_oracle_with_names_before_dot(seed, tmp_path):
    # "-d", ".d" and " d" sort before "." and "/", so a whiteout or marker
    # can sort after an opaque marker below it and remove the dir it made
    _check_against_filesystem(random.Random(9000 + seed), tmp_path, names=EDGE_NAME_POOL)


@pytest.mark.parametrize("later", [f"/{WHITEOUT_PREFIX}-d", f"/{OPAQUE_WHITEOUT}"],
                         ids=["whiteout", "root-marker"])
def test_flatten_removal_after_a_marker_removes_its_dir(later, tmp_path):
    lower, upper = FileTree(), FileTree()
    lower.add_file("/-d/old")
    upper.add_file(f"/-d/{OPAQUE_WHITEOUT}")
    upper.add_file(later)
    assert tree_paths(upper)[-1] == later  # it sorts after the marker
    materialize_stack([lower, upper], str(tmp_path))
    assert read_back_tree(str(tmp_path)) == FileTree()
    assert flatten([lower, upper]) == FileTree()


def test_flatten_removal_after_a_marker_keeps_the_dirs_above():
    lower, upper = FileTree(), FileTree()
    lower.add_file("/p", b"a file, made a dir by the marker")
    upper.add_file(f"/p/-d/{OPAQUE_WHITEOUT}")
    upper.add_file(f"/p/{WHITEOUT_PREFIX}-d")
    flat = flatten([lower, upper])
    assert tree_paths(flat) == ["/p"]
    assert flat.get("/p").kind == "dir"


@pytest.mark.parametrize("victim", ["", ".", ".."], ids=["empty", "dot", "dotdot"])
def test_flatten_rejects_dot_whiteout_victims(victim):
    lower, upper = FileTree(), FileTree()
    lower.add_file("/d/x")
    upper.add_file(f"/d/{WHITEOUT_PREFIX}{victim}")
    with pytest.raises(MalformedLayer):
        flatten([lower, upper])


# -- the parent memo -----------------------------------------------------------------
#
# apply_layer makes an entry's parents dirs only when its parent differs from
# the previous entry's. These stacks change the kind of a remembered parent,
# or of one of its ancestors, within one layer.

_F, _D = TreeEntry("file", 0o644, b"f"), TreeEntry("dir", 0o700)
_L = TreeEntry("symlink", 0o777, b"", "t")
_MARK = TreeEntry("file", 0o644)

_MEMO_STACKS = {
    "file-over-dir-then-children": [
        {"/a": _D, "/a/x": _F, "/a/y": _F},
        {"/a": _F, "/a/x": _F, "/a/z": _F},
    ],
    "dir-over-file-then-children": [
        {"/a": _F, "/b": _F},
        {"/a": _D, "/a/z": _F, "/b/z": _F},
    ],
    "symlink-over-dir-then-children": [
        {"/a": _D, "/a/x": _F},
        {"/a": _L, "/a/z": _F, "/a/z/deep": _F},
    ],
    "opaque-then-children": [
        {"/d": _D, "/d/old": _F, "/d/sub": _D, "/d/sub/x": _F, "/e": _F},
        {"/d/" + OPAQUE_WHITEOUT: _MARK, "/d/new": _F, "/d/sub/y": _F},
    ],
    "opaque-under-a-file": [
        {"/d": _F},
        {"/d/" + OPAQUE_WHITEOUT: _MARK, "/d/new": _F},
    ],
    "whiteout-then-children": [
        {"/a": _D, "/a/b": _D, "/a/b/x": _F},
        {"/a/" + WHITEOUT_PREFIX + "b": _MARK, "/a/b/y": _F, "/a/c": _F},
    ],
    "parent-changes-between-siblings": [
        {"/a": _D, "/a/b": _D, "/a/b/old": _F, "/a/c": _F},
        {"/a/b": _F, "/a/b-x": _F, "/a/b.y": _D, "/a/b/c": _F, "/a/b/c/d": _F, "/a/c": _F,
         "/a/c/e": _F},
    ],
    "ancestor-replaced-deep": [
        {"/p": _D, "/p/q": _D, "/p/q/r": _F},
        {"/p": _F, "/p/q/r": _F, "/p/q/s": _F, "/p/t": _F},
    ],
}


@pytest.mark.parametrize("name", sorted(_MEMO_STACKS))
def test_flatten_parent_memo_matches_dict_reference(name):
    layers = _MEMO_STACKS[name]
    flat = flatten([FileTree(layer) for layer in layers])
    assert list(flat.items()) == sorted(_dict_flatten(layers).items())
    validate_tree(flat)
    for path in tree_paths(flat):
        parent = posixpath.dirname(path)
        assert parent == "/" or flat.get(parent).kind == "dir", path


# -- the dict oracle ----------------------------------------------------------------
#
# These tests replay random inserts, subtree removals, copies and flattens
# against plain dicts whose removals scan every key and whose flatten applies
# each whiteout and marker on its own, so a removal pass that drops too much
# or too little, or a read out of path order, shows as a wrong count, entry
# or order.

# "-", ".", " " sort before "/" and "0" right after it, so these names sit on
# both sides of every subtree in path order and share its prefix without
# lying below it
INDEX_SEGMENTS = ["a", "a-b", "a.c", "a 1", "a0", "ab", "x"]


def _dict_remove(d, path):
    doomed = [p for p in d if p == path or p.startswith(path + "/")]
    for p in doomed:
        del d[p]
    return len(doomed)


def _dict_parents(d, path):
    parts = path.split("/")[1:-1]
    for i in range(1, len(parts) + 1):
        p = "/" + "/".join(parts[:i])
        e = d.get(p)
        if e is None or e.kind != "dir":
            _dict_remove(d, p)
            d[p] = TreeEntry("dir", DEFAULT_DIR_MODE)


def _dict_flatten(layers):
    d = {}
    for layer in layers:
        for p in sorted(layer):
            base = posixpath.basename(p)
            if base == OPAQUE_WHITEOUT:
                parent = posixpath.dirname(p)
                if parent == "/":
                    d.clear()
                    continue
                _dict_parents(d, p)
                kept = d[parent]
                _dict_remove(d, parent)
                d[parent] = kept
            elif base.startswith(WHITEOUT_PREFIX):
                _dict_remove(d, posixpath.join(posixpath.dirname(p), base[len(WHITEOUT_PREFIX):]))
        for p in sorted(layer):
            if posixpath.basename(p).startswith(WHITEOUT_PREFIX):
                continue
            _dict_parents(d, p)
            old, new = d.get(p), layer[p]
            if old is not None and not (old.kind == new.kind == "dir"):
                _dict_remove(d, p)
            d[p] = new
    return d


def _index_path(rng):
    return "/" + "/".join(rng.choice(INDEX_SEGMENTS) for _ in range(rng.randrange(1, 4)))


def _index_entry(rng):
    kind = rng.choice(("file", "file", "dir", "symlink"))
    if kind == "file":
        return TreeEntry("file", 0o644, bytes([rng.randrange(256)]))
    if kind == "dir":
        return TreeEntry("dir", rng.choice((0o755, 0o700)))
    return TreeEntry("symlink", 0o777, b"", rng.choice(INDEX_SEGMENTS))


def _upper_layer(rng, oracle):
    layer = {}
    for _ in range(rng.randrange(1, 8)):
        path = _index_path(rng)
        roll = rng.random()
        if roll < 0.2:
            path = posixpath.join(posixpath.dirname(path), WHITEOUT_PREFIX + posixpath.basename(path))
            layer[path] = TreeEntry("file", 0o644)
        elif roll < 0.3:
            layer[posixpath.join(posixpath.dirname(path), OPAQUE_WHITEOUT)] = TreeEntry("file", 0o644)
        else:
            layer[path] = _index_entry(rng)
            if roll > 0.8:  # something under the new entry, whatever its kind
                layer[f"{path}/{rng.choice(INDEX_SEGMENTS)}"] = _index_entry(rng)
    return layer


def _replacing_layer(rng, oracle):
    """A whiteout, which makes the layer run a removal pass, then new paths
    that sort just before existing files, each followed by a file or
    symlink over that file."""
    layer = {f"/{WHITEOUT_PREFIX}{rng.choice(INDEX_SEGMENTS)}": TreeEntry("file", 0o644)}
    files = sorted(p for p, e in oracle.items() if e.kind == "file")
    for path in rng.sample(files, min(len(files), 3)):
        layer[posixpath.join(posixpath.dirname(path), " new")] = _index_entry(rng)
        layer[path] = rng.choice((TreeEntry("file", 0o600, b"over"),
                                  TreeEntry("symlink", 0o777, b"", "x")))
    return layer


def _dir_replacing_layer(rng, oracle):
    """New paths, each followed in the same parent by a file or symlink over
    an existing dir, so that the dir's removal comes after an insert."""
    layer = {}
    dirs = sorted(p for p, e in oracle.items() if e.kind == "dir")
    for path in rng.sample(dirs, min(len(dirs), 3)):
        layer[posixpath.join(posixpath.dirname(path), " new")] = _index_entry(rng)
        layer[path] = rng.choice((TreeEntry("file", 0o600, b"over"),
                                  TreeEntry("symlink", 0o777, b"", "x")))
    return layer


def _opaque_new_dirs_layer(rng, oracle):
    """Opaque markers in dirs no lower layer has, mixed with whiteouts and
    markers on existing dirs, so that removals come after the new dirs."""
    layer = {}
    for _ in range(rng.randrange(1, 5)):
        parent = _index_path(rng)
        name = rng.choice((OPAQUE_WHITEOUT, OPAQUE_WHITEOUT,
                           WHITEOUT_PREFIX + rng.choice(INDEX_SEGMENTS)))
        layer[f"{parent}/{rng.choice(('new', 'x'))}/{name}"] = TreeEntry("file", 0o644)
    return layer


_LAYER_SHAPES = (_upper_layer, _upper_layer, _replacing_layer, _dir_replacing_layer,
                 _opaque_new_dirs_layer)


def _index_step(rng, tree, oracle):
    roll = rng.random()
    if roll < 0.45:
        path, entry = _index_path(rng), _index_entry(rng)
        tree.set_entry(path, entry)
        oracle[path] = entry
    elif roll < 0.75:
        path = _index_path(rng)
        assert tree.remove_subtree(path) == _dict_remove(oracle, path)
    elif roll < 0.9:
        twin, twin_oracle = tree.copy(), dict(oracle)
        before = list(tree.items())
        for _ in range(rng.randrange(1, 4)):
            _index_step(rng, twin, twin_oracle)
        assert list(tree.items()) == before
        assert list(twin.items()) == sorted(twin_oracle.items())
        if rng.random() < 0.5:
            return twin, twin_oracle
    else:
        upper = rng.choice(_LAYER_SHAPES)(rng, oracle)
        tree = flatten([tree, FileTree(upper)])
        oracle = _dict_flatten([oracle, upper])
    return tree, oracle


@pytest.mark.parametrize("seed", range(4))
def test_index_matches_dict_oracle(seed):
    rng = random.Random(5000 + seed)
    for _ in range(40):
        tree, oracle = FileTree(), {}
        for _ in range(40):
            tree, oracle = _index_step(rng, tree, oracle)
            assert list(tree.items()) == sorted(oracle.items())
            assert tree_paths(tree) == sorted(oracle)
            assert len(tree) == len(oracle)


def _whiteout_stack(whiteouts):
    base = FileTree()
    for d in range(100):
        base.add_dir(f"/d{d:03}")
        for f in range(200):
            base.add_file(f"/d{d:03}/f{f:03}")
    upper = FileTree()
    for i in range(whiteouts):
        d, f = divmod(i * 7919 % 20000, 200)
        upper.add_file(f"/d{d:03}/{WHITEOUT_PREFIX}f{f:03}")
    return [base, upper]


def _removal_work(monkeypatch, lower, upper):
    """Apply upper onto the flattened lower and count (entries that removal
    work looks at, _ensure_parent_dirs calls): a _drop_covered call looks
    at every entry of the result, a remove_subtree call at every entry of
    its tree."""
    result = flatten([lower])
    looked, ensured = [0], [0]
    drop_covered, ensure_parent_dirs = filetree._drop_covered, filetree._ensure_parent_dirs
    remove_subtree = FileTree.remove_subtree

    def counting_drop(entries, *args):
        looked[0] += len(entries)
        drop_covered(entries, *args)

    def counting_remove(tree, path):
        looked[0] += len(tree)
        return remove_subtree(tree, path)

    def counting_ensure(*args):
        ensured[0] += 1
        ensure_parent_dirs(*args)

    with monkeypatch.context() as m:
        m.setattr(filetree, "_drop_covered", counting_drop)
        m.setattr(FileTree, "remove_subtree", counting_remove)
        m.setattr(filetree, "_ensure_parent_dirs", counting_ensure)
        filetree.apply_layer(result, upper)
    return looked[0], ensured[0]


def test_flatten_time_does_not_grow_with_whiteouts(monkeypatch):
    few, many = _whiteout_stack(100), _whiteout_stack(2000)
    assert len(flatten(few)) - len(flatten(many)) == 1900
    # one look at each lower entry, however many whiteouts; a scan per
    # whiteout would look at 20,100 entries 100 or 2000 times
    for lower, upper in (few, many):
        assert _removal_work(monkeypatch, lower, upper)[0] <= len(flatten([lower]))


def _wide_base():
    base = FileTree()
    for d in range(250):
        base.add_dir(f"/d{d:03}")
        for f in range(200):
            base.add_file(f"/d{d:03}/f{f:03}")
        base.add_file(f"/d{d:03}/sub/x")
    return base


def test_flatten_time_does_not_grow_with_new_paths_after_a_whiteout(monkeypatch):
    base = _wide_base()
    plain = FileTree()
    for i in range(20000):  # new paths that sort before every base path
        plain.add_file(f"/c{i // 200:03}/f{i % 200:03}")
    whiteout = plain.copy()
    whiteout.add_file(f"/d000/{WHITEOUT_PREFIX}f000")
    assert len(flatten([base, plain])) - len(flatten([base, whiteout])) == 1
    # the whiteout costs one removal pass over the lower result, which the
    # new paths never enter, and the new paths make each of their parents
    # a dir once, not once per path
    looked, ensured = _removal_work(monkeypatch, base, whiteout)
    assert looked <= len(flatten([base]))
    assert ensured <= len({path.rpartition("/")[0] for path, _ in whiteout.items()})


def _hide_250_subs():
    """250 whiteouts that each hide one entry of the wide base."""
    whiteouts = FileTree()
    for d in range(250):
        whiteouts.add_file(f"/d{d:03}/sub/{WHITEOUT_PREFIX}x")
    return whiteouts


def _removal_passes(monkeypatch, layers):
    """Removal passes over the result for each layer while flatten(layers)
    runs. A pass looks at every entry, so a layer must run at most two,
    whatever it holds."""
    passes = []
    apply_layer, drop_covered = filetree.apply_layer, filetree._drop_covered

    def counting_apply(result, layer):
        passes.append(0)
        apply_layer(result, layer)

    def counting_drop(*args):
        passes[-1] += 1
        drop_covered(*args)

    with monkeypatch.context() as m:
        m.setattr(filetree, "apply_layer", counting_apply)
        m.setattr(filetree, "_drop_covered", counting_drop)
        flatten(layers)
    assert len(passes) == len(layers)
    return max(passes)


def test_flatten_time_does_not_grow_with_opaque_markers(monkeypatch):
    base, whiteouts, opaque = _wide_base(), _hide_250_subs(), FileTree()
    for d in range(250):  # both hide the same 250 entries
        opaque.add_file(f"/d{d:03}/sub/{OPAQUE_WHITEOUT}")
    assert flatten([base, whiteouts]) == flatten([base, opaque])
    # one removal pass per marker would scan the whole result 250 times
    assert _removal_passes(monkeypatch, [base, opaque]) <= 2


def test_flatten_time_does_not_grow_with_dirs_replaced_after_new_paths(monkeypatch):
    base, whiteouts, replacing = _wide_base(), _hide_250_subs(), FileTree()
    for d in range(250):
        replacing.add_file(f"/d{d:03}/sua")  # new, and sorts just before sub
        replacing.add_file(f"/d{d:03}/sub")  # a file over the dir sub/
    assert len(flatten([base, replacing])) == len(flatten([base, whiteouts])) + 250
    # one removal pass per replaced dir would scan the whole result 250 times
    assert _removal_passes(monkeypatch, [base, replacing]) <= 2


def test_flatten_time_does_not_grow_with_opaque_markers_in_new_dirs(monkeypatch):
    base, whiteouts, opaque = _wide_base(), _hide_250_subs(), FileTree()
    for d in range(250):
        opaque.add_file(f"/d{d:03}/new/{OPAQUE_WHITEOUT}")
    assert len(flatten([base, opaque])) == len(flatten([base, whiteouts])) + 500
    # a new dir has nothing below it; one removal pass per marker would
    # still scan the whole result 250 times
    assert _removal_passes(monkeypatch, [base, opaque]) <= 2


# -- site modification ------------------------------------------------------------


def test_apply_site_mods_inject_and_env():
    tree = tiny_tree()
    site = SiteConfig(mods=(
        SiteMod(op="inject_file", path="/etc/nsswitch.conf", content=b"hosts: files dns\n",
                mode=0o644),
        SiteMod(op="make_dir", path="/scratch", mode=0o777),
        SiteMod(op="remove_path", path="/etc/os-release"),
        SiteMod(op="append_env", key="UDI_SITE", value="1"),
    ), cleanup_commands=())
    out = apply_site_mods(tree, site)
    assert out.get("/etc/nsswitch.conf").content == b"hosts: files dns\n"
    assert out.get("/scratch").mode == 0o777
    assert "/etc/os-release" not in out
    assert b"UDI_SITE=1\n" in out.get("/etc/environment").content
    # input tree untouched
    assert "/etc/os-release" in tree


def test_append_env_appends_in_order():
    tree = FileTree()
    site = SiteConfig(mods=(
        SiteMod(op="append_env", key="A", value="1"),
        SiteMod(op="append_env", key="B", value="2"),
    ), cleanup_commands=())
    out = apply_site_mods(tree, site)
    assert out.get("/etc/environment").content == b"A=1\nB=2\n"


def test_inject_over_dir_conflicts():
    tree = FileTree()
    tree.add_dir("/etc/nsswitch.conf")
    site = SiteConfig(mods=(
        SiteMod(op="inject_file", path="/etc/nsswitch.conf", content=b"x", mode=0o644),
    ), cleanup_commands=())
    with pytest.raises(ModConflict):
        apply_site_mods(tree, site)


def test_make_dir_over_file_conflicts():
    tree = FileTree()
    tree.add_file("/scratch", b"")
    site = SiteConfig(mods=(SiteMod(op="make_dir", path="/scratch", mode=0o777),),
                      cleanup_commands=())
    with pytest.raises(ModConflict):
        apply_site_mods(tree, site)


def test_remove_path_idempotent():
    site = SiteConfig(mods=(SiteMod(op="remove_path", path="/nope"),),
                      cleanup_commands=())
    out = apply_site_mods(FileTree(), site)
    assert len(out) == 0


def test_idempotent_mods_apply_twice_same_result():
    tree = tiny_tree()
    site = default_site_config()
    once = apply_site_mods(tree, site)
    # append_env is by nature additive, so strip it for the idempotence check
    pure = SiteConfig(mods=tuple(m for m in site.mods if m.op != "append_env"),
                      cleanup_commands=site.cleanup_commands)
    assert apply_site_mods(apply_site_mods(tree, pure), pure) == apply_site_mods(tree, pure)
    assert once is not tree


def test_default_site_config_summaries():
    site = default_site_config()
    summaries = [m.summary() for m in site.mods]
    assert "inject_file:/etc/nsswitch.conf" in summaries
    assert any(s.startswith("append_env:") for s in summaries)
