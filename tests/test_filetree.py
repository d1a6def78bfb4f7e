"""Tree algebra: layering, whiteouts, site mods, and the flatten oracle.

The flatten property test replays random layer stacks with real syscalls
on a staging directory (tests/helpers.py) and demands byte-for-byte
agreement with the pure-tree implementation.
"""

import base64
import hashlib
import json
import random

import pytest

from helpers import materialize_stack, random_stack, read_back_tree, tiny_tree
from udigate.errors import EmptyLayerList, MalformedLayer, ModConflict
from udigate.filetree import (
    FileTree,
    SiteConfig,
    SiteMod,
    apply_site_mods,
    blob_digest,
    default_site_config,
    flatten,
    parse_site_file,
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
    assert t.paths() == ["/a", "/m", "/z"]


def test_normalize_rejects_relative_and_dotdot():
    t = FileTree()
    for bad in ("relative", "/a/../b", "/a/./b", "//", "/a//b", ""):
        with pytest.raises(MalformedLayer):
            t.add_file(bad, b"")


def test_symlink_mode_forced():
    t = FileTree()
    t.add_symlink("/l", "target")
    assert t.get("/l").mode == 0o777


def test_remove_subtree_counts():
    t = FileTree()
    t.add_dir("/a")
    t.add_file("/a/x", b"")
    t.add_file("/a/y", b"")
    t.add_file("/ab", b"")  # sibling with common prefix must survive
    assert t.remove_subtree("/a") == 3
    assert "/ab" in t
    assert len(t) == 1


def test_validate_catches_file_ancestor():
    t = FileTree()
    t.add_file("/a", b"")
    t._entries["/a/b"] = t.get("/a")  # bypass add checks
    with pytest.raises(MalformedLayer):
        t.validate()


def test_blob_roundtrip_and_digest_stability():
    t = tiny_tree()
    blob = tree_to_blob(t)
    back = tree_from_blob(blob)
    assert back == t
    assert tree_to_blob(back) == blob
    assert t.digest() == blob_digest(blob)


def _reference_blob(tree: FileTree) -> bytes:
    entries = {}
    for path, e in tree.items():
        rec = {"kind": e.kind, "mode": e.mode}
        if e.kind == "file":
            rec["content_b64"] = base64.b64encode(e.content).decode("ascii")
        elif e.kind == "symlink":
            rec["target"] = e.target
        entries[path] = rec
    return json.dumps({"entries": entries}, sort_keys=True,
                      separators=(",", ":")).encode()


def test_blob_encoder_matches_json_dumps():
    names = ["a", "Z", "é", "日本", "\U0001F600", 'q"uote', "back\\slash", "tab\t", "\u007f"]
    targets = ['../x"y', "c:\\dir\\", "ünï\\\"", "\U0001F4A9/\n"]
    rng = random.Random(7)
    assert tree_to_blob(FileTree()) == _reference_blob(FileTree())
    for _ in range(200):
        t = FileTree()
        for _ in range(rng.randrange(1, 12)):
            path = "/" + "/".join(rng.choice(names) for _ in range(rng.randrange(1, 4)))
            kind = rng.choice(("file", "dir", "symlink"))
            if kind == "file":
                t.add_file(path, rng.randbytes(rng.randrange(0, 40)),
                           mode=rng.choice((0o644, 0o600, 0o755, 0)))
            elif kind == "dir":
                t.add_dir(path, mode=rng.choice((0o755, 0o700, 0o1777)))
            else:
                t.add_symlink(path, rng.choice(targets))
        ref = _reference_blob(t)
        assert tree_to_blob(t) == ref
        assert t.digest() == hashlib.sha256(ref).hexdigest()


def test_tree_from_blob_rejects_garbage():
    with pytest.raises(MalformedLayer):
        tree_from_blob(b"not json")
    with pytest.raises(MalformedLayer):
        tree_from_blob(b"[1,2,3]")


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
    assert flat.paths() == expected


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
        flat.validate()


@pytest.mark.parametrize("seed", range(8))
def test_flatten_matches_filesystem_oracle(seed, tmp_path):
    rng = random.Random(1000 + seed)
    for i in range(25):
        layers = random_stack(rng)
        root = tmp_path / f"stage-{i}"
        root.mkdir()
        materialize_stack(layers, str(root))
        oracle = read_back_tree(str(root))
        assert tree_to_blob(flatten(layers)) == tree_to_blob(oracle)


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


def test_parse_site_file():
    import base64
    payload = base64.b64encode(b"hosts: files\n").decode()
    site = parse_site_file(f"""
        # standard site adjustments
        inject_file /etc/nsswitch.conf 644 {payload}
        make_dir /scratch 777
        remove_path /etc/machine-id
        append_env UDI_SITE 1
        cleanup cleanup_scratch
        cleanup drop_node_cache --force
    """)
    ops = [m.op for m in site.mods]
    assert ops == ["inject_file", "make_dir", "remove_path", "append_env"]
    assert site.mods[0].content == b"hosts: files\n"
    assert site.mods[0].mode == 0o644
    assert site.mods[1].mode == 0o777
    assert site.cleanup_commands == ("cleanup_scratch", "drop_node_cache --force")


def test_default_site_config_summaries():
    site = default_site_config()
    summaries = [m.summary() for m in site.mods]
    assert "inject_file:/etc/nsswitch.conf" in summaries
    assert any(s.startswith("append_env:") for s in summaries)
