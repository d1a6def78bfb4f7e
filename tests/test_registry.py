"""Registry fixture behavior: manifests, fault injection, disk layout."""

import json

import pytest

import udigate.registry
from helpers import FaultyRegistry, payload_tree, tiny_tree
from udigate.errors import DigestMismatch, MalformedLayer, RegistryIoError, RegistryUnknownImage
from udigate.filetree import blob_digest, tree_to_blob
from udigate.registry import HttpRegistryClient, LocalRegistry, Manifest, SilentAbort


@pytest.fixture
def reg():
    r = LocalRegistry()
    r.add_image("team/app", "v1", [tiny_tree(), payload_tree()], total_size=10_000)
    return r


def test_fetch_manifest(reg):
    m = reg.fetch_manifest("team/app:v1")
    assert m.canonical() == "team/app:v1"
    assert m.total_size == 10_000
    assert m.layers == (blob_digest(tree_to_blob(tiny_tree())),
                        blob_digest(tree_to_blob(payload_tree())))
    assert reg.manifest_fetches["team/app:v1"] == 1


def test_fetch_layer_matches_digest(reg):
    m = reg.fetch_manifest("team/app:v1")
    for d in m.layers:
        assert blob_digest(reg.fetch_layer(d)) == d


def test_unknown_image_and_blob(reg):
    with pytest.raises(RegistryUnknownImage):
        reg.fetch_manifest("team/app:v2")
    with pytest.raises(RegistryUnknownImage):
        reg.fetch_layer("f" * 64)


def test_down_registry():
    reg = FaultyRegistry()
    digest = reg.add_image("team/app", "v1", [tiny_tree()]).layers[0]
    reg.set_down(True)
    for fetch in (lambda: reg.fetch_manifest("team/app:v1"), lambda: reg.fetch_layer(digest),
                  lambda: reg.transfer_tick(digest, 0.5)):
        with pytest.raises(RegistryIoError, match="unreachable"):
            fetch()
    assert not reg.manifest_fetches and not reg.layer_fetches  # refused before counting
    reg.set_down(False)
    assert reg.fetch_manifest("team/app:v1").tag == "v1"
    assert blob_digest(reg.fetch_layer(digest)) == digest


def test_abort_fires_once_at_fraction(reg):
    d = reg.fetch_manifest("team/app:v1").layers[0]
    reg.set_abort(d, fraction=0.5, mode="error")
    reg.transfer_tick(d, 0.25)  # below threshold
    with pytest.raises(RegistryIoError):
        reg.transfer_tick(d, 0.5)
    reg.transfer_tick(d, 1.0)  # one-shot fault consumed


def test_silent_abort_not_a_package_error(reg):
    from udigate.errors import UdigateError
    d = reg.fetch_manifest("team/app:v1").layers[0]
    reg.set_abort(d, fraction=0.1, mode="silent")
    with pytest.raises(SilentAbort) as exc_info:
        reg.transfer_tick(d, 0.9)
    assert not isinstance(exc_info.value, UdigateError)


def test_bad_abort_mode_rejected(reg):
    with pytest.raises(ValueError):
        reg.set_abort("d" * 64, 0.5, mode="sideways")


def test_manifest_document_validation():
    with pytest.raises(RegistryIoError):
        Manifest.from_json_dict({"name": "x", "tag": "y", "layers": [], "total_size": 1})
    with pytest.raises(RegistryIoError):
        Manifest.from_json_dict({"name": "x", "tag": "y", "layers": ["a", "a"], "total_size": 1})
    with pytest.raises(RegistryIoError):
        Manifest.from_json_dict({"name": "x", "tag": "y", "layers": ["a"], "total_size": -5})
    with pytest.raises(RegistryIoError):
        Manifest.from_json_dict({"name": "x", "layers": ["a"], "total_size": 1})
    for size in ("1e400", "Infinity", "-Infinity", "true", "1.5", '"5"'):  # not an int >= 0
        doc = json.loads('{"name": "x", "tag": "y", "layers": ["a"], "total_size": %s}' % size)
        with pytest.raises(RegistryIoError, match="total_size"):
            Manifest.from_json_dict(doc)


def test_manifest_total_size_bound_is_zero():
    assert Manifest("x", "y", ("a",), 0).total_size == 0
    with pytest.raises(RegistryIoError, match="total_size"):
        Manifest("x", "y", ("a",), -1)


def test_manifest_total_size_upper_bound_is_inclusive():
    # the declared size sets the pull's step count, so an absurd one would
    # spin a worker through billions of steps
    bound = udigate.registry.MAX_TOTAL_SIZE
    assert bound == 2 ** 40
    assert Manifest("x", "y", ("a",), bound).total_size == bound
    with pytest.raises(RegistryIoError, match="total_size"):
        Manifest("x", "y", ("a",), bound + 1)
    doc = {"name": "x", "tag": "y", "layers": ["a"], "total_size": 10 ** 18}
    with pytest.raises(RegistryIoError, match="total_size"):
        Manifest.from_json_dict(doc)


@pytest.mark.parametrize("layers,total_size", [
    ([tiny_tree()], -5),
    ([tiny_tree()], True),
    ([tiny_tree()], 1.5),
    ([], None),
    ([tiny_tree(), payload_tree(), tiny_tree()], None),
], ids=["negative", "bool", "float", "no-layers", "duplicate-layers"])
def test_add_image_refuses_a_bad_manifest_and_keeps_nothing(layers, total_size):
    r = LocalRegistry()
    with pytest.raises(RegistryIoError):
        r.add_image("team/app", "v1", layers, total_size=total_size)
    assert r.images() == []
    with pytest.raises(RegistryUnknownImage):
        r.fetch_layer(blob_digest(tree_to_blob(tiny_tree())))


def test_save_and_load_dir(reg, tmp_path):
    reg.save_to_dir(str(tmp_path))
    assert (tmp_path / "team" / "app:v1" / "manifest.json").is_file()
    back = LocalRegistry.load_from_dir(str(tmp_path))
    assert back.images() == ["team/app:v1"]
    m = back.fetch_manifest("team/app:v1")
    assert m == reg.fetch_manifest("team/app:v1")
    for d in m.layers:
        assert back.fetch_layer(d) == reg.fetch_layer(d)


def test_load_dir_rejects_corrupt_blob(reg, tmp_path):
    reg.save_to_dir(str(tmp_path))
    d = reg.fetch_manifest("team/app:v1").layers[0]
    blob = tmp_path / "team" / "app:v1" / "blobs" / d
    blob.write_bytes(b"tampered")
    with pytest.raises(DigestMismatch):
        LocalRegistry.load_from_dir(str(tmp_path))


def test_load_dir_refuses_a_json_era_blob(tmp_path):
    # a layer as registry directories held them before blobs became entry
    # records: its digest matches, and loading must still refuse it, naming
    # the file, rather than let the first pull find it
    blob = json.dumps({"entries": {"/etc/motd": {"content_b64": "aGk=", "kind": "file",
                                                 "mode": 420}}},
                      sort_keys=True, separators=(",", ":")).encode()
    digest = blob_digest(blob)
    img_dir = tmp_path / "team" / "app:v1"
    (img_dir / "blobs").mkdir(parents=True)
    (img_dir / "blobs" / digest).write_bytes(blob)
    (img_dir / "manifest.json").write_text(json.dumps(
        {"name": "team/app", "tag": "v1", "layers": [digest], "total_size": len(blob)}))
    with pytest.raises(MalformedLayer) as exc_info:
        LocalRegistry.load_from_dir(str(tmp_path))
    assert str(img_dir / "blobs" / digest) in str(exc_info.value)


def test_load_missing_root():
    with pytest.raises(RegistryIoError):
        LocalRegistry.load_from_dir("/no/such/dir")


@pytest.mark.parametrize("body", [b"<html>502 Bad Gateway</html>", b"", b"\xff\xfe{"],
                         ids=["html", "empty", "not-utf8"])
def test_http_manifest_that_is_not_json_is_a_registry_io_error(monkeypatch, body):
    # a non-JSON body must fail the pull as a registry error, not escape as
    # a JSONDecodeError that the worker reports as unexpected
    client = HttpRegistryClient("http://registry.invalid")
    monkeypatch.setattr(client, "_get", lambda path: body)
    with pytest.raises(RegistryIoError, match="not JSON"):
        client.fetch_manifest("team/app:v1")
