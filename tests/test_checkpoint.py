"""Checkpoint and descriptor-dump format tests."""

import numpy as np
import pytest

from lgcn import checkpoint as ck


def test_checkpoint_roundtrip(tmp_path, rng):
    params = {
        "vit.patch.proj_w": rng.normal(size=(12, 4)),
        "fsa.block0.scale": np.array(0.1),
        "head.attn.wo": np.zeros((4, 4)),
    }
    header = {"model": {"preset": "toy"}, "ablation": {"disable_fsa": False}}
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, params, header)
    loaded, loaded_header = ck.load_checkpoint(path)
    assert loaded_header == header
    assert list(loaded) == list(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_model_checkpoint_round_trips_every_shape(tmp_path):
    from lgcn.config import AblationFlags, ModelConfig
    from lgcn.model import init_model

    params = init_model(ModelConfig.toy(depth=2), AblationFlags(), seed=0)
    assert params["dfm.alpha1"].ndim == 0 and params["fsa.block0.scale"].ndim == 0
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, params, {})
    loaded, _ = ck.load_checkpoint(path)
    for name in params:
        assert loaded[name].shape == params[name].shape, name
        assert loaded[name].tobytes() == params[name].tobytes(), name


def test_checkpoint_preserves_order(tmp_path, rng):
    params = {f"p{i}": rng.normal(size=3) for i in range(20)}
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, params, {})
    loaded, _ = ck.load_checkpoint(path)
    assert list(loaded) == list(params)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ck.CheckpointError, match="not a checkpoint"):
        ck.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path, rng):
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, {"w": rng.normal(size=100)}, {})
    data = path.read_bytes()
    path.write_bytes(data[:-50])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(path)


def test_group_sha_changes_with_values(rng):
    params = {"vit.a": rng.normal(size=4), "fsa.b": rng.normal(size=4)}
    before = ck.group_sha256(params, "vit.")
    assert before == ck.group_sha256(dict(params), "vit.")
    params2 = dict(params)
    params2["fsa.b"] = params["fsa.b"] + 1
    assert ck.group_sha256(params2, "vit.") == before  # other group untouched
    params3 = dict(params)
    params3["vit.a"] = params["vit.a"] + 1e-12
    assert ck.group_sha256(params3, "vit.") != before


def test_descriptor_dump_roundtrip(tmp_path, rng):
    vecs = rng.normal(size=(7, 16))
    path = tmp_path / "d.bin"
    ck.save_descriptors(path, vecs)
    np.testing.assert_array_equal(ck.load_descriptors(path), vecs)


def test_descriptor_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 24)
    with pytest.raises(ck.CheckpointError, match="not a descriptor dump"):
        ck.load_descriptors(path)


def _valid_checkpoint(tmp_path, rng):
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, {"w": rng.normal(size=(2, 3))}, {"model": {"preset": "toy"}})
    return path, path.read_bytes()


def _patched(path, data, offset, value):
    path.write_bytes(data[:offset] + value + data[offset + len(value):])
    return path


def test_checkpoint_rejects_truncated_header(tmp_path, rng):
    path, data = _valid_checkpoint(tmp_path, rng)
    path.write_bytes(data[:10])
    with pytest.raises(ck.CheckpointError, match="truncated version"):
        ck.load_checkpoint(path)


def test_checkpoint_rejects_unknown_dtype_code(tmp_path, rng):
    path, data = _valid_checkpoint(tmp_path, rng)
    hlen = int.from_bytes(data[12:16], "little")
    dtype_at = 16 + hlen + 8 + 4 + len(b"w")  # tensor count, name length, name
    assert data[dtype_at] == 0
    with pytest.raises(ck.CheckpointError, match="unknown dtype code 7"):
        ck.load_checkpoint(_patched(path, data, dtype_at, b"\x07"))


def test_checkpoint_is_float64_only(tmp_path, rng):
    # a float32 tensor is written as float64; the old float32 code 1 no longer reads
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, {"w": np.array([0.1, 2.5], dtype=np.float32)}, {})
    loaded, _ = ck.load_checkpoint(path)
    assert loaded["w"].dtype == np.float64 and loaded["w"].tolist() == [np.float32(0.1), 2.5]
    path, data = _valid_checkpoint(tmp_path, rng)
    hlen = int.from_bytes(data[12:16], "little")
    dtype_at = 16 + hlen + 8 + 4 + len(b"w")
    with pytest.raises(ck.CheckpointError, match="unknown dtype code 1 for 'w'"):
        ck.load_checkpoint(_patched(path, data, dtype_at, b"\x01"))


@pytest.mark.parametrize("head", [b"!", b"\xff"])  # not JSON; not UTF-8
def test_checkpoint_rejects_unreadable_header(tmp_path, rng, head):
    path, data = _valid_checkpoint(tmp_path, rng)
    with pytest.raises(ck.CheckpointError, match="unreadable header"):
        ck.load_checkpoint(_patched(path, data, 16, head))


def test_checkpoint_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, {}, ["model", 1])
    with pytest.raises(ck.CheckpointError, match="not a JSON object"):
        ck.load_checkpoint(path)


def test_checkpoint_huge_shape_is_truncation_not_allocation(tmp_path, rng):
    path, data = _valid_checkpoint(tmp_path, rng)
    hlen = int.from_bytes(data[12:16], "little")
    shape_at = 16 + hlen + 8 + 4 + len(b"w") + 1 + 4
    with pytest.raises(ck.CheckpointError, match="truncated tensor"):
        ck.load_checkpoint(_patched(path, data, shape_at, (2 ** 62).to_bytes(8, "little")))


@pytest.mark.parametrize("precision", [0, 3, 4, 7, 255])
def test_descriptor_dump_rejects_unknown_precision_byte(tmp_path, rng, precision):
    path = tmp_path / "d.bin"
    ck.save_descriptors(path, rng.normal(size=(3, 3)))
    data = path.read_bytes()
    assert data[28] == 8  # magic, version, count, dim, then the precision byte
    path.write_bytes(data[:28] + bytes([precision]) + data[29:])
    with pytest.raises(ck.CheckpointError, match=f"precision byte {precision}"):
        ck.load_descriptors(path)


def test_descriptor_dump_rejects_truncated_fields(tmp_path, rng):
    path = tmp_path / "d.bin"
    ck.save_descriptors(path, rng.normal(size=(3, 3)))
    data = path.read_bytes()
    for cut in (10, 20, 28, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ck.CheckpointError, match="truncated"):
            ck.load_descriptors(path)


@pytest.mark.parametrize("how", ["save_checkpoint", "atomic_write"])
def test_failed_write_keeps_previous_file(tmp_path, rng, how):
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(path, {"a": rng.normal(size=(3, 2))}, {"epoch": 1})
    before = path.read_bytes()
    with pytest.raises((TypeError, RuntimeError)):
        if how == "save_checkpoint":  # the second tensor fails after the first is written
            ck.save_checkpoint(path, {"a": np.ones((64, 64)), "b": object()}, {"epoch": 2})
        else:
            with ck.atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("killed midway")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class _DiesOnSecondWrite:
    """A file whose second write raises, as if the run were killed midway."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise RuntimeError("killed midway")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("writer", ["write_ppm", "nan_dump"])
def test_failed_write_keeps_previous_file_for_ppm_and_nan_dump(tmp_path, rng, monkeypatch,
                                                               writer):
    import builtins

    from lgcn import ppm, trainer

    if writer == "write_ppm":
        path = tmp_path / "image.ppm"
        write = lambda value: ppm.write_ppm(path, np.full((4, 5, 3), value))  # noqa: E731
    else:
        path = tmp_path / "nan_dump.json"
        write = lambda value: trainer._dump_nan_diag(tmp_path, 1, 0,  # noqa: E731
                                                     {"a": np.full(3, value)})
    write(0.25)
    before = path.read_bytes()
    monkeypatch.setattr(ck, "open", lambda *a, **kw: _DiesOnSecondWrite(builtins.open(*a, **kw)),
                        raising=False)
    with pytest.raises(RuntimeError, match="killed midway"):
        write(0.75)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
