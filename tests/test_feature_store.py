"""Binary feature store: round trips, recovery, normalization statistics."""

import gc
import hashlib
import json
import struct
import sys

import numpy as np
import pytest

from avatarprint.feature_store import (
    FeatureKind,
    FeatureSequence,
    FeatureStore,
    FeatureStoreError,
    FeatureStoreWriter,
    LANDMARK_POINTS,
    MissingSequenceError,
    NormalizationParams,
    VARIANCE_FLOOR,
    import_frames_csv,
    normalize,
)

from helpers import random_store


class TestFeatureSequence:
    def test_accepts_and_coerces(self):
        seq = FeatureSequence("v", FeatureKind.EMBEDDING, [[1, 2], [3, 4]])
        assert seq.frames.dtype == np.float64
        assert seq.num_frames == 2 and seq.dimension == 2

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(FeatureStoreError):
            FeatureSequence("v", FeatureKind.EMBEDDING, np.zeros((0, 3)))
        with pytest.raises(FeatureStoreError):
            FeatureSequence("v", FeatureKind.EMBEDDING, np.zeros(3))
        with pytest.raises(FeatureStoreError):
            FeatureSequence("v", FeatureKind.EMBEDDING, [[np.nan, 1.0]])
        with pytest.raises(FeatureStoreError):
            FeatureSequence("", FeatureKind.EMBEDDING, [[1.0]])
        for fps in (0.0, float("nan"), float("inf")):
            with pytest.raises(FeatureStoreError, match="fps"):
                FeatureSequence("v", FeatureKind.EMBEDDING, [[1.0]], fps=fps)

    def test_landmark_dimension_is_pinned(self):
        good = np.zeros((4, 2 * LANDMARK_POINTS))
        FeatureSequence("v", FeatureKind.LANDMARKS, good)
        with pytest.raises(FeatureStoreError, match="landmark"):
            FeatureSequence("v", FeatureKind.LANDMARKS, np.zeros((4, 10)))


class TestStoreRoundTrip:
    def test_write_read(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = {f"v{i}": rng.normal(size=(10 + i, 6)) for i in range(5)}
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 6)
        for vid, arr in frames.items():
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, arr, fps=25.0))
        store = writer.seal()
        assert len(store) == 5
        assert store.ids() == sorted(frames)
        for vid, arr in frames.items():
            seq = store.get(vid)
            assert seq.fps == 25.0
            assert seq.frames.dtype == np.float64
            # storage is 32-bit, so values come back float32-rounded
            np.testing.assert_allclose(seq.frames, arr, rtol=1e-6, atol=1e-6)
            assert seq.num_frames == arr.shape[0]

    def test_writer_guards(self, tmp_path):
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 3)
        writer.put(FeatureSequence("a", FeatureKind.EMBEDDING, np.zeros((2, 3))))
        with pytest.raises(FeatureStoreError, match="duplicate"):
            writer.put(FeatureSequence("a", FeatureKind.EMBEDDING, np.ones((2, 3))))
        with pytest.raises(FeatureStoreError, match="dimension"):
            writer.put(FeatureSequence("b", FeatureKind.EMBEDDING, np.zeros((2, 4))))
        with pytest.raises(FeatureStoreError, match="overflow"):
            writer.put(FeatureSequence("c", FeatureKind.EMBEDDING, np.full((1, 3), 1e200)))
        writer.seal()
        with pytest.raises(FeatureStoreError, match="sealed"):
            writer.put(FeatureSequence("d", FeatureKind.EMBEDDING, np.zeros((2, 3))))
        with pytest.raises(FileExistsError):
            FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 3)

    def test_missing_sequence_error_is_keyerror(self, tmp_path):
        store = random_store(tmp_path / "f.avfs", ["a"], 4, np.random.default_rng(1))
        with pytest.raises(MissingSequenceError):
            store.get("nope")
        with pytest.raises(KeyError):
            store.get("nope")
        assert "a" in store and "nope" not in store

    def test_missing_file_leaves_nothing_to_close(self, tmp_path, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(FileNotFoundError):
            FeatureStore(tmp_path / "absent.avfs")
        gc.collect()
        assert not unraisable  # __del__ of the half-built store must not raise

    def test_with_block_closes_the_handle(self, tmp_path):
        random_store(tmp_path / "f.avfs", ["a"], 4, np.random.default_rng(1)).close()
        with FeatureStore(tmp_path / "f.avfs") as store:
            assert store.get("a").frames.shape[1] == 4
        with pytest.raises(FeatureStoreError, match="closed"):
            store.get("a")

    def test_sealed_store_is_one_file_that_keeps_fps(self, tmp_path):
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 3)
        for vid, fps in (("a", 25.0), ("b", 29.97), ("c", 30.0)):
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, np.ones((4, 3)), fps))
        writer.seal().close()
        assert [p.name for p in tmp_path.iterdir()] == ["f.avfs"]
        with FeatureStore(tmp_path / "f.avfs") as store:
            assert [store.get(vid).fps for vid in "abc"] == [25.0, 29.97, 30.0]

    def test_abandoned_writer_leaves_nothing(self, tmp_path):
        path = tmp_path / "f.avfs"
        writer = FeatureStoreWriter(path, FeatureKind.EMBEDDING, 3)
        writer.put(FeatureSequence("a", FeatureKind.EMBEDDING, np.zeros((2, 3))))
        writer.close()
        with pytest.raises(FeatureStoreError, match="closed"):
            writer.seal()
        with pytest.raises(RuntimeError):
            with FeatureStoreWriter(path, FeatureKind.EMBEDDING, 3) as writer:
                writer.put(FeatureSequence("a", FeatureKind.EMBEDDING, np.zeros((2, 3))))
                raise RuntimeError("the producer died")
        writer = FeatureStoreWriter(path, FeatureKind.EMBEDDING, 3)
        del writer
        gc.collect()
        assert list(tmp_path.iterdir()) == []
        FeatureStoreWriter(path, FeatureKind.EMBEDDING, 3).seal().close()
        assert [p.name for p in tmp_path.iterdir()] == ["f.avfs"]

    def test_digest_names_the_content(self, tmp_path):
        def digest_of(name, frames):
            with FeatureStoreWriter(tmp_path / name, FeatureKind.EMBEDDING, 2) as writer:
                writer.put(FeatureSequence("a", FeatureKind.EMBEDDING, frames))
                with writer.seal() as store:
                    return store.digest

        frames = np.arange(6.0).reshape(3, 2)
        digest = digest_of("x.avfs", frames)
        assert digest == digest_of("y.avfs", frames)
        assert digest != digest_of("z.avfs", frames + 1)  # the same size, other frames
        # every byte after the 53-byte header, as written
        assert digest == hashlib.sha256((tmp_path / "x.avfs").read_bytes()[53:]).hexdigest()

    def test_version_2_store_is_refused(self, tmp_path):
        path = tmp_path / "old.avfs"
        # version 2 header: magic, version, kind code, D, index offset; no digest
        path.write_bytes(struct.pack("<4sIBIQ", b"AVFS", 2, 1, 3, 21) + b"{}")
        with pytest.raises(FeatureStoreError, match="version 2.*rebuild") as exc:
            FeatureStore(path)
        assert str(path) in str(exc.value)

    def test_version_1_store_is_refused(self, tmp_path):
        path = tmp_path / "old.avfs"
        # version 1 header: magic, version, kind code, D, record count
        path.write_bytes(struct.pack("<4sIBII", b"AVFS", 1, 1, 3, 0))
        with pytest.raises(FeatureStoreError, match="version 1") as exc:
            FeatureStore(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("damage, message", [
        ("cut-index", "truncated or corrupt index"),
        ("unsealed", "unsealed"),
        ("record-past-index", "runs past the index"),
    ], ids=["cut-index", "unsealed", "record-past-index"])
    def test_damaged_store_is_refused(self, tmp_path, damage, message):
        path = tmp_path / "f.avfs"
        random_store(path, ["a", "b"], 4, np.random.default_rng(3), frames=6).close()
        raw = bytearray(path.read_bytes())
        (index_offset,) = struct.unpack_from("<Q", raw, 13)
        if damage == "cut-index":
            del raw[-3:]
        elif damage == "unsealed":
            raw[13:21] = bytes(8)
        else:  # "b" claims one frame more than was written before the index
            index = json.loads(raw[index_offset:])
            index["b"][1] += 1
            raw[index_offset:] = json.dumps(index).encode()
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureStoreError, match=message) as exc:
            FeatureStore(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("trailer", [
        '{"a": 5}', '[1, 2]', '{"a": ["x", 1, 30]}', '{"a": [21, -1, 30]}',
        '{"a": [21, 1, Infinity]}', '{"a": [53, 0, 30]}', '{"a": [53, 1, NaN]}',
    ], ids=["record-not-a-list", "index-not-a-map", "offset-not-an-int", "no-frames",
            "fps-not-finite", "no-frames-past-the-header", "fps-nan-past-the-header"])
    def test_malformed_index_is_refused(self, tmp_path, trailer):
        path = tmp_path / "f.avfs"
        random_store(path, ["a"], 4, np.random.default_rng(3), frames=6).close()
        raw = path.read_bytes()
        (index_offset,) = struct.unpack_from("<Q", raw, 13)
        path.write_bytes(raw[:index_offset] + trailer.encode())
        with pytest.raises(FeatureStoreError, match="index") as exc:
            FeatureStore(path)
        assert str(path) in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.avfs"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FeatureStoreError, match="bad magic"):
            FeatureStore(path)


class TestNormalization:
    def test_statistics_match_pooled_frames(self, tmp_path):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(loc=2.0, scale=3.0, size=(t, 4)) for t in (12, 20, 7)]
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 4)
        for i, arr in enumerate(arrays):
            writer.put(FeatureSequence(f"v{i}", FeatureKind.EMBEDDING, arr))
        store = writer.seal()
        params = normalize(store, ["v0", "v1", "v2"])
        pooled = np.concatenate([store.get(f"v{i}").frames for i in range(3)])
        np.testing.assert_allclose(params.mean, pooled.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(params.std, pooled.std(axis=0), rtol=0, atol=1e-12)
        assert params.n_frames == 39
        assert params.floored_dims == ()
        transformed = params.apply(pooled)
        np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(transformed.std(axis=0), 1.0, atol=1e-12)

    def test_constant_dimension_is_floored(self, tmp_path):
        frames = np.ones((30, 3))
        frames[:, 2] = np.linspace(0.0, 1.0, 30)
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 3)
        writer.put(FeatureSequence("v", FeatureKind.EMBEDDING, frames))
        store = writer.seal()
        params = normalize(store, ["v"])
        assert params.floored_dims == (0, 1)
        assert params.std[0] == pytest.approx(np.sqrt(VARIANCE_FLOOR))
        assert np.all(np.isfinite(params.apply(frames)))

    def test_missing_source_and_round_trip(self, tmp_path):
        store = random_store(tmp_path / "f.avfs", ["a"], 4, np.random.default_rng(5))
        with pytest.raises(MissingSequenceError):
            normalize(store, ["a", "ghost"])
        with pytest.raises(FeatureStoreError):
            normalize(store, [])
        params = normalize(store, ["a"])
        back = NormalizationParams.from_dict(params.to_dict())
        np.testing.assert_array_equal(back.mean, params.mean)
        np.testing.assert_array_equal(back.std, params.std)
        assert back.floored_dims == params.floored_dims

    def test_identity_is_a_no_op(self):
        params = NormalizationParams(np.zeros(3), np.ones(3), (), 0)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(params.apply(x), x)


class TestCsvImport:
    def test_reads_frames(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        np.testing.assert_array_equal(import_frames_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_single_row_stays_2d(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1.0,2.0,3.0\n", encoding="utf-8")
        assert import_frames_csv(p).shape == (1, 3)

    def test_bad_values(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("1.0,oops\n", encoding="utf-8")
        with pytest.raises(FeatureStoreError):
            import_frames_csv(p)
        p.write_text("1.0,nan\n", encoding="utf-8")
        with pytest.raises(FeatureStoreError, match="non-finite"):
            import_frames_csv(p)
