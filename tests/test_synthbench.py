"""Synthetic corpus generation and the shift transforms it renders through."""

import numpy as np
import pytest

from avatarprint.catalog import Dataset, Generator
from avatarprint.synthbench import (
    MIN_SIGNATURE_DISTANCE,
    ShiftTransform,
    SynthError,
    _video_rng,
    make_signatures,
    shift_frames,
    synth_corpus,
)


class TestSignatures:
    def test_deterministic_given_seed(self):
        a = make_signatures(4, 6, np.random.SeedSequence(1))
        b = make_signatures(4, 6, np.random.SeedSequence(1))
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.freqs, t.freqs)
            np.testing.assert_array_equal(s.mixing, t.mixing)

    def test_minimum_pairwise_distance(self):
        sigs = make_signatures(6, 8, np.random.SeedSequence(2))
        for i, s in enumerate(sigs):
            for t in sigs[i + 1:]:
                assert s.distance(t) >= MIN_SIGNATURE_DISTANCE

    def test_trajectory_shape_and_offset(self):
        (sig,) = make_signatures(1, 5, np.random.SeedSequence(3))
        traj = sig.trajectory(40, 0.0)
        assert traj.shape == (40, 5)
        assert not np.array_equal(traj, sig.trajectory(40, 0.5))


class TestShiftTransform:
    def test_identity_transform_is_an_exact_no_op(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(30, 4))
        out = shift_frames(frames, ShiftTransform(), rng)
        np.testing.assert_array_equal(out, frames)

    def test_smoothing_damps_frame_to_frame_motion(self):
        rng = np.random.default_rng(6)
        frames = rng.normal(size=(200, 3))
        smooth = ShiftTransform(smoothing_width=7)
        out = shift_frames(frames, smooth, rng)
        assert out.shape == frames.shape
        assert np.diff(out, axis=0).std() < 0.5 * np.diff(frames, axis=0).std()

    def test_style_vector_depends_only_on_its_seed(self):
        a = ShiftTransform(style_bias=0.5, style_seed=3)
        b = ShiftTransform(style_bias=0.5, style_seed=3, smoothing_width=9)
        c = ShiftTransform(style_bias=0.5, style_seed=4)
        np.testing.assert_array_equal(a.style_vector(6), b.style_vector(6))
        assert not np.array_equal(a.style_vector(6), c.style_vector(6))
        np.testing.assert_array_equal(ShiftTransform().style_vector(4), np.zeros(4))

    def test_amplitude_rescale(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(50, 3))
        out = shift_frames(frames, ShiftTransform(amplitude_rescale=0.6), rng)
        np.testing.assert_allclose(out, 0.6 * frames, rtol=1e-12)

    def test_frame_range_redraws_lengths(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(40, 3))
        out = shift_frames(frames, ShiftTransform(frame_range=(95, 120)), rng)
        assert 95 <= out.shape[0] <= 120
        # resampling interpolates, so endpoints survive exactly
        np.testing.assert_allclose(out[0], frames[0], atol=1e-12)
        np.testing.assert_allclose(out[-1], frames[-1], atol=1e-12)


class TestVideoRng:
    def test_keyed_by_seed_video_and_purpose(self):
        base = _video_rng(1, "vid", 3).normal(size=4)
        np.testing.assert_array_equal(base, _video_rng(1, "vid", 3).normal(size=4))
        assert not np.array_equal(base, _video_rng(1, "vid", 4).normal(size=4))
        assert not np.array_equal(base, _video_rng(2, "vid", 3).normal(size=4))
        assert not np.array_equal(base, _video_rng(1, "other", 3).normal(size=4))


SMALL = dict(n_identities=4, videos_per_id=2, frames=(30, 36), dim=6, seed=21,
             generators=(Generator.GAGA, Generator.LIVE), targets_per_driver=1,
             clips_per_driver=1, eval_fraction=0.5)


class TestSynthCorpus:
    def test_fixture_shape(self, corpus_small):
        corpus = corpus_small
        assert len(corpus.split.evaluation) == 4
        assert len(corpus.split.development) == 4
        assert len(corpus.catalog.identities) == 8
        selfs = [v for v in corpus.catalog.videos() if v.is_self]
        assert len(selfs) == 8 * 5 * 2  # ids x clips x generators
        for v in corpus.catalog.videos():
            assert v.video_id in corpus.store

    def test_files_on_disk(self, corpus_small):
        root = corpus_small.root
        for name in ("identities.csv", "videos.csv", "split.json", "features.avfs"):
            assert (root / name).exists()

    def test_cross_videos_respect_the_split(self, corpus_small):
        split = corpus_small.split
        for v in corpus_small.catalog.videos():
            if not v.is_self:
                assert split.side_of(v.driver) == split.side_of(v.target)

    def test_same_seed_reproduces_the_store_bytes(self, tmp_path):
        kwargs = dict(n_identities=4, videos_per_id=2, frames=(30, 36), dim=6,
                      seed=21, targets_per_driver=1, clips_per_driver=1,
                      eval_fraction=0.5)
        a = synth_corpus(tmp_path / "a", **kwargs)
        b = synth_corpus(tmp_path / "b", **kwargs)
        assert a.store_path.read_bytes() == b.store_path.read_bytes()
        assert (a.root / "videos.csv").read_bytes() == (b.root / "videos.csv").read_bytes()
        c = synth_corpus(tmp_path / "c", **{**kwargs, "seed": 22})
        assert a.store_path.read_bytes() != c.store_path.read_bytes()

    def test_same_seed_reproduces_the_two_dataset_store_bytes(self, tmp_path):
        kwargs = {**SMALL, "dataset": (Dataset.CREMA_D, Dataset.RAVDESS)}
        a = synth_corpus(tmp_path / "a", **kwargs)
        b = synth_corpus(tmp_path / "b", **kwargs)
        assert a.store_path.read_bytes() == b.store_path.read_bytes()
        assert (a.root / "videos.csv").read_bytes() == (b.root / "videos.csv").read_bytes()
        c = synth_corpus(tmp_path / "c", **{**kwargs, "seed": 22})
        assert a.store_path.read_bytes() != c.store_path.read_bytes()

    def test_later_dataset_videos_have_redrawn_lengths(self, tmp_path):
        corpus = synth_corpus(tmp_path, **SMALL, dataset=(Dataset.CREMA_D, Dataset.RAVDESS))
        lengths = {ds: {corpus.store.get(v.video_id).frames.shape[0]
                        for v in corpus.catalog.videos(dataset=ds)} for ds in Dataset}
        assert min(lengths[Dataset.CREMA_D]) >= 30 and max(lengths[Dataset.CREMA_D]) <= 36
        assert min(lengths[Dataset.RAVDESS]) >= 95 and max(lengths[Dataset.RAVDESS]) <= 120
        assert len(lengths[Dataset.RAVDESS]) > 1

    def test_first_dataset_is_the_single_dataset_corpus(self, tmp_path):
        single = synth_corpus(tmp_path / "one", **SMALL)
        both = synth_corpus(tmp_path / "two", **SMALL, dataset=(Dataset.CREMA_D, Dataset.RAVDESS))
        assert both.catalog.datasets() == [Dataset.CREMA_D, Dataset.RAVDESS]
        for name in ("identities.csv", "videos.csv"):
            one_rows = (single.root / name).read_text().splitlines()
            two_rows = (both.root / name).read_text().splitlines()
            assert [r for r in two_rows if ",RAVDESS," not in r] == one_rows
            assert len(two_rows) > len(one_rows)
        crema = both.catalog.identity_ids(Dataset.CREMA_D)
        assert crema == single.catalog.identity_ids(Dataset.CREMA_D)
        assert [both.split.side_of(i) for i in crema] == [single.split.side_of(i) for i in crema]
        ids = sorted(v.video_id for v in single.catalog.videos())
        assert ids == sorted(v.video_id for v in both.catalog.videos(dataset=Dataset.CREMA_D))
        for vid in ids:
            np.testing.assert_array_equal(both.store.get(vid).frames, single.store.get(vid).frames)

    def test_same_identity_videos_share_their_signature(self, corpus_small):
        corpus = corpus_small
        ids = sorted(corpus.split.development)[:3]
        gen = Generator.GAGA.value.lower()

        def sig_of(ident, clip):
            frames = corpus.store.get(f"{gen}_{ident}_{ident}_c{clip:03d}").frames
            return frames.std(axis=0)  # per-dimension spread

        within, between = [], []
        for ident in ids:
            within.append(np.linalg.norm(sig_of(ident, 0) - sig_of(ident, 1)))
            for other in ids:
                if other != ident:
                    between.append(np.linalg.norm(sig_of(ident, 0) - sig_of(other, 0)))
        assert np.mean(within) < np.mean(between)

    def test_validation(self, tmp_path):
        with pytest.raises(SynthError, match="at least 2"):
            synth_corpus(tmp_path, n_identities=1)
        with pytest.raises(SynthError, match="frame range"):
            synth_corpus(tmp_path, frames=(50, 40))
        with pytest.raises(SynthError, match="generator"):
            synth_corpus(tmp_path, generators=())
        with pytest.raises(SynthError, match="dataset"):
            synth_corpus(tmp_path, dataset=())
        with pytest.raises(SynthError, match="repeated dataset"):
            synth_corpus(tmp_path, dataset=(Dataset.RAVDESS, Dataset.RAVDESS))
        with pytest.raises(SynthError, match="repeated generator"):
            synth_corpus(tmp_path, generators=(Generator.LIVE, Generator.LIVE))
        assert not any(tmp_path.iterdir())

    def test_negative_noise_rejected(self, tmp_path):
        with pytest.raises(SynthError, match=">= 0"):
            synth_corpus(tmp_path, noise_sigma=-0.1)
        assert not any(tmp_path.iterdir())

    def test_generator_column_uses_requested_generators(self, corpus_small):
        gens = {v.generator for v in corpus_small.catalog.videos()}
        assert gens == {Generator.GAGA, Generator.LIVE}
        assert {v.dataset for v in corpus_small.catalog.videos()} == {Dataset.CREMA_D}
