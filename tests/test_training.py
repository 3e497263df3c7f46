"""Triplet training loop: convergence, determinism and failure modes."""

import warnings
from dataclasses import asdict

import numpy as np
import pytest

from avatarprint import training
from avatarprint.embedder import EmbedderConfig, forward_batch
from avatarprint.feature_store import (
    FeatureKind,
    FeatureSequence,
    FeatureStore,
    FeatureStoreWriter,
    NormalizationParams,
    normalize,
)
from avatarprint.scoring import gather_windows, window_starts
from avatarprint.training import (
    Adam,
    EpochStats,
    NoValidTripletError,
    TrainHyper,
    TrainingDiverged,
    TrainingError,
    TrainingLog,
    _collect_windows,
    _make_probe,
    _mine,
    probe_loss,
    train,
)

from helpers import (
    random_model,
    random_store,
    reference_mine,
    tiny_catalog,
    traced_peak,
    training_shaped_graph_model,
)


def small_config(seed=5):
    return EmbedderConfig(
        input_dim=12, heads=2, attention_dim=8, projection_dim=6,
        window_len=16, seed=seed,
    )


def small_hyper(**overrides):
    base = dict(lr=1e-3, batch=16, epochs=4, margin=0.2,
                mining="semi-hard", windows_per_identity=4)
    base.update(overrides)
    return TrainHyper(**base)


class TestHyper:
    def test_valid_defaults(self):
        TrainHyper()

    def test_unknown_mining(self):
        with pytest.raises(TrainingError, match="mining"):
            TrainHyper(mining="easy")

    def test_batch_divisibility(self):
        with pytest.raises(TrainingError, match="multiple"):
            TrainHyper(batch=10, windows_per_identity=4)

    def test_windows_per_identity_floor(self):
        with pytest.raises(TrainingError, match=">= 2"):
            TrainHyper(batch=4, windows_per_identity=1)

    def test_needs_two_identities_per_batch(self):
        with pytest.raises(TrainingError, match=">= 2 identities"):
            TrainHyper(batch=4, windows_per_identity=4)

    def test_scalar_ranges(self):
        for bad in (dict(lr=0.0), dict(epochs=0), dict(margin=-0.1)):
            with pytest.raises(TrainingError):
                TrainHyper(**bad)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        opt = Adam(2, lr=0.1)
        flat = np.array([1.0, 1.0])
        opt.step(flat, np.array([1.0, -1.0]))
        np.testing.assert_allclose(flat, [0.9, 1.1], rtol=1e-6)

    def test_zero_gradient_is_a_no_op(self):
        opt = Adam(3, lr=0.1)
        flat = np.ones(3)
        opt.step(flat, np.zeros(3))
        np.testing.assert_array_equal(flat, np.ones(3))


class TestMine:
    @staticmethod
    def _cases(count):
        """Tie-heavy integer distance matrices; identities 0-3 may have a
        single window or none."""
        rng = np.random.default_rng(11)
        for _ in range(count):
            n = int(rng.integers(3, 13))
            labels = rng.integers(0, 4, size=n)
            if np.unique(labels).size < 2:
                labels[0] = (labels[1] + 1) % 4
            d2 = rng.integers(0, 4, size=(n, n)).astype(np.float64)
            yield d2, labels

    @pytest.mark.parametrize("mining", ["semi-hard", "hardest"])
    def test_matches_per_anchor_loop(self, mining):
        singles = 0
        for d2, labels in self._cases(2000):
            pos, neg = _mine(d2, labels, mining, np.random.default_rng(0))
            ref_pos, ref_neg = reference_mine(d2, labels, mining, None)
            np.testing.assert_array_equal(pos, ref_pos)
            np.testing.assert_array_equal(neg, ref_neg)
            singles += int(np.any(np.bincount(labels) == 1))
        assert singles > 100  # single-window identities were covered

    def test_random_draws_valid_candidates(self):
        for d2, labels in self._cases(300):
            n = labels.size
            pos, neg = _mine(d2, labels, "random", np.random.default_rng(n))
            for i in range(n):
                own = np.flatnonzero(labels == labels[i])
                assert pos[i] == i if own.size == 1 else (pos[i] != i and labels[pos[i]] == labels[i])
                assert labels[neg[i]] != labels[i]

    def test_random_reaches_every_candidate(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        d2 = np.zeros((6, 6))
        rng = np.random.default_rng(3)
        pairs = {tuple(x) for _ in range(200) for x in zip(*_mine(d2, labels, "random", rng))}
        assert {(p, q) for p, q in pairs if p in (1, 2)} == {(p, q) for p in (1, 2) for q in (3, 4, 5)}


def stacked_windows(store, catalog, dev_ids, window_len, normalization):
    """Every training window as one stacked (N, F, D) tensor with its driver:
    the per-video slicing that a frame matrix and window starts replace."""
    windows, drivers = [], []
    videos = [v for v in catalog.videos() if v.driver in dev_ids and v.target in dev_ids]
    for video in sorted(videos, key=lambda v: v.video_id):
        frames = normalization.model_input(store.get(video.video_id).frames)
        for start in window_starts(frames.shape[0], window_len):
            windows.append(frames[start : start + window_len])
            drivers.append(video.driver)
    return np.stack(windows), drivers


class TestCollectWindows:
    def _setup(self, tmp_path):
        catalog = tiny_catalog(n_ids=4, clips=3, cross_per_driver=2)
        vids = [v.video_id for v in catalog.videos()]
        # 10-40 frames against 16-frame windows: some videos hold none
        store = random_store(tmp_path / "f.avfs", vids, 12, np.random.default_rng(4),
                             frames=(10, 40))
        dev = {"id00", "id01", "id02", "id03"}
        return store, catalog, dev, normalize(store, vids)

    def test_frames_and_starts_reproduce_stacked_slices(self, tmp_path):
        store, catalog, dev, norm = self._setup(tmp_path)
        assert any(store.get(v).num_frames < 16 for v in store.ids())
        frames, starts, labels, names, _ = _collect_windows(store, catalog, dev, 16)
        want, drivers = stacked_windows(store, catalog, dev, 16, norm)
        got = gather_windows(frames, starts, 16)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert [names[i] for i in labels] == drivers

    def test_probe_indices_draw_the_old_probe(self, tmp_path):
        store, catalog, dev, norm = self._setup(tmp_path)
        frames, starts, labels, _, _ = _collect_windows(store, catalog, dev, 16)
        windows = gather_windows(frames, starts, 16)
        # the probe as drawn from materialized windows, same calls on the rng
        rng = np.random.default_rng(21)
        want = [[], [], []]
        present = np.unique(labels)
        for _ in range(32):
            label = rng.choice(present)
            own = np.flatnonzero(labels == label)
            other = np.flatnonzero(labels != label)
            a = rng.choice(own)
            p = rng.choice(own[own != a]) if own.size > 1 else a
            want[2].append(windows[rng.choice(other)])
            want[0].append(windows[a])
            want[1].append(windows[p])
        triplets = _make_probe(labels, 32, np.random.default_rng(21))
        np.testing.assert_array_equal(
            gather_windows(frames, starts[triplets.ravel()], 16),
            np.concatenate([np.stack(w) for w in want]),
        )

    def test_normalization_equals_the_streaming_fit(self, tmp_path):
        store, catalog, dev, norm = self._setup(tmp_path)
        assert any(store.get(v).num_frames < 16 for v in store.ids())  # they count in the fit
        *_, fitted = _collect_windows(store, catalog, dev, 16)
        np.testing.assert_array_equal(fitted.mean, norm.mean)
        np.testing.assert_array_equal(fitted.std, norm.std)
        assert (fitted.floored_dims, fitted.n_frames) == (norm.floored_dims, norm.n_frames)

    def test_frames_beyond_float32_name_the_first_video(self, tmp_path, monkeypatch):
        # a fit over the frames it normalizes bounds each by √frames, so only
        # a normalization from elsewhere can overflow float32: a stand-in with
        # every dimension floored (std 1e-4) turns a stored 1e35 into 1e39
        catalog = tiny_catalog(n_ids=4, clips=3, cross_per_driver=2)
        vids = sorted(v.video_id for v in catalog.videos())
        rng = np.random.default_rng(5)
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 12)
        for i, vid in enumerate(vids):
            frames = rng.normal(size=(40, 12))
            if i in (3, 7):
                frames[9, 4] = 1e35
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, frames, 30.0))
        store = writer.seal()
        floored = NormalizationParams(mean=np.zeros(12), std=np.full(12, 1e-4),
                                      floored_dims=tuple(range(12)), n_frames=1)
        monkeypatch.setattr(training, "fit_normalization", lambda dim, passes: floored)
        dev = {"id00", "id01", "id02", "id03"}
        want = rf"^video {vids[3]!r}: normalized frames overflow float32$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast warns of nothing
            with pytest.raises(TrainingError, match=want):
                _collect_windows(store, catalog, dev, 16)
            with pytest.raises(TrainingError, match=want):  # not TrainingDiverged
                train(store, catalog, dev, small_config(), small_hyper())


class TestProbeLoss:
    @staticmethod
    def forward_batch_loss(params, probe, margin):
        """The probe loss from ``forward_batch`` embeddings, the stateful
        path training steps take."""
        z, _ = forward_batch(params, probe)
        n = probe.shape[0] // 3
        za, zp, zn = z[:n], z[n : 2 * n], z[2 * n :]
        terms = np.sum((za - zp) ** 2, axis=1) - np.sum((za - zn) ** 2, axis=1) + margin
        return float(np.maximum(terms, 0.0).mean())

    @pytest.mark.parametrize("model", ["kinematic", "graph-1-layer", "graph-training-shaped"])
    def test_equals_forward_batch_loss_bitwise(self, model):
        rng = np.random.default_rng(80)
        if model == "graph-training-shaped":
            params = training_shaped_graph_model(rng)
        else:
            params = random_model(rng, model != "kinematic")
        cfg = params.config
        # at least 480 frames: several graph blocks
        probe = rng.normal(size=(3 * 40, cfg.window_len, cfg.input_dim))
        for margin in (0.2, 5.0):
            assert probe_loss(params, probe, margin) == self.forward_batch_loss(params, probe,
                                                                                margin)

    def test_keeps_no_backward_state(self):
        # 192 windows of 32 frames: less than one (frames, nodes, hidden) array
        rng = np.random.default_rng(81)
        params = training_shaped_graph_model(rng)
        probe = rng.normal(size=(192, 32, 32))
        frame_node_bytes = 8 * (192 * 32) * 16 * 32  # float64
        assert traced_peak(probe_loss, params, probe, 0.2) < frame_node_bytes


class TestTrain:
    def _dev_ids(self, corpus):
        return sorted(corpus.split.development)

    def test_probe_loss_decreases(self, corpus_small):
        params, log = train(
            corpus_small.store, corpus_small.catalog, self._dev_ids(corpus_small),
            small_config(), small_hyper(epochs=6),
        )
        assert len(log.epochs) == 6
        assert np.isfinite(log.initial_probe_loss)
        assert log.epochs[-1].probe_loss < log.initial_probe_loss
        assert not log.diverged

    def test_same_seed_reproduces_parameters_bitwise(self, corpus_small):
        args = (corpus_small.store, corpus_small.catalog, self._dev_ids(corpus_small))
        p1, log1 = train(*args, small_config(seed=9), small_hyper(epochs=2))
        p2, log2 = train(*args, small_config(seed=9), small_hyper(epochs=2))
        np.testing.assert_array_equal(p1.flat, p2.flat)
        assert asdict(log1) == asdict(log2)

    def test_different_seed_differs(self, corpus_small):
        args = (corpus_small.store, corpus_small.catalog, self._dev_ids(corpus_small))
        p1, _ = train(*args, small_config(seed=9), small_hyper(epochs=1))
        p2, _ = train(*args, small_config(seed=10), small_hyper(epochs=1))
        assert not np.array_equal(p1.flat, p2.flat)

    def test_reads_each_development_video_once(self, corpus_small, monkeypatch):
        dev = self._dev_ids(corpus_small)
        reads = []
        real_get = FeatureStore.get
        monkeypatch.setattr(FeatureStore, "get",
                            lambda store, vid: reads.append(vid) or real_get(store, vid))
        train(corpus_small.store, corpus_small.catalog, dev, small_config(),
              small_hyper(epochs=1))
        dev_videos = [v.video_id for v in corpus_small.catalog.videos()
                      if v.driver in dev and v.target in dev]
        assert sorted(reads) == sorted(dev_videos)

    def test_normalization_fitted_when_missing(self, corpus_small):
        params, _ = train(
            corpus_small.store, corpus_small.catalog, self._dev_ids(corpus_small),
            small_config(), small_hyper(epochs=1),
        )
        assert params.normalization is not None
        assert params.normalization.n_frames > 0

    def test_single_identity_has_no_triplets(self, corpus_small):
        lone = [self._dev_ids(corpus_small)[0]]
        with pytest.raises(NoValidTripletError):
            train(corpus_small.store, corpus_small.catalog, lone,
                  small_config(), small_hyper(epochs=1))

    def test_missing_features_reported(self, tmp_path):
        catalog = tiny_catalog(n_ids=3, clips=2, cross_per_driver=0)
        vids = [v.video_id for v in catalog.videos()]
        store = random_store(tmp_path / "f.avfs", vids[:-1], 12, np.random.default_rng(0))
        with pytest.raises(TrainingError, match="lack stored features"):
            train(store, catalog, ["id00", "id01", "id02"],
                  small_config(), small_hyper(epochs=1))

    def test_all_videos_too_short(self, tmp_path):
        catalog = tiny_catalog(n_ids=3, clips=2, cross_per_driver=0)
        vids = [v.video_id for v in catalog.videos()]
        store = random_store(tmp_path / "f.avfs", vids, 12,
                             np.random.default_rng(0), frames=(4, 8))
        with pytest.raises(TrainingError, match="shorter than one window"):
            train(store, catalog, ["id00", "id01", "id02"],
                  small_config(), small_hyper(epochs=1))

    def test_divergence_carries_last_good_checkpoint(self, corpus_small):
        with pytest.raises(TrainingDiverged) as err:
            train(
                corpus_small.store, corpus_small.catalog, self._dev_ids(corpus_small),
                small_config(), small_hyper(lr=1e190, margin=1.0, epochs=3),
            )
        exc = err.value
        assert exc.log.diverged
        assert np.all(np.isfinite(exc.params.flat))
        assert np.max(np.abs(exc.params.flat)) < 10.0  # the pre-blow-up weights


class TestTrainingLog:
    def test_asdict_shape(self):
        log = TrainingLog(steps_per_epoch=3, num_windows=120, num_identities=4,
                          initial_probe_loss=0.5, epochs=[EpochStats(1, 0.4, 0.25, 0.3)])
        d = asdict(log)
        assert d["steps_per_epoch"] == 3
        assert d["epochs"] == [{"epoch": 1, "mean_loss": 0.4, "active_fraction": 0.25,
                                "probe_loss": 0.3}]
        assert set(d) == {
            "steps_per_epoch", "num_windows", "num_identities",
            "initial_probe_loss", "diverged", "epochs",
        }
