"""Windowed cosine scoring: window grids, pair scores, mean embeddings and fusion."""

import csv
import dataclasses
import gc
import io
import itertools
import random

import numpy as np
import pytest

from avatarprint import files, protocol, scoring
from avatarprint.embedder import (
    AdjacencyGraph,
    EmbedderConfig,
    EmbedderError,
    GraphEncoderConfig,
    NonFiniteError,
    forward_batch,
    init_params,
)
from avatarprint.feature_store import (
    FeatureKind,
    FeatureSequence,
    FeatureStoreWriter,
    NormalizationParams,
)
from avatarprint.protocol import TRIAL_HEADER, TrialSet
from avatarprint.scoring import (
    FUSION_MODEL,
    ScoreRow,
    ScoreTable,
    ScoringError,
    gather_windows,
    mean_embeddings,
    read_score_table,
    score_pair,
    score_trials,
    video_window_embeddings,
    window_starts,
    write_score_table,
)

from helpers import double_loop_pair_score, random_store, trials_from_rows


def make_params(dim=6, window_len=8, seed=0, normalization=None):
    cfg = EmbedderConfig(
        input_dim=dim, heads=2, attention_dim=8, projection_dim=4,
        window_len=window_len, seed=seed,
    )
    return init_params(cfg, normalization)


def make_graph_params(nodes=3, window_len=8, seed=0, normalization=None):
    """A one-layer graph model over a path of ``nodes`` landmarks, with a
    random readout so that the nodes are not merely averaged."""
    graph = AdjacencyGraph(nodes, tuple((i, i + 1) for i in range(nodes - 1)))
    cfg = EmbedderConfig(
        input_dim=2 * nodes, heads=2, attention_dim=8, projection_dim=4,
        window_len=window_len, graph=GraphEncoderConfig(1, 6), seed=seed,
    )
    params = init_params(cfg, normalization, graph)
    params["graph.readout"][:] = np.random.default_rng(seed).normal(size=(nodes, 6))
    return params


class TestWindows:
    def test_start_grid(self):
        assert window_starts(10, 4) == [0, 2, 4, 6]
        assert window_starts(4, 4) == [0]
        assert window_starts(3, 4) == []
        assert window_starts(11, 4) == [0, 2, 4, 6]  # trailing frames dropped

    def test_count_formula(self):
        for window in range(2, 33, 2):
            stride = window // 2
            for frames in range(1, 65):
                starts = window_starts(frames, window)
                expected = 0 if frames < window else (frames - window) // stride + 1
                assert len(starts) == expected, (frames, window)

    def test_default_stride_is_half_window(self, tmp_path):
        rng = np.random.default_rng(12)
        store = random_store(tmp_path / "f.avfs", ["v20", "v5"], 6, rng, frames=(20, 20))
        short = random_store(tmp_path / "g.avfs", ["v5"], 6, rng, frames=(5, 5))
        params = make_params(window_len=8)
        frames = store.get("v20").frames
        z = video_window_embeddings(params, store, "v20")
        assert z.shape == (4, 4)  # windows start at 0, 4, 8, 12
        for row, start in zip(z, (0, 4, 8, 12)):
            z, _ = forward_batch(params, frames[start : start + 8][None])
            np.testing.assert_allclose(row, z[0], rtol=0, atol=1e-15)
        assert video_window_embeddings(params, short, "v5") is None

    def test_odd_window_rounds_the_stride_down(self):
        with pytest.raises(EmbedderError, match="even"):
            make_params(window_len=7)
        assert window_starts(20, 7) == [0, 3, 6, 9, 12]

    def test_bad_arguments(self):
        with pytest.raises(ScoringError):
            window_starts(10, 1)

    def test_gather_equals_slicing_at_window_starts(self):
        rng = np.random.default_rng(13)
        for window in (2, 4, 8, 16):
            for frames in range(1, 3 * window + 2):
                x = rng.normal(size=(frames, 3))
                starts = window_starts(frames, window)
                got = gather_windows(x, starts, window)
                assert got.shape == (len(starts), window, 3)
                assert got.flags.c_contiguous
                if starts:
                    want = np.stack([x[s : s + window] for s in starts])
                    np.testing.assert_array_equal(got, want)


class TestPairScore:
    def test_matches_double_loop_reference(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"v{i}" for i in range(8)]
        store = random_store(tmp_path / "f.avfs", ids, 6, rng, frames=(8, 30))
        params = make_params()
        for a, b in [("v0", "v1"), ("v2", "v7"), ("v3", "v3")]:
            za = video_window_embeddings(params, store, a)
            zb = video_window_embeddings(params, store, b)
            got = score_pair(params, store, a, b).score
            want = double_loop_pair_score(za, zb)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        store = random_store(tmp_path / "f.avfs", ["a", "b"], 6, rng, frames=(20, 40))
        params = make_params()
        assert score_pair(params, store, "a", "b").score == score_pair(params, store, "b", "a").score

    def test_short_video_is_unscorable(self, tmp_path):
        rng = np.random.default_rng(2)
        short_store = random_store(tmp_path / "g.avfs", ["short"], 6, rng, frames=(3, 3))
        ps = score_pair(make_params(), short_store, "short", "short")
        assert ps.score is None
        assert video_window_embeddings(make_params(), short_store, "short") is None

    def test_scores_stay_within_cosine_bounds(self, tmp_path):
        rng = np.random.default_rng(11)
        ids = [f"v{i}" for i in range(10)]
        store = random_store(tmp_path / "f.avfs", ids, 6, rng, frames=(8, 60))
        params = make_params()
        for _ in range(60):
            a, b = rng.choice(ids, size=2)
            s = score_pair(params, store, str(a), str(b)).score
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_normalization_travels_with_params(self, tmp_path):
        rng = np.random.default_rng(3)
        store = random_store(tmp_path / "f.avfs", ["a", "b"], 6, rng)
        norm = NormalizationParams(
            mean=np.full(6, 5.0), std=np.full(6, 2.0), floored_dims=(), n_frames=1
        )
        plain = score_pair(make_params(), store, "a", "b").score
        shifted = score_pair(make_params(normalization=norm), store, "a", "b").score
        assert plain != shifted


def _setup(tmp_path, n=5):
    rng = np.random.default_rng(6)
    ids = [f"v{i}" for i in range(n)]
    store = random_store(tmp_path / "f.avfs", ids, 6, rng)
    return ids, store


def trial_set(pairs) -> TrialSet:
    """Trials t00000001, t00000002, ... of (enroll, test, label) triples."""
    return trials_from_rows(
        [f"t{i:08d}", "CREMA-D", "GAGA", enroll, test, str(label)]
        for i, (enroll, test, label) in enumerate(pairs, 1)
    )


class TestFusion:
    def test_mean_of_models(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set((ids[i], ids[i + 1], i % 2) for i in range(4))
        models = {f"m{k}": (make_params(seed=k), store) for k in (1, 2, 3)}
        table = score_trials(models, trials)
        for i in range(0, len(table.rows), 4):
            per_model = [r.score for r in table.rows[i : i + 3]]
            assert table.rows[i + 3].model == FUSION_MODEL
            assert table.rows[i + 3].score == pytest.approx(np.mean(per_model), abs=1e-15)

    def test_any_unscorable_poisons_the_trial(self, tmp_path):
        rng = np.random.default_rng(9)
        store = random_store(tmp_path / "f.avfs", ["a", "b", "c"], 6, rng, frames=(12, 12))
        # 12 frames hold one 8-frame window but no 16-frame one
        models = {"short": (make_params(window_len=8), store),
                  "long": (make_params(window_len=16), store)}
        trials = trial_set([("a", "b", 1), ("a", "c", 0)])
        for zscore in (False, True):
            table = score_trials(models, trials, zscore_fusion=zscore)
            by_model = {(r.trial_id, r.model): r.score for r in table.rows}
            assert by_model[("t00000001", "short")] is not None
            assert by_model[("t00000001", "long")] is None
            assert by_model[("t00000001", FUSION_MODEL)] is None
            assert table.unscorable_trials == ["t00000001", "t00000002"]


class TestScoreTrials:
    def test_per_model_and_fusion_rows(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set([(ids[0], ids[1], 1), (ids[0], ids[2], 0)])
        models = {"m1": (make_params(seed=1), store), "m2": (make_params(seed=2), store)}
        table = score_trials(models, trials)
        assert [r.model for r in table.rows] == ["m1", "m2", "fusion"] * 2
        for i in (0, 3):
            fused = table.rows[i + 2].score
            assert fused == pytest.approx((table.rows[i].score + table.rows[i + 1].score) / 2)
        assert table.missing_videos == [] and table.unscorable_trials == []

    def test_rows_equal_score_pair_exactly(self, tmp_path):
        ids, store = _setup(tmp_path, n=7)
        rng = np.random.default_rng(8)
        trials = trial_set(
            (str(a), str(b), i % 2) for i, (a, b) in enumerate(rng.choice(ids, size=(40, 2)))
        )
        models = {"m1": (make_params(seed=1), store), "m2": (make_params(seed=2), store)}
        table = score_trials(models, trials)
        for row in table.rows:
            if row.model == FUSION_MODEL:
                continue
            params, _ = models[row.model]
            for a, b in ((row.enroll_video, row.test_video), (row.test_video, row.enroll_video)):
                assert score_pair(params, store, a, b).score == row.score

    def test_each_video_embedded_once_per_model(self, tmp_path, monkeypatch):
        ids, store = _setup(tmp_path, n=6)
        pairs = itertools.product(ids[:5], repeat=2)
        trials = trial_set((a, b, 0) for a, b in pairs)
        calls = []
        real = scoring.video_window_embeddings

        def counting(params, store, video_id, encoded):
            calls.append((params.config.seed, video_id))
            return real(params, store, video_id, encoded)

        monkeypatch.setattr(scoring, "video_window_embeddings", counting)
        models = {f"m{k}": (make_params(seed=k), store) for k in (1, 2)}
        score_trials(models, trials)
        # ids[5] is in no trial, so it is never embedded
        assert sorted(calls) == [(k, v) for k in (1, 2) for v in ids[:5]]

    def test_models_on_one_store_do_not_share_means(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set((ids[i], ids[i + 1], i % 2) for i in range(4))
        models = {f"m{k}": (make_params(seed=k), store) for k in (1, 2)}
        both = score_trials(models, trials)
        for name in models:
            alone = score_trials({name: models[name]}, trials)
            assert [r for r in both.rows if r.model == name] == alone.rows
        by_model = {m: [r.score for r in both.rows if r.model == m] for m in models}
        assert by_model["m1"] != by_model["m2"]
        assert not np.array_equal(mean_embeddings(*models["m1"], ids),
                                  mean_embeddings(*models["m2"], ids))

    def test_short_video_has_a_nan_mean(self, tmp_path):
        ids = [f"v{i}" for i in range(12)]
        store = random_store(tmp_path / "f.avfs", ids, 6, np.random.default_rng(10),
                             frames=(5, 12))
        means = mean_embeddings(make_params(window_len=8), store, ids)
        assert means.shape == (12, 4)
        short = [store.get(v).num_frames < 8 for v in ids]
        assert 0 < sum(short) < len(ids)
        for row, too_short in zip(means, short):
            assert np.isnan(row).all() if too_short else np.isfinite(row).all()

    def test_single_model_has_no_fusion_row(self, tmp_path):
        ids, store = _setup(tmp_path)
        table = score_trials(
            {"m": (make_params(), store)}, trial_set([(ids[0], ids[1], 1)])
        )
        assert [r.model for r in table.rows] == ["m"]

    def test_missing_video_skips_trial(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set([(ids[0], "ghost", 1), (ids[0], ids[1], 1)])
        table = score_trials({"m": (make_params(), store)}, trials)
        assert table.missing_videos == ["ghost"]
        assert [r.trial_id for r in table.rows] == ["t00000002"]

    def test_zscore_fusion_changes_only_fused_rows(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set([(ids[0], ids[1], 1), (ids[0], ids[2], 0), (ids[1], ids[3], 0)])
        models = {"m1": (make_params(seed=1), store), "m2": (make_params(seed=2), store)}
        plain = score_trials(models, trials, zscore_fusion=False)
        zed = score_trials(models, trials, zscore_fusion=True)
        for a, b in zip(plain.rows, zed.rows):
            if a.model == "fusion":
                assert a.score != b.score
            else:
                assert a.score == b.score

    def test_round_trip_csv(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set([(ids[0], ids[1], 1)])
        table = score_trials({"m": (make_params(), store)}, trials)
        write_score_table(table, tmp_path / "scores.csv")
        back = read_score_table(tmp_path / "scores.csv")
        assert back.rows == table.rows  # repr round trip keeps full precision

    def test_unscorable_round_trips_as_empty_field(self, tmp_path):
        table = ScoreTable(trial_set([("a", "b", 1)]), ["m"], [[np.nan]])
        write_score_table(table, tmp_path / "scores.csv")
        assert (tmp_path / "scores.csv").read_text().splitlines() == [
            "trial_id,dataset,generator,enroll_video,test_video,label,m",
            "t00000001,CREMA-D,GAGA,a,b,1,"]
        back = read_score_table(tmp_path / "scores.csv")
        assert back.rows[0].score is None and np.isnan(back.scores[0, 0])
        assert back.unscorable_trials == ["t00000001"]

    def test_read_table_shares_repeated_strings(self, tmp_path):
        ids, store = _setup(tmp_path)
        trials = trial_set((ids[0], ids[i + 1], i % 2) for i in range(3))
        models = {f"m{k}": (make_params(seed=k), store) for k in (1, 2)}
        write_score_table(score_trials(models, trials), tmp_path / "scores.csv")
        rows = read_score_table(tmp_path / "scores.csv").rows
        assert len(rows) == 3 * 3  # two models and fusion per trial
        seen: dict[str, str] = {}
        for row in rows:
            for value in (row.trial_id, row.enroll_video, row.test_video, row.model):
                assert seen.setdefault(value, value) is value

    def test_score_row_has_no_dict(self):
        row = ScoreRow("t1", "a", "b", 1, "m", 0.5)
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.score = 0.25

    def test_replace_changes_only_the_score(self):
        row = ScoreRow("t1", "a", "b", 1, "m", 0.5)
        changed = dataclasses.replace(row, score=0.25)
        assert changed == ScoreRow("t1", "a", "b", 1, "m", 0.25)
        assert changed != row and row.score == 0.5

    def test_columns_round_trip_and_rows_are_cached(self, tmp_path):
        ids, store = _setup(tmp_path, n=6)
        trials = trial_set((ids[i], ids[(i + 3) % 6], i % 2) for i in range(6))
        models = {f"m{k}": (make_params(seed=k), store) for k in (1, 2)}
        table = score_trials(models, trials, zscore_fusion=True)
        assert table.models == ("m1", "m2", FUSION_MODEL) and table.scores.shape == (3, 6)
        assert table.rows is table.rows
        write_score_table(table, tmp_path / "scores.csv")
        back = read_score_table(tmp_path / "scores.csv")
        assert back.trials == table.trials == trials and back.models == table.models
        assert back.scores.tobytes() == table.scores.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_write_matches_a_csv_writer_of_the_rows(self, tmp_path, monkeypatch, chunk_bytes):
        # ids, a condition and a model that need quoting, an unscorable trial
        # and the longest repr of a float64
        rows = [["t00000007", "CREMA-D", "GAGA", "v,1", 'v"2', "1"],
                ["t00000008", "RAV,DESS", "GAGA", "v3", "v,1", "0"],
                ["t00000012", "CREMA-D", "GAGA", 'v"2', "v3", "0"]]
        scores = [[0.1, np.nan, -1 / 3], [2.0, np.nan, -2.2250738585072014e-308]]
        table = ScoreTable(trials_from_rows(rows), ["a,b", FUSION_MODEL], scores)
        if chunk_bytes:
            monkeypatch.setattr(protocol, "CHUNK_BYTES", chunk_bytes)
        write_score_table(table, tmp_path / "scores.csv")
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow([*TRIAL_HEADER, *table.models])
        for row, trial_scores in zip(rows, zip(*scores)):
            writer.writerow([*row, *("" if s != s else repr(s) for s in trial_scores)])
        assert (tmp_path / "scores.csv").read_text(encoding="utf-8") == reference.getvalue()
        back = read_score_table(tmp_path / "scores.csv")
        assert back.trials == table.trials and back.rows == table.rows

    @pytest.mark.parametrize("models", [("g", "k", FUSION_MODEL), ("a,b", 'say "hi"', "é")],
                             ids=["plain", "quoted"])
    def test_model_names_round_trip(self, tmp_path, monkeypatch, models):
        table = ScoreTable(trial_set([("a", "b", 1), ("b", "a", 0)]), models,
                           [[0.5, np.nan], [-0.25, 1.0], [0.125, 2.0]])
        write_score_table(table, tmp_path / "scores.csv")
        if models[0] == "g":
            monkeypatch.setattr(files.csv, "reader", None)  # plain names are split at commas
        back = read_score_table(tmp_path / "scores.csv")
        assert back.models == models and back.rows == table.rows

    def test_a_table_without_trials_keeps_its_models(self, tmp_path):
        table = ScoreTable(trial_set([]), ["g", "k", FUSION_MODEL], np.empty((3, 0)))
        write_score_table(table, tmp_path / "scores.csv")
        back = read_score_table(tmp_path / "scores.csv")
        assert back.models == ("g", "k", FUSION_MODEL) and back.scores.shape == (3, 0)
        assert back.rows == []

    HEADER_LINE = "trial_id,dataset,generator,enroll_video,test_video,label,m1,m2\n"

    GOOD_ROWS = ["t00000001,CREMA-D,GAGA,a,b,1,0.5,", "t00000002,CREMA-D,GAGA,a,c,0,0.25,-0.5",
                 "t00000003,CREMA-D,LIVE,b,c,1,-1e-05,0.125"]

    # the trial columns' bad rows are test_protocol's, through the same reader
    BAD_ROWS = [
        (2, "t00000002,CREMA-D,GAGA,a,c,0,0.25", "short"),
        (3, "t00000003,CREMA-D,LIVE,b,c,1,-1e-05", "last-row-short"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,0.25,-0.5,x", "long"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,zero,-0.5", "score"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,nan,-0.5", "score-nan"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,inf,-0.5", "score-inf"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,-inf,-0.5", "score-minus-inf"),
        # row 1 leaves m2 empty: the text nan is still no score
        (2, "t00000002,CREMA-D,GAGA,a,c,0,0.25,nan", "score-nan-beside-empty"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,2_5,-0.5", "score-underscore"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,\u0663,-0.5", "score-non-ascii-digit"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0, 0.25,-0.5", "score-leading-space"),
        (2, "t00000002,CREMA-D,GAGA,a,c,0,0.25\t,-0.5", "score-trailing-tab"),
        (3, "t00000003,CREMA-D,LIVE,b,c,1,-1e-05,-1e999", "score-overflow"),
    ]

    @pytest.mark.parametrize("row,line,bad", BAD_ROWS)
    def test_reader_rejects_rows_out_of_layout(self, tmp_path, row, line, bad):
        rows = list(self.GOOD_ROWS)
        rows[row - 1] = line
        path = tmp_path / "scores.csv"
        path.write_text(self.HEADER_LINE + "".join(f"{r}\n" for r in rows))
        with pytest.raises(ScoringError, match=f"{path}: row {row} ") as err:
            read_score_table(path)
        assert bad and str(err.value).count("\n") == 0

    def test_reader_accepts_the_good_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.HEADER_LINE + "".join(f"{r}\n" for r in self.GOOD_ROWS))
        table = read_score_table(path)
        assert table.models == ("m1", "m2") and table.unscorable_trials == ["t00000001"]
        assert [r.score for r in table.rows] == [0.5, None, 0.25, -0.5, -1e-05, 0.125]
        empty = tmp_path / "empty.csv"
        empty.write_text(self.HEADER_LINE)
        assert read_score_table(empty).rows == []

    @pytest.mark.parametrize("header, row", [
        ("nope\n", "t00000001,CREMA-D,GAGA,a,b,1,0.5\n"),
        ("", ""),
        # a trial list: no model
        ("trial_id,dataset,generator,enroll_video,test_video,label\n",
         "t00000001,CREMA-D,GAGA,a,b,1\n"),
        ("trial_id,dataset,generator,enroll_video,test_video,label,m,k,m\n",
         "t00000001,CREMA-D,GAGA,a,b,1,0.5,0.25,0.5\n"),
        # the earlier layouts: a row per trial and model, then a row per trial
        ("trial_id,enroll_video,test_video,label,model,score\n", "t00000001,a,b,1,m,0.5\n"),
        ("trial_id,enroll_video,test_video,label,k\n", "t00000001,a,b,1,0.5\n"),
        ("trial_id,dataset,generator,enroll_video,test_video,score,m\n",
         "t00000001,CREMA-D,GAGA,a,b,1,0.5\n"),
    ], ids=["other", "empty", "trial-list", "repeated-model", "row-per-model-layout",
            "no-condition-layout", "no-label"])
    def test_bad_header_rejected(self, tmp_path, header, row):
        path = tmp_path / "scores.csv"
        path.write_text(header + row)
        with pytest.raises(ScoringError, match=f"^{path}: bad header "):
            read_score_table(path)

    def test_header_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"trial_id,dataset,generator,enroll_video,test_video,label,m\xff\n"
                         b"t00000001,CREMA-D,GAGA,a,b,1,0.5\n")
        with pytest.raises(ScoringError) as raised:
            read_score_table(path)
        assert str(raised.value) == f"{path}: line 1 is not UTF-8: invalid start byte"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_rows_leave_the_collector_as_found(self, monkeypatch, enabled):
        def table():
            return ScoreTable(trial_set([("a", "b", 1), ("b", "a", 0)]), ["m"], [[0.5, np.nan]])

        def broken(self, part):
            raise RuntimeError("no rows")

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert [r.score for r in table().rows] == [0.5, None]
            assert gc.isenabled() is enabled
            monkeypatch.setattr(ScoreTable, "_row_chunk", broken)
            with pytest.raises(RuntimeError):
                table().rows
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def _random_score_lines(trials, models, seed=0):
    """Lines as write_score_table writes them: non-ASCII video ids, an
    unscorable trial now and then, repr'd scores of every size."""
    rng = random.Random(seed)
    videos = ["v1", "v2", "vidéo", "日本語", "w" * 70]
    conditions = ["CREMA-D,GAGA", "CREMA-D,LIVE", "RAVDESS,GAGA"]
    lines = []
    for i in range(trials):
        head = (f"t{rng.randrange(1, 10**8):08d},{conditions[i // 7 % 3]},{rng.choice(videos)},"
                f"{rng.choice(videos)},{rng.choice('01')}")
        unscorable = rng.random() < 0.1
        scores = ["" if unscorable else repr(rng.uniform(-1, 1) * 10.0 ** rng.randrange(-300, 300))
                  for _ in models]
        lines.append(",".join([head, *scores]) + "\n")
    return lines


def _write_scores(path, lines, models):
    header = ",".join([*TRIAL_HEADER, *models])
    path.write_text(f"{header}\n" + "".join(lines), encoding="utf-8")
    return path


def _read_by_rows(path):
    """What read_score_table gives for a copy of ``path`` with \\r\\n line
    ends, which only the csv module splits: the table's columns, or the
    error type and the message, with ``path`` named in place of the copy."""
    copy = path.with_name(f"crlf-{path.name}")
    copy.write_bytes(path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\r\n"))
    outcome = _read_outcome(copy)
    if isinstance(outcome[0], TrialSet):
        return outcome
    return outcome[0], outcome[1].replace(str(copy), str(path))


def _read_outcome(path):
    try:
        table = read_score_table(path)
    except Exception as exc:  # noqa: BLE001 - compared whole
        return type(exc), str(exc)
    return table.trials, table.models, table.scores.tobytes()


class TestCanonicalTable:
    @pytest.mark.parametrize("chunk", [1, 37, 300, 1 << 16])
    @pytest.mark.parametrize("trials,models", [(0, ("g", "k", FUSION_MODEL)), (1, ("m",)),
                                               (1, ("b", "a", "c")), (150, ("m",)),
                                               (150, ("g", "k", FUSION_MODEL))])
    def test_columns_equal_the_row_reader(self, tmp_path, monkeypatch, chunk, trials, models):
        path = _write_scores(tmp_path / "scores.csv", _random_score_lines(trials, models, trials),
                             models)
        expected = _read_by_rows(path)
        assert isinstance(expected[0], TrialSet) and expected[1] == models
        monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
        monkeypatch.setattr(files.csv, "reader", None)  # the csv module never reads it
        assert _read_outcome(path) == expected

    @pytest.mark.parametrize("row,line,bad", TestScoreTrials.BAD_ROWS)
    @pytest.mark.parametrize("chunk", [1, 37, 300, 1 << 16])
    def test_late_bad_row_gives_the_row_readers_error(self, tmp_path, monkeypatch, row, line, bad,
                                                      chunk):
        rows = list(TestScoreTrials.GOOD_ROWS)
        rows[row - 1] = line
        prefix = _random_score_lines(150, ("m1", "m2"))
        path = _write_scores(tmp_path / "scores.csv", prefix + [f"{r}\n" for r in rows],
                             ("m1", "m2"))
        expected = _read_by_rows(path)
        assert expected[0] is ScoringError and f"{path}: row {row + 150} " in expected[1]
        monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
        assert _read_outcome(path) == expected

    @pytest.mark.parametrize("change", ["quoted", "crlf", "no-final-newline", "blank-last"])
    def test_other_files_fall_back_to_the_row_reader(self, tmp_path, change):
        lines = _random_score_lines(100, ("m1", "m2"))
        if change == "quoted":
            lines[75] = 't00000009,CREMA-D,GAGA,"say ""hi""","a,b",1,0.5,\n'
        path = _write_scores(tmp_path / "scores.csv", lines, ("m1", "m2"))
        text = path.read_bytes()
        path.write_bytes({"quoted": text, "crlf": text.replace(b"\n", b"\r\n"),
                          "no-final-newline": text[:-1], "blank-last": text + b"\n"}[change])
        expected = _read_by_rows(path)
        assert _read_outcome(path) == expected
        if change == "blank-last":
            assert expected[0] is ScoringError and "row 101 " in expected[1]
        else:
            assert isinstance(expected[0], TrialSet)
            if change == "quoted":
                assert 'say "hi"' in expected[0].videos

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        lines = [f"t{i:08d},CREMA-D,GAGA,a{i},b,1,0.5\n" for i in range(1, 2001)]
        path = _write_scores(tmp_path / "scores.csv", lines, ("m",))
        path.write_bytes(path.read_bytes().replace(b",a1500,", b",a\xff,"))
        with pytest.raises(ScoringError) as raised:
            read_score_table(path)
        assert str(raised.value) == f"{path}: line 1501 is not UTF-8: invalid start byte"


class TestChunks:
    """``mean_embeddings`` encodes the frames of many videos at once, in
    chunks of ``SCORE_FRAMES`` or a video more."""

    @pytest.mark.parametrize("make", [make_params, make_graph_params], ids=["kinematic", "graph"])
    def test_chunked_videos_equal_each_video_alone(self, tmp_path, make):
        rng = np.random.default_rng(21)
        ids = [f"v{i:02d}" for i in range(80)]
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 6)
        for i, vid in enumerate(ids):  # every seventh video is shorter than a window
            frames = rng.normal(size=(7 if i % 7 == 3 else int(rng.integers(8, 150)), 6))
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, frames, 30.0))
        store = writer.seal()
        norm = NormalizationParams(mean=np.full(6, 0.25), std=np.full(6, 1.5),
                                   floored_dims=(), n_frames=1)
        params = make(normalization=norm)
        windowed = [window_starts(store.get(v).num_frames, 8) for v in ids]
        assert sum(s[-1] + 8 for s in windowed if s) > 2 * scoring.SCORE_FRAMES
        assert not all(windowed)  # some videos have no window and stay NaN

        means = mean_embeddings(params, store, ids)
        for vid, row in zip(ids, means):
            np.testing.assert_array_equal(row, mean_embeddings(params, store, [vid])[0])
        pairs = rng.choice(ids, size=(80, 2))
        table = score_trials({"m": (params, store)},
                             trial_set((str(a), str(b), i % 2) for i, (a, b) in enumerate(pairs)))
        assert table.scores.shape == (1, 80) and not np.isnan(table.scores).all()
        for row in table.rows:
            assert score_pair(params, store, row.enroll_video, row.test_video).score == row.score

    def test_unencoded_video_equals_its_chunked_windows(self, tmp_path):
        rng = np.random.default_rng(22)
        store = random_store(tmp_path / "f.avfs", ["a", "b"], 6, rng, frames=(37, 37))
        params = make_graph_params()
        alone = video_window_embeddings(params, store, "b")
        assert alone.shape == (8, 4)  # 37 frames: windows at 0, 4, ..., 28
        z = alone / np.linalg.norm(alone, axis=1, keepdims=True)
        np.testing.assert_array_equal(mean_embeddings(params, store, ["a", "b"])[1], z.mean(axis=0))

    def test_non_finite_logits_name_the_model_and_video(self, tmp_path):
        ids, store = _setup(tmp_path)
        broken = make_params(seed=1)
        broken["attn.query"][:] = 1e308
        models = {"fine": (make_params(seed=2), store), "m": (broken, store)}
        with pytest.raises(NonFiniteError,
                           match=r"^non-finite value in attention_logits: model 'm', video 'v1'$"):
            score_trials(models, trial_set([(ids[2], ids[1], 1)]))

    def test_non_finite_descriptors_name_the_first_video_at_fault(self, tmp_path):
        rng = np.random.default_rng(23)
        writer = FeatureStoreWriter(tmp_path / "f.avfs", FeatureKind.EMBEDDING, 6)
        for vid in ("a", "b", "c", "d"):
            frames = rng.uniform(-0.01, 0.01, size=(20, 6))
            if vid in ("c", "d"):  # every node saturates tanh the same way
                frames[7] = 50.0
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, frames, 30.0))
        store = writer.seal()
        params = make_graph_params()
        params["graph.readout"][:] = 1e308  # the sum over 3 saturated nodes overflows
        trials = trial_set([("a", "b", 1), ("a", "d", 0), ("c", "b", 0)])
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^non-finite value in graph_encoder: model 'g', video 'c'$"):
            score_trials({"g": (params, store)}, trials)
