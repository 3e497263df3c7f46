"""Command-line interface: argument handling, exit codes and the runner."""

import errno
import itertools
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from avatarprint import evaluation, scoring
from avatarprint.catalog import save_manifest
from avatarprint.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from avatarprint.feature_store import FeatureStore
from avatarprint.protocol import load_trials
from avatarprint.scoring import read_score_table


@pytest.fixture(scope="module")
def benchmark_manifest(benchmark_cat, tmp_path_factory):
    catalog, _ = benchmark_cat
    root = tmp_path_factory.mktemp("manifest")
    save_manifest(catalog, root / "identities.csv", root / "videos.csv")
    return root


def write_config(path, corpus, experiments=(), epochs=2, extra_models=()):
    """Minimal runnable config JSON with absolute paths."""
    model = {
        "name": "m",
        "store": str(corpus.store_path),
        "embedder": {"heads": 2, "attention_dim": 8, "projection_dim": 6,
                     "window_len": 16},
        "hyper": {"epochs": epochs, "batch": 16, "windows_per_identity": 4},
    }
    payload = {
        "seed": 11,
        "run_id": "testrun",
        "output_root": "runs",
        "identities": str(corpus.root / "identities.csv"),
        "videos": str(corpus.root / "videos.csv"),
        "split": str(corpus.root / "split.json"),
        "models": [model, *extra_models],
        "experiments": list(experiments),
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


INTRA_GAGA = {
    "scenario": "intra",
    "train_dataset": "CREMA-D",
    "train_generator": "GAGA",
    "eval_dataset": "CREMA-D",
    "eval_generators": ["GAGA"],
}
CROSS_TO_LIVE = {
    "scenario": "cross_generator",
    "train_dataset": "CREMA-D",
    "train_generator": "GAGA",
    "eval_dataset": "CREMA-D",
    "eval_generators": ["LIVE"],
}
INTRA_LIVE = {**INTRA_GAGA, "train_generator": "LIVE", "eval_generators": ["LIVE"]}


ABSENT = object()  # a config key left out, where None is a JSON null


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestValidate:
    def test_benchmark_manifest_passes(self, benchmark_manifest, capsys):
        code = main([
            "validate",
            "--identities", str(benchmark_manifest / "identities.csv"),
            "--videos", str(benchmark_manifest / "videos.csv"),
            "--profile", "full",
        ])
        assert code == EXIT_OK
        assert "all counts match" in capsys.readouterr().out

    def test_count_mismatch_fails(self, corpus_small, capsys):
        code = main([
            "validate",
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
        ])
        assert code == EXIT_FAIL
        assert "differ" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, tmp_path):
        code = main([
            "validate",
            "--identities", str(tmp_path / "absent.csv"),
            "--videos", str(tmp_path / "absent2.csv"),
        ])
        assert code == EXIT_USAGE


class TestSynthAndTrials:
    def test_synth_then_trials_is_byte_deterministic(self, tmp_path):
        args = ["synth", "--identities-n", "5", "--videos-per-id", "2",
                "--frames", "30,36", "--dim", "6", "--seed", "3",
                "--targets-per-driver", "1", "--clips-per-driver", "1"]
        outputs = []
        for sub in ("a", "b"):
            root = tmp_path / sub
            assert main(args + ["--out", str(root)]) == EXIT_OK
            trials = root / "trials.csv"
            assert main([
                "trials",
                "--identities", str(root / "identities.csv"),
                "--videos", str(root / "videos.csv"),
                "--split", str(root / "split.json"),
                "--out", str(trials),
            ]) == EXIT_OK
            outputs.append(trials.read_bytes())
        assert outputs[0] == outputs[1]

    def test_convention_flag_changes_counts(self, corpus_small, tmp_path):
        base = [
            "trials",
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
            "--split", str(corpus_small.root / "split.json"),
        ]
        assert main(base + ["--out", str(tmp_path / "ex.csv")]) == EXIT_OK
        assert main(base + ["--convention", "include_identical",
                            "--out", str(tmp_path / "inc.csv")]) == EXIT_OK
        excl = load_trials(tmp_path / "ex.csv")
        incl = load_trials(tmp_path / "inc.csv")
        assert len(incl) > len(excl)
        identical = [t for t in incl if t.enroll_video == t.test_video]
        assert len(incl) - len(excl) == len(identical)

    def test_split_out_written(self, corpus_small, tmp_path):
        assert main([
            "trials",
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
            "--eval-fraction", "0.5", "--seed", "4",
            "--split-out", str(tmp_path / "split.json"),
            "--out", str(tmp_path / "t.csv"),
        ]) == EXIT_OK
        assert (tmp_path / "split.json").exists()


class TestTrainScoreEvaluateChain:
    def test_full_chain(self, corpus_small, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        ckpt_dir = tmp_path / "ckpt"
        assert main([
            "train", "--config", str(cfg), "--train-dataset", "CREMA-D",
            "--train-generator", "GAGA", "--out-dir", str(ckpt_dir),
        ]) == EXIT_OK
        ckpt = ckpt_dir / "m_CREMA-D_GAGA.avck"
        assert ckpt.exists()
        assert ckpt.with_suffix(".log.json").exists()

        trials_path = tmp_path / "trials.csv"
        assert main([
            "trials",
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
            "--split", str(corpus_small.root / "split.json"),
            "--out", str(trials_path),
        ]) == EXIT_OK

        scores_path = tmp_path / "scores.csv"
        assert main([
            "score", "--config", str(cfg), "--trials", str(trials_path),
            "--checkpoint", f"m={ckpt}",
            "--eval-dataset", "CREMA-D", "--eval-generator", "GAGA",
            "--out", str(scores_path),
        ]) == EXIT_OK
        table = read_score_table(scores_path)
        assert table.rows and all(r.model == "m" for r in table.rows)

        out_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--scores", str(scores_path), "--out-dir", str(out_dir),
        ]) == EXIT_OK
        assert (out_dir / "report.csv").exists()
        assert list(out_dir.glob("roc_*_m.csv"))
        assert "auc" in capsys.readouterr().out

        assert main([
            "fairness", "--scores", str(scores_path),
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
            "--out", str(tmp_path / "fair.csv"),
        ]) == EXIT_OK
        assert (tmp_path / "fair.csv").exists()

    def test_score_without_trials_fails(self, corpus_small, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", corpus_small, epochs=1)
        assert main(["train", "--config", str(cfg), "--train-generator", "GAGA",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        (tmp_path / "t.csv").write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
            "t00000000,CREMA-D,GAGA,gaga_a_a_c000,gaga_a_a_c001,1\n"
        )
        code = main([
            "score", "--config", str(cfg), "--trials", str(tmp_path / "t.csv"),
            "--checkpoint", f"m={tmp_path / 'm_CREMA-D_GAGA.avck'}",
            "--eval-generator", "LIVE", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_FAIL
        assert "no trials for */LIVE" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("trial_id", ["t1", "t+0000001", "t0000000x"])
    def test_score_rejects_a_non_canonical_trial_id(self, corpus_small, tmp_path, capsys,
                                                    trial_id):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        trials = tmp_path / "t.csv"
        trials.write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
            f"{trial_id},CREMA-D,GAGA,gaga_a_a_c000,gaga_a_a_c001,1\n"
        )
        code = main([
            "score", "--config", str(cfg), "--trials", str(trials),
            "--checkpoint", f"m={tmp_path / 'm.avck'}", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err
        assert str(trials) in err and repr(trial_id) in err
        assert not (tmp_path / "s.csv").exists()

    def test_fairness_on_a_table_without_scores_fails(self, corpus_small, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("trial_id,enroll_video,test_video,label,model,score\n"
                          "t00000001,gaga_a_a_c000,gaga_a_a_c001,1,m,\n")
        code = main([
            "fairness", "--scores", str(scores),
            "--identities", str(corpus_small.root / "identities.csv"),
            "--videos", str(corpus_small.root / "videos.csv"),
            "--out", str(tmp_path / "fair.csv"),
        ])
        assert code == EXIT_FAIL
        assert "no scored trials with both classes present" in capsys.readouterr().err
        assert not (tmp_path / "fair.csv").exists()

    def test_score_rejects_unknown_model(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        (tmp_path / "t.csv").write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
        )
        code = main([
            "score", "--config", str(cfg), "--trials", str(tmp_path / "t.csv"),
            "--checkpoint", "ghost=/nonexistent.avck",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_USAGE

    def test_truncated_checkpoint_fails_cleanly(self, corpus_small, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        (tmp_path / "t.csv").write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
        )
        (tmp_path / "cut.avck").write_bytes(b"AVCK\x10\x00")
        code = main([
            "score", "--config", str(cfg), "--trials", str(tmp_path / "t.csv"),
            "--checkpoint", f"m={tmp_path / 'cut.avck'}",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_FAIL
        assert "truncated" in capsys.readouterr().err

    def test_checkpoint_wants_name_equals_path(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        (tmp_path / "t.csv").write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
        )
        code = main([
            "score", "--config", str(cfg), "--trials", str(tmp_path / "t.csv"),
            "--checkpoint", "just-a-path", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_USAGE

    def test_checkpoint_names_each_model_once(self, corpus_small, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        (tmp_path / "t.csv").write_text(
            "trial_id,dataset,generator,enroll_video,test_video,label\n"
        )
        code = main([
            "score", "--config", str(cfg), "--trials", str(tmp_path / "t.csv"),
            "--checkpoint", "m=/a.avck", "--checkpoint", "m=/b.avck",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_USAGE
        assert "'m' twice" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestImportFeatures:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        written = {}
        for name in ("clip_a", "clip_b"):
            frames = rng.normal(size=(10, 3))
            written[name] = frames
            lines = [",".join(repr(float(x)) for x in row) for row in frames]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        store_path = tmp_path / "store.avfs"
        assert main([
            "import-features", "--store", str(store_path), "--dim", "3",
            str(tmp_path / "clip_a.csv"), str(tmp_path / "clip_b.csv"),
        ]) == EXIT_OK
        store = FeatureStore(store_path)
        assert sorted(store.ids()) == ["clip_a", "clip_b"]
        got = store.get("clip_a").frames
        assert got.shape == (10, 3)
        # storage is 32-bit on disk, so agreement is to float32 resolution
        np.testing.assert_allclose(got, written["clip_a"], rtol=1e-6, atol=1e-7)

    def test_bad_file_leaves_no_store(self, tmp_path):
        for name in ("clip_a", "clip_b"):
            (tmp_path / f"{name}.csv").write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        (tmp_path / "clip_c.csv").write_text("1.0,oops,3.0\n")
        args = ["import-features", "--store", str(tmp_path / "out" / "store.avfs"),
                "--dim", "3", *(str(tmp_path / f"clip_{c}.csv") for c in "abc")]
        assert main(args) == EXIT_FAIL
        assert list((tmp_path / "out").iterdir()) == []
        (tmp_path / "clip_c.csv").write_text("1.0,2.0,3.0\n")
        assert main(args) == EXIT_OK
        assert FeatureStore(tmp_path / "out" / "store.avfs").ids() == ["clip_a", "clip_b", "clip_c"]


class TestRun:
    def test_end_to_end_and_resume(self, corpus_small, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA, CROSS_TO_LIVE])
        reads = []
        monkeypatch.setattr(scoring, "read_score_table",
                            lambda path: reads.append(path) or read_score_table(path))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert reads == []  # each job evaluates the table it just scored
        run_dir = tmp_path / "runs" / "testrun"
        trials_path = run_dir / "trials" / "trials.csv"
        report_path = run_dir / "reports" / "report.csv"
        assert trials_path.exists() and (trials_path.parent / "trials.csv.done").exists()
        assert (run_dir / "models" / "m_CREMA-D_GAGA.avck").exists()
        assert report_path.exists()
        assert (run_dir / "reports" / "report.txt").exists()
        assert list((run_dir / "reports").glob("delta_*.txt"))
        assert list((run_dir / "reports").glob("fairness_*.csv"))
        assert not (run_dir / "reports" / "failures.txt").exists()

        # a second, non-fresh invocation reuses every completed stage and
        # reads each job's score table back once
        before = tree_bytes(run_dir)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert sorted(Path(p).name for p in reads) == sorted(
            p.name for p in (run_dir / "scores").glob("*.csv"))
        assert len(reads) == 2
        assert tree_bytes(run_dir) == before

    def test_report_error_fails_only_that_job(self, corpus_small, tmp_path, monkeypatch,
                                              capsys):
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA, CROSS_TO_LIVE])
        assert main(["run", "--config", str(cfg), "--run-id", "clean"]) == EXIT_OK
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        reports_dir = tmp_path / "runs" / "testrun" / "reports"
        live = "CREMA-D-GAGA_to_CREMA-D-LIVE"
        assert [p for p in reports_dir.iterdir() if live in p.name]
        real_fairness = evaluation.fairness_report

        def failing_fairness(rows, catalog, *args):
            if catalog.video(rows[0].enroll_video).generator.value == "LIVE":
                raise evaluation.EvaluationError("injected report failure")
            return real_fairness(rows, catalog, *args)

        monkeypatch.setattr(evaluation, "fairness_report", failing_fairness)
        assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
        run_dir = tmp_path / "runs" / "testrun"
        failures = (run_dir / "reports" / "failures.txt").read_text()
        assert "CREMA-D-GAGA_to_CREMA-D-LIVE" in failures and "injected" in failures
        assert "1/2 jobs scored" in capsys.readouterr().out
        conditions = {row.split(",")[0] for row in
                      (run_dir / "reports" / "report.csv").read_text().splitlines()[1:]}
        assert conditions == {"CREMA-D/GAGA->CREMA-D/GAGA"}
        # the earlier run's reports of the failed job went with it
        assert not [p for p in reports_dir.iterdir() if live in p.name]
        assert (reports_dir / "fairness_CREMA-D-GAGA_to_CREMA-D-GAGA.csv").is_file()
        # the failed job's scores were kept, so a rerun only reports it
        monkeypatch.setattr(evaluation, "fairness_report", real_fairness)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        again, clean = tree_bytes(run_dir), tree_bytes(tmp_path / "runs" / "clean")
        assert again.keys() == clean.keys()
        for p in clean.keys() - {Path("config", "effective.json")}:
            assert again[p] == clean[p], p

    def test_fresh_recomputes_and_agrees(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA])
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        run_dir = tmp_path / "runs" / "testrun"
        score_file = next((run_dir / "scores").glob("*.csv"))
        first = score_file.read_bytes()
        assert main(["run", "--config", str(cfg), "--fresh"]) == EXIT_OK
        assert score_file.read_bytes() == first  # determinism, not staleness

    def test_fresh_removes_outputs_of_dropped_jobs(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA, CROSS_TO_LIVE])
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        run_dir = tmp_path / "runs" / "testrun"
        assert [p for p in run_dir.rglob("*") if "LIVE" in p.name]
        write_config(cfg, corpus_small, experiments=[INTRA_GAGA])
        assert main(["run", "--config", str(cfg), "--fresh"]) == EXIT_OK
        assert not [p for p in run_dir.rglob("*") if "LIVE" in p.name]
        # what is left is exactly what a first run of the smaller config writes
        assert main(["run", "--config", str(cfg), "--run-id", "clean"]) == EXIT_OK
        left, clean = tree_bytes(run_dir), tree_bytes(tmp_path / "runs" / "clean")
        assert left.keys() == clean.keys()
        for p in clean.keys() - {Path("config", "effective.json")}:
            assert left[p] == clean[p], p

    def test_fresh_with_bad_inputs_keeps_the_outputs(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small, experiments=[INTRA_GAGA])
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        before = tree_bytes(tmp_path / "runs" / "testrun")
        payload = json.loads(cfg.read_text())
        payload["models"][0]["store"] = str(tmp_path / "missing.avfs")
        cfg.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg), "--fresh"]) == EXIT_USAGE
        assert tree_bytes(tmp_path / "runs" / "testrun") == before

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("run_id", ["..", ".", ""], ids=["parent", "root", "empty"])
    def test_run_id_must_stay_inside_output_root(self, corpus_small, tmp_path, capsys,
                                                 route, run_id):
        work = tmp_path / "work"
        work.mkdir()
        cfg = write_config(work / "config.json", corpus_small, experiments=[INTRA_GAGA])
        argv = ["run", "--config", str(cfg)]
        if route == "flag":
            argv += ["--run-id", run_id]
        else:
            payload = json.loads(cfg.read_text())
            payload["run_id"] = run_id
            cfg.write_text(json.dumps(payload))
        assert main(argv) == EXIT_USAGE
        assert "run id" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "work"]

    def test_graph_checkpoints_do_not_depend_on_the_run_directory(self, corpus_small,
                                                                   tmp_path):
        graph_model = {
            "name": "g",
            "store": str(corpus_small.store_path),
            "embedder": {"heads": 2, "attention_dim": 8, "projection_dim": 6,
                         "window_len": 16, "graph": {"layers": 1, "hidden_dim": 8}},
            "hyper": {"epochs": 1, "batch": 16, "windows_per_identity": 4},
            "adjacency": "chain.csv",  # relative to the config's directory
        }
        for where in ("a", "b"):
            (tmp_path / where).mkdir()
            (tmp_path / where / "chain.csv").write_text(
                "".join(f"{i},{i + 1}\n" for i in range(5)), encoding="utf-8")
            cfg = write_config(tmp_path / where / "config.json", corpus_small,
                               experiments=[INTRA_GAGA], extra_models=[graph_model])
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
        first, second = (tmp_path / w / "runs" / "testrun" for w in ("a", "b"))
        assert list((first / "models").glob("g_*.avck"))
        for sub in ("models", "scores", "reports"):
            assert tree_bytes(first / sub) == tree_bytes(second / sub), sub

    def test_failing_model_isolated(self, corpus_small, tmp_path):
        broken = {
            "name": "broken",
            "store": str(corpus_small.store_path),
            # longer than every video in the corpus, so no training windows
            "embedder": {"heads": 2, "attention_dim": 8, "projection_dim": 6,
                         "window_len": 64},
            "hyper": {"epochs": 1, "batch": 16, "windows_per_identity": 4},
        }
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA], extra_models=[broken])
        assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
        failures = tmp_path / "runs" / "testrun" / "reports" / "failures.txt"
        assert failures.exists()
        assert "broken" in failures.read_text()

    def test_config_without_experiments(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE

    def test_bad_json_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE

    def test_missing_required_key(self, corpus_small, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 1, "identities": "x", "videos": "y"}))
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE

    def test_duplicate_model_names(self, corpus_small, tmp_path):
        payload = json.loads(
            write_config(tmp_path / "c.json", corpus_small,
                         experiments=[INTRA_GAGA]).read_text()
        )
        payload["models"].append(dict(payload["models"][0]))
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert main(["run", "--config", str(tmp_path / "c.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("block, key, value, named", [
        ("hyper", "epoch", 1, "epoch"),
        ("embedder", "head", 2, "head"),
        ("embedder", "graph", {"layer": 2}, "layer"),
        ("model", "hyperparams", {}, "hyperparams"),
        ("experiment", "eval_generators", ABSENT, "eval_generators"),
        ("experiment", "eval_generator", "GAGA", "eval_generator"),
        ("experiment", "models", ["ghost"], "ghost"),
        ("hyper", "mining", "bogus", "bogus"),
        ("experiment", "scenario", "zero_shot", "zero_shot"),
        ("embedder", "graph", {"layers": 0}, "layers"),
        ("config", "fusoin", {}, "fusoin"),
        ("fusion", "z_score", True, "z_score"),
        ("fusion", "enabled", "false", "enabled"),
        ("config", "models", 5, "models"),
        ("config", "seed", "abc", "seed"),
        ("config", "eval_fraction", 5, "eval_fraction"),
        ("config", "convention", "bogus", "bogus"),
        ("config", "identities", 5, "identities"),
        ("config", "videos", ["videos.csv"], "videos"),
        ("config", "split", 3, "split"),
        ("config", "output_root", None, "output_root"),
        ("config", "run_id", None, "run_id"),
        ("model", "store", 5, "store"),
        ("model", "adjacency", 7, "adjacency"),
    ], ids=["unknown-hyper", "unknown-embedder", "unknown-graph", "unknown-model",
            "missing-experiment", "unknown-experiment", "unknown-model-name",
            "bad-mining", "bad-scenario", "bad-graph-layers", "unknown-top-level",
            "unknown-fusion", "string-fusion-flag", "models-not-a-list", "string-seed",
            "eval-fraction-out-of-range", "bad-convention", "number-identities", "list-videos",
            "number-split", "null-output-root", "null-run-id", "number-store",
            "number-adjacency"])
    def test_bad_config_keys_are_usage_errors(self, corpus_small, tmp_path, capsys,
                                              block, key, value, named):
        payload = json.loads(
            write_config(tmp_path / "c.json", corpus_small, experiments=[INTRA_GAGA]).read_text()
        )
        model, experiment = payload["models"][0], payload["experiments"][0]
        target = {"hyper": model["hyper"], "embedder": model["embedder"],
                  "model": model, "experiment": experiment, "config": payload,
                  "fusion": payload.setdefault("fusion", {})}[block]
        if value is ABSENT:
            del target[key]
        else:
            target[key] = value
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert main(["run", "--config", str(tmp_path / "c.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(named) in err
        assert not (tmp_path / "runs").exists()

    def test_worker_pool_writes_the_same_bytes(self, corpus_small, tmp_path):
        second = {
            "name": "m2",
            "store": str(corpus_small.store_path),
            "embedder": {"heads": 1, "attention_dim": 8, "projection_dim": 6,
                         "window_len": 16},
            "hyper": {"epochs": 2, "batch": 16, "windows_per_identity": 4},
        }
        all_to_live = {**CROSS_TO_LIVE, "train_generator": "All"}
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA, INTRA_LIVE, CROSS_TO_LIVE, all_to_live],
                           extra_models=[second])
        for workers in ("1", "2"):
            assert main(["run", "--config", str(cfg), "--run-id", f"w{workers}",
                         "--workers", workers]) == EXIT_OK
        one, two = tmp_path / "runs" / "w1", tmp_path / "runs" / "w2"
        assert len(list((one / "models").glob("*.avck"))) == 6
        for sub in ("trials", "scores", "reports", "models"):
            assert tree_bytes(one / sub) == tree_bytes(two / sub), sub
        # a job trained on one generator is compared with that generator's
        # intra job; a job trained on All with its evaluation generator's
        reports = one / "reports"
        assert sorted(p.name for p in reports.glob("delta_*.txt")) == [
            "delta_CREMA-D-GAGA--CREMA-D-GAGA.txt", "delta_CREMA-D-LIVE--CREMA-D-LIVE.txt"]
        gaga = (reports / "delta_CREMA-D-GAGA--CREMA-D-GAGA.txt").read_text()
        live = (reports / "delta_CREMA-D-LIVE--CREMA-D-LIVE.txt").read_text()
        assert "CREMA-D/GAGA->CREMA-D/LIVE" in gaga and "All" not in gaga
        assert "CREMA-D/All->CREMA-D/LIVE" in live and "CREMA-D/LIVE->CREMA-D/LIVE" in live
        assert "CREMA-D/GAGA->" not in live

    @pytest.mark.parametrize("store", ["missing", "version-1", "unsealed", "index-not-a-map"])
    def test_unreadable_store_fails_before_the_run_directory(self, corpus_small, tmp_path,
                                                             capsys, store):
        path = tmp_path / "bad.avfs"
        if store == "version-1":  # header: magic, version, kind, D, record count
            path.write_bytes(struct.pack("<4sIBII", b"AVFS", 1, 1, 12, 0))
        elif store == "unsealed":  # header: magic, version, kind, D, index offset 0
            path.write_bytes(struct.pack("<4sIBIQ", b"AVFS", 2, 1, 12, 0))
        elif store == "index-not-a-map":  # the index right after the header
            path.write_bytes(struct.pack("<4sIBIQ", b"AVFS", 2, 1, 12, 21) + b"[1, 2]")
        payload = json.loads(
            write_config(tmp_path / "c.json", corpus_small, experiments=[INTRA_GAGA]).read_text()
        )
        payload["models"][0]["store"] = str(path)
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert main(["run", "--config", str(tmp_path / "c.json")]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_failed_replace_leaves_no_partial_artifact(self, corpus_small, tmp_path,
                                                       monkeypatch):
        """Make the k-th os.replace of a run fail, for every k: nothing is left
        at that file's name or under a temporary name, every other file is
        whole, no marker outlives its artifact, and a rerun ends where a
        clean run does."""
        cfg = write_config(tmp_path / "config.json", corpus_small,
                           experiments=[INTRA_GAGA, CROSS_TO_LIVE])
        real_replace = os.replace
        replaced = []

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        assert main(["run", "--config", str(cfg), "--run-id", "clean"]) == EXIT_OK
        clean_dir = tmp_path / "runs" / "clean"
        clean = tree_bytes(clean_dir)
        # every file of the run is moved into place, each once
        assert sorted(Path(p).relative_to(clean_dir) for p in replaced) == sorted(clean)
        config = Path("config", "effective.json")  # names the run id
        failures = Path("reports", "failures.txt")
        for k in range(1, len(replaced) + 1):
            calls, failed = itertools.count(1), []

            def failing_replace(src, dst):
                if next(calls) == k:
                    failed.append(Path(dst))
                    raise OSError(errno.EIO, "injected failure", str(dst))
                real_replace(src, dst)

            run_id = f"k{k}"
            run_dir = tmp_path / "runs" / run_id
            monkeypatch.setattr(os, "replace", failing_replace)
            assert main(["run", "--config", str(cfg), "--run-id", run_id]) != EXIT_OK
            left = tree_bytes(run_dir)
            assert failed[0].relative_to(run_dir) not in left, k
            assert not [p for p in left if p.name.endswith(".tmp")], k
            # with a failed job the reports cover the other jobs only
            job_failed = failures in left
            for p, content in left.items():
                if p not in (config, failures) and not (job_failed and p.parts[0] == "reports"):
                    assert content == clean[p], (k, p)
                if p.suffix == ".done":
                    assert p.with_suffix("") in left, (k, p)
            monkeypatch.setattr(os, "replace", real_replace)
            assert main(["run", "--config", str(cfg), "--run-id", run_id]) == EXIT_OK
            again = tree_bytes(run_dir)
            assert again.keys() == clean.keys(), k
            for p in clean.keys() - {config}:
                assert again[p] == clean[p], (k, p)

    @pytest.mark.parametrize("side", [None, "not a list"], ids=["missing", "not-a-list"])
    def test_bad_split_fails_before_the_run_directory(self, corpus_small, tmp_path, capsys,
                                                      side):
        split = json.loads((corpus_small.root / "split.json").read_text())
        if side is None:
            del split["development"]
        else:
            split["development"] = side
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(split))
        cfg = write_config(tmp_path / "config.json", corpus_small, experiments=[INTRA_GAGA])
        payload = json.loads(cfg.read_text())
        payload["split"] = str(split_path)
        cfg.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(split_path) in err and "'development'" in err
        assert not (tmp_path / "runs").exists()

    def test_zero_workers_is_a_usage_error(self, corpus_small, tmp_path):
        cfg = write_config(tmp_path / "config.json", corpus_small, experiments=[INTRA_GAGA])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--workers", "0"])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "runs").exists()
