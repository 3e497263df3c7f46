"""Acceptance gate: the eight guarantees the package ships with.

Every test covers one guarantee end to end and prints a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line, so the verdict for each one can be
read directly off the pytest log.
"""

import json
import time
from contextlib import contextmanager
from decimal import Decimal

import numpy as np
import pytest

from avatarprint.catalog import Dataset, Generator
from avatarprint.cli import EXIT_OK, main
from avatarprint.embedder import EmbedderConfig, forward_batch, init_params
from avatarprint.feature_store import FeatureKind, FeatureSequence, FeatureStoreWriter
from avatarprint.evaluation import (
    EvalReport,
    auc,
    delta_table,
    evaluate_rows,
    fairness_report,
    format_cell,
)
from avatarprint.protocol import INCLUDE_IDENTICAL, generate_trials, trial_counts
from avatarprint.scoring import (
    ScoreRow,
    score_pair,
    score_trials,
    window_starts,
)
from avatarprint.synthbench import synth_corpus
from avatarprint.training import TrainHyper, _batch_loss_grad, _squared_distances, train

from helpers import (
    double_loop_pair_score,
    finite_difference_grad,
    max_relative_error,
    mined_triplet_loss,
    pairwise_auc,
    random_embedder_setup,
    random_store,
    reference_mine,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Exhaustive trial generation reproduces the benchmark trial counts fast.
# ---------------------------------------------------------------------------

EXPECTED_TRIALS = {"CREMA-D": (124_416, 247_536), "RAVDESS": (28_800, 50_400)}
PER_GENERATOR_TOTALS = (153_216, 297_936)


def test_1_benchmark_trial_counts(benchmark_cat):
    with criterion(1, "benchmark trial counts"):
        catalog, split = benchmark_cat
        started = time.perf_counter()
        trials = generate_trials(catalog, split, INCLUDE_IDENTICAL)
        counts = trial_counts(trials)
        elapsed = time.perf_counter() - started

        for generator in Generator:
            for dataset, (genuine_n, impostor_n) in EXPECTED_TRIALS.items():
                assert counts[(dataset, generator.value, 1)] == genuine_n
                assert counts[(dataset, generator.value, 0)] == impostor_n
            total_g = sum(counts[(d, generator.value, 1)] for d in EXPECTED_TRIALS)
            total_i = sum(counts[(d, generator.value, 0)] for d in EXPECTED_TRIALS)
            assert (total_g, total_i) == PER_GENERATOR_TOTALS
        assert len(trials) == 3 * sum(PER_GENERATOR_TOTALS)
        assert elapsed < 10.0, f"trial generation took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Rank-based AUC is exact: it matches the pairwise definition on random
#    tied data and is invariant under monotone transforms and sign reversal.
# ---------------------------------------------------------------------------


def test_2_exact_auc():
    with criterion(2, "exact AUC"):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n_g = int(rng.integers(1, 1001))
            n_i = int(rng.integers(1, 1001))
            if trial % 2 == 0:
                pool = rng.normal(size=int(rng.integers(2, 50)))
                genuine = rng.choice(pool, size=n_g)
                impostor = rng.choice(pool, size=n_i)
            else:
                genuine = rng.normal(size=n_g)
                impostor = rng.normal(size=n_i)
                # force cross-class ties
                k = min(n_g, n_i, 5)
                impostor[:k] = genuine[:k]
            assert abs(auc(genuine, impostor) - pairwise_auc(genuine, impostor)) <= 1e-12

        # tie-free scores drawn off a coarse grid, so strictly monotone maps
        # cannot collide them in float arithmetic
        grid = np.linspace(-2.0, 2.0, 400_001)
        for _ in range(20):
            scores = rng.choice(grid, size=300, replace=False)
            genuine, impostor = scores[:120], scores[120:]
            base = auc(genuine, impostor)
            for transform in (lambda x: 2.0 * x + 13.0, np.exp, np.arctan):
                g_t, i_t = transform(genuine), transform(impostor)
                assert np.unique(np.concatenate([g_t, i_t])).size == 300
                assert auc(g_t, i_t) == base
            assert auc(-impostor, -genuine) == base


# ---------------------------------------------------------------------------
# 3. Analytic gradients of the training loss step match central finite
#    differences.
# ---------------------------------------------------------------------------

FD_STEP = 1e-5
GRAD_REL_TOL = 1e-5
CONFIGS_PER_PATH = 10


def test_3_analytic_gradients():
    with criterion(3, "analytic gradients"):
        worst = 0.0
        for with_graph, base_seed in ((False, 5000), (True, 6000)):
            accepted = 0
            for offset in range(60):
                if accepted == CONFIGS_PER_PATH:
                    break
                rng = np.random.default_rng(base_seed + offset)
                params, windows, labels, margin = random_embedder_setup(rng, with_graph)
                # the triplets mined at these parameters, held fixed
                z, _ = forward_batch(params, windows)
                pos, neg = reference_mine(
                    _squared_distances(z), labels, "semi-hard", None
                )

                def direct_loss():
                    return mined_triplet_loss(params, windows, labels, pos, neg, margin)

                # the reference must certify itself first: reject draws where
                # shrinking the step still moves the estimate at the level of
                # the tolerance (truncation-limited coordinates). This uses no
                # analytic gradient, so a wrong gradient cannot slip through.
                numeric = finite_difference_grad(direct_loss, params.flat, h=FD_STEP)
                finer = finite_difference_grad(direct_loss, params.flat, h=FD_STEP / 10)
                if max_relative_error(numeric, finer) > GRAD_REL_TOL / 2:
                    continue
                accepted += 1

                loss, grad, _ = _batch_loss_grad(
                    params, windows, labels, margin, "semi-hard",
                    np.random.default_rng(0),
                )
                assert loss == pytest.approx(direct_loss(), abs=1e-12)
                worst = max(worst, max_relative_error(grad, numeric))
            assert accepted == CONFIGS_PER_PATH
        assert worst < GRAD_REL_TOL, f"worst relative gradient error {worst:.2e}"


# ---------------------------------------------------------------------------
# 4. Pair scoring: independent double-loop oracle, the window-count formula,
#    and exact symmetry with cosine bounds on random trials.
# ---------------------------------------------------------------------------


def test_4_pair_scoring(tmp_path):
    with criterion(4, "pair scoring"):
        # window grid formula, even windows at the default half-window stride
        for window in range(2, 65, 2):
            stride = window // 2
            for frames in range(1, 65):
                expected = 0 if frames < window else (frames - window) // stride + 1
                assert len(window_starts(frames, window)) == expected

        # score_pair against a from-scratch double loop on every window-count
        # grid up to 5x5 (single-window forward, manual slicing, scalar maths)
        config = EmbedderConfig(
            input_dim=6, heads=2, attention_dim=8, projection_dim=4,
            window_len=8, seed=12,
        )
        params = init_params(config)
        rng = np.random.default_rng(99)
        lengths = {
            x: 8 + 4 * (x - 1) + int(rng.integers(0, 4)) for x in range(1, 6)
        }
        ids = {x: f"grid{x}" for x in lengths}
        writer = FeatureStoreWriter(tmp_path / "grid.avfs", FeatureKind.EMBEDDING, 6)
        for x, vid in ids.items():
            frames = rng.normal(size=(lengths[x], 6))
            writer.put(FeatureSequence(vid, FeatureKind.EMBEDDING, frames, 30.0))
        store = writer.seal()

        def oracle_embeddings(vid):
            frames = store.get(vid).frames
            out = []
            for start in range(0, frames.shape[0] - 8 + 1, 4):
                out.append(forward_batch(params, frames[start : start + 8][None])[0][0])
            return out

        for x in range(1, 6):
            for y in range(1, 6):
                got = score_pair(params, store, ids[x], ids[y]).score
                ze, zt = oracle_embeddings(ids[x]), oracle_embeddings(ids[y])
                assert len(ze) == x and len(zt) == y
                assert abs(got - double_loop_pair_score(ze, zt)) <= 1e-12

        # symmetry and bounds over 1,000 random trials
        video_ids = [f"v{i:03d}" for i in range(40)]
        big = random_store(tmp_path / "sym.avfs", video_ids, 6,
                           np.random.default_rng(7), frames=(8, 40))
        picker = np.random.default_rng(13)
        for _ in range(1000):
            a, b = (str(v) for v in picker.choice(video_ids, 2))
            one_way = score_pair(params, big, a, b).score
            other_way = score_pair(params, big, b, a).score
            assert one_way == other_way
            assert -1.0 - 1e-12 <= one_way <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# 5. The synthetic benchmark round trip: train on development identities,
#    verify held-out identities above 95 AUC, and see both distribution
#    shifts cost accuracy, all within five minutes.
# ---------------------------------------------------------------------------


def test_5_synthetic_benchmark(tmp_path):
    with criterion(5, "synthetic benchmark round trip"):
        started = time.perf_counter()
        corpus = synth_corpus(
            tmp_path / "corpus", n_identities=20, videos_per_id=10,
            frames=(64, 100), dim=32, seed=1,
            dataset=(Dataset.CREMA_D, Dataset.RAVDESS),
            generators=(Generator.GAGA, Generator.LIVE),
        )
        config = EmbedderConfig(
            input_dim=32, heads=4, attention_dim=32, projection_dim=16,
            window_len=32, seed=1,
        )
        hyper = TrainHyper(lr=1e-3, batch=64, epochs=10, margin=0.2,
                           mining="semi-hard", windows_per_identity=4)
        view = corpus.catalog.filter(datasets=[Dataset.CREMA_D], generators=[Generator.GAGA])
        params, log = train(corpus.store, view, corpus.split.development, config, hyper)
        assert not log.diverged

        trials = generate_trials(corpus.catalog, corpus.split)

        def auc_on(dataset, generator):
            table = score_trials({"model": (params, corpus.store)},
                                 trials.select(dataset.value, generator.value))
            (report,) = evaluate_rows(table.rows, "cond")
            return report.auc

        auc_intra = auc_on(Dataset.CREMA_D, Generator.GAGA)
        auc_generator = auc_on(Dataset.CREMA_D, Generator.LIVE)
        auc_dataset = auc_on(Dataset.RAVDESS, Generator.GAGA)
        elapsed = time.perf_counter() - started

        assert auc_intra >= 95.0, f"held-out AUC {auc_intra:.2f}"
        assert auc_generator < auc_intra, (auc_generator, auc_intra)
        assert auc_dataset < auc_intra, (auc_dataset, auc_intra)
        assert elapsed < 300.0, f"round trip took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. Delta tables reproduce the published benchmark arithmetic cell by cell.
# ---------------------------------------------------------------------------

MODELS = ("Graph", "DINOv2", "CLIP", "Fusion")

INTRA_AUC = {
    ("CREMA-D", "GAGA"): ("88.0", "87.0", "86.4", "93.8"),
    ("CREMA-D", "LIVE"): ("92.3", "88.8", "88.6", "95.2"),
    ("CREMA-D", "HUNY"): ("83.5", "79.8", "81.0", "87.6"),
    ("RAVDESS", "GAGA"): ("77.1", "75.9", "76.0", "83.0"),
    ("RAVDESS", "LIVE"): ("75.8", "68.2", "70.2", "79.4"),
    ("RAVDESS", "HUNY"): ("75.4", "74.0", "77.0", "78.8"),
}

# (train generator, eval generator) -> per-model deltas, per dataset. "All"
# denotes training on the union of generators; its reference is the
# evaluation generator's own in-condition model.
CROSS_GENERATOR_DELTAS = {
    "CREMA-D": {
        ("GAGA", "LIVE"): ("-1.5", "-18.1", "-10.6", "-7.7"),
        ("GAGA", "HUNY"): ("-2.9", "-20.3", "-14.6", "-8.4"),
        ("All", "GAGA"): ("-2.2", "-14.2", "-12.4", "-7.4"),
        ("LIVE", "GAGA"): ("-8.5", "-18.9", "-17.3", "-16.8"),
        ("LIVE", "HUNY"): ("-11.4", "-14.6", "-14.9", "-15.9"),
        ("All", "LIVE"): ("-4.5", "-12.3", "-9.1", "-5.6"),
        ("HUNY", "GAGA"): ("+3.0", "-16.3", "-8.9", "-8.5"),
        ("HUNY", "LIVE"): ("+3.9", "0.0", "-5.8", "-0.9"),
        ("All", "HUNY"): ("-1.2", "-8.0", "-10.1", "-5.0"),
    },
    "RAVDESS": {
        ("GAGA", "LIVE"): ("-9.6", "-11.2", "-10.5", "-12.6"),
        ("GAGA", "HUNY"): ("-2.7", "-13.7", "-10.7", "-11.5"),
        ("All", "GAGA"): ("-1.4", "-2.9", "-4.5", "-3.8"),
        ("LIVE", "GAGA"): ("-1.1", "-2.8", "-7.3", "-10.0"),
        ("LIVE", "HUNY"): ("-2.9", "-5.0", "-4.4", "-11.9"),
        ("All", "LIVE"): ("-0.3", "-4.4", "-1.2", "-1.8"),
        ("HUNY", "GAGA"): ("-3.9", "-10.2", "-9.9", "-5.8"),
        ("HUNY", "LIVE"): ("-6.6", "-6.5", "-7.5", "-4.3"),
        ("All", "HUNY"): ("+2.4", "-2.4", "-5.8", "+0.3"),
    },
}

# (train dataset, eval dataset) -> generator -> per-model deltas; the
# reference is the training dataset's in-condition model for that generator.
CROSS_DATASET_DELTAS = {
    ("CREMA-D", "RAVDESS"): {
        "GAGA": ("-10.9", "-7.5", "-9.1", "-9.6"),
        "LIVE": ("-21.6", "-21.9", "-28.9", "-27.7"),
        "HUNY": ("-8.8", "-7.2", "-5.4", "-9.9"),
    },
    ("RAVDESS", "CREMA-D"): {
        "GAGA": ("+7.4", "+5.0", "+3.4", "+6.3"),
        "LIVE": ("+8.9", "+3.3", "+6.2", "+5.3"),
        "HUNY": ("+2.5", "-1.8", "-0.4", "+4.3"),
    },
}


def _delta_cells():
    """Yield (ref dataset/generator, shifted condition label, model,
    ref string, delta string) for every published non-reference cell."""
    for dataset, rows in CROSS_GENERATOR_DELTAS.items():
        for (train_gen, eval_gen), deltas in rows.items():
            ref_gen = eval_gen if train_gen == "All" else train_gen
            shifted = f"{dataset}/{train_gen}->{dataset}/{eval_gen}"
            for model, ref_str, delta_str in zip(
                MODELS, INTRA_AUC[(dataset, ref_gen)], deltas
            ):
                yield (dataset, ref_gen), shifted, model, ref_str, delta_str
    for (train_ds, eval_ds), columns in CROSS_DATASET_DELTAS.items():
        for gen, deltas in columns.items():
            shifted = f"{train_ds}/{gen}->{eval_ds}/{gen}"
            for model, ref_str, delta_str in zip(
                MODELS, INTRA_AUC[(train_ds, gen)], deltas
            ):
                yield (train_ds, gen), shifted, model, ref_str, delta_str


def test_6_published_delta_arithmetic():
    with criterion(6, "published delta arithmetic"):
        by_reference = {}
        for ref_key, shifted, model, ref_str, delta_str in _delta_cells():
            by_reference.setdefault(ref_key, []).append(
                (shifted, model, ref_str, delta_str)
            )

        checked = 0
        for (dataset, ref_gen), cells in by_reference.items():
            ref_condition = f"{dataset}/{ref_gen}->{dataset}/{ref_gen}"
            reports = [
                EvalReport(ref_condition, model, float(ref_str), 1, 1)
                for model, ref_str in zip(MODELS, INTRA_AUC[(dataset, ref_gen)])
            ]
            expected = {}
            for shifted, model, ref_str, delta_str in cells:
                value = float(Decimal(ref_str) + Decimal(delta_str))
                reports.append(EvalReport(shifted, model, value, 1, 1))
                expected[(shifted, model)] = (ref_str, delta_str, value)

            table = delta_table(reports, ref_condition)
            for row in table.rows:
                if row.is_reference:
                    ref_str = INTRA_AUC[(dataset, ref_gen)][MODELS.index(row.model)]
                    assert format_cell(row) == ref_str
                    continue
                ref_str, delta_str, value = expected[(row.condition, row.model)]
                assert format_cell(row) == delta_str, (row.condition, row.model)
                assert float(ref_str) + row.delta == value  # exact, no rounding slack
                assert row.auc == value
                checked += 1
        assert checked == 2 * 9 * 4 + 2 * 3 * 4  # every published delta cell

        # the two worked examples quoted alongside the tables
        assert float(Decimal("83.5") + Decimal("+3.9")) == 87.4
        assert float(Decimal("88.8") + Decimal("-18.9")) == 69.9


# ---------------------------------------------------------------------------
# 7. Two runner invocations with the same config produce byte-identical
#    trial lists, score tables and reports.
# ---------------------------------------------------------------------------


def test_7_reproducible_runs(corpus_small, tmp_path):
    with criterion(7, "byte-identical reruns"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 17,
            "output_root": "runs",
            "identities": str(corpus_small.root / "identities.csv"),
            "videos": str(corpus_small.root / "videos.csv"),
            "split": str(corpus_small.root / "split.json"),
            "models": [{
                "name": "m",
                "store": str(corpus_small.store_path),
                "embedder": {"heads": 2, "attention_dim": 8,
                             "projection_dim": 6, "window_len": 16},
                "hyper": {"epochs": 2, "batch": 16, "windows_per_identity": 4},
            }],
            "experiments": [
                {"scenario": "intra", "train_dataset": "CREMA-D",
                 "train_generator": "GAGA", "eval_dataset": "CREMA-D",
                 "eval_generators": ["GAGA"]},
                {"scenario": "cross_generator", "train_dataset": "CREMA-D",
                 "train_generator": "GAGA", "eval_dataset": "CREMA-D",
                 "eval_generators": ["LIVE"]},
            ],
        }, indent=2))

        assert main(["run", "--config", str(config_path), "--run-id", "a"]) == EXIT_OK
        assert main(["run", "--config", str(config_path), "--run-id", "b"]) == EXIT_OK

        run_a = tmp_path / "runs" / "a"
        run_b = tmp_path / "runs" / "b"
        compared = 0
        for sub in ("trials", "scores", "reports"):
            files_a = sorted(p for p in (run_a / sub).rglob("*") if p.is_file())
            names_a = [p.relative_to(run_a) for p in files_a]
            names_b = sorted(
                p.relative_to(run_b) for p in (run_b / sub).rglob("*") if p.is_file()
            )
            assert names_a == names_b
            for rel in names_a:
                assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
                compared += 1
        assert compared >= 3  # trials.csv, at least one score table, reports


# ---------------------------------------------------------------------------
# 8. Fairness breakdowns partition the trials and agree with the overall AUC
#    when every subgroup's scores come from the same distribution.
# ---------------------------------------------------------------------------


def test_8_fairness_partition(benchmark_cat):
    with criterion(8, "fairness partition"):
        catalog, split = benchmark_cat
        view = catalog.filter(datasets=[Dataset.CREMA_D], generators=[Generator.GAGA])
        trials = generate_trials(view, split, INCLUDE_IDENTICAL)
        assert len(trials) == sum(EXPECTED_TRIALS["CREMA-D"])

        rng = np.random.default_rng(88)
        labels = np.array([t.label for t in trials])
        scores = np.where(labels == 1, rng.normal(1.0, 1.0, labels.size),
                          rng.normal(0.0, 1.0, labels.size))
        rows = [
            ScoreRow(t.trial_id, t.enroll_video, t.test_video, t.label, "m", float(s))
            for t, s in zip(trials, scores)
        ]
        overall = auc(scores[labels == 1], scores[labels == 0])

        report = fairness_report(rows, catalog)
        for attribute in ("gender", "ethnicity", "age_range"):
            cells = [c for c in report.cells if c.attribute == attribute]
            assert cells, attribute
            covered = sum(c.trials_n for c in cells)
            assert covered + report.excluded_unknown[attribute] == len(rows)
            assert report.excluded_unknown[attribute] == 0  # fully annotated side
            for cell in cells:
                assert cell.auc is not None
                assert abs(cell.auc - overall) <= 2.0, (
                    attribute, cell.subgroup, cell.auc, overall
                )
