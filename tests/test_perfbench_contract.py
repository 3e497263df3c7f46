"""The benchmark's use of the package: each workload's setup, perfbench's
own checks, and the corruptions its self-test feeds them, run here (the
checks on small inputs), so an API change that breaks the benchmark fails
the tests instead of a benchmark run. perfbench is imported from the
checkout and never written to."""

import random
from pathlib import Path

import pytest

from avatarprint.cli import RunConfig
from avatarprint.embedder import AdjacencyGraph, EmbedderConfig, GraphEncoderConfig, init_params
from avatarprint.protocol import (
    Split,
    Trial,
    generate_trials,
    load_trials,
    save_trials,
    trial_counts,
)

from helpers import tiny_catalog

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    return checks


def test_e2e_setup(checks, tmp_path):
    import workloads

    inputs = workloads.setup_e2e(1, tmp_path)
    config = RunConfig.from_file(inputs.config)
    assert [m.name for m in config.models] == ["kinematic", "graph"]
    assert all(path.is_file() for path in (config.identities, config.videos, config.split,
                                           config.models[0].store, config.models[1].adjacency))


def test_job_setup(checks, tmp_path):
    import workloads

    inputs = workloads.setup_job(1, tmp_path)
    assert len(inputs.trials) == 78_720
    assert sorted(inputs.models) == ["graph", "kinematic"]
    assert inputs.models["graph"][0].graph.num_nodes == workloads.DIM // 2


def test_trials_round_trip_check(checks, tmp_path):
    catalog = tiny_catalog()
    trials = generate_trials(catalog, Split(frozenset(), frozenset(catalog.identities)))
    save_trials(trials, tmp_path / "trials.csv")
    data = (trials, load_trials(tmp_path / "trials.csv"))
    checks.check_trials_round_trip(data)
    with pytest.raises(checks.CheckFailed):
        checks.check_trials_round_trip(checks.CORRUPTIONS["trials_round_trip"](data))
    # the job workload's oracle draws its trials this way
    sample = random.Random(5).sample(trials, 4)
    assert all(isinstance(t, Trial) and t in list(trials) for t in sample)


def test_trial_counts_check(checks, benchmark_cat):
    trials = generate_trials(*benchmark_cat)
    data = (trial_counts(trials), len(trials))
    checks.check_trial_counts(data)
    with pytest.raises(checks.CheckFailed):
        checks.check_trial_counts(checks.CORRUPTIONS["trial_counts"](data))


@pytest.fixture
def job_outputs(checks, corpus_small, tmp_path):
    """The job workload's timed phase (score with z-scored fusion, write and
    read the table, evaluate, ROC, fairness) on one small condition, with
    two untrained models as the workload uses them."""
    import workloads

    trials = generate_trials(corpus_small.catalog, corpus_small.split).select("CREMA-D", "GAGA")
    dim = corpus_small.store.dimension
    shape = dict(input_dim=dim, heads=2, attention_dim=8, projection_dim=4, window_len=8)
    nodes = dim // 2
    graph = AdjacencyGraph(nodes, tuple((i, i + 1) for i in range(nodes - 1)))
    models = {
        "kinematic": (init_params(EmbedderConfig(**shape, seed=1)), corpus_small.store),
        "graph": (init_params(EmbedderConfig(**shape, graph=GraphEncoderConfig(1, 8), seed=2),
                              graph=graph), corpus_small.store),
    }
    inputs = workloads.JobInputs(corpus_small.catalog, trials, models, seed=3)
    _, outputs = workloads.run_job(inputs, tmp_path, 0, None)
    return inputs, outputs


def _job_check_data(workloads, inputs, outputs) -> dict:
    """Each job check's input, assembled as ``workloads.check_job`` does."""
    table, loaded, reports, fair, work = outputs
    by_key = {(r.trial_id, r.model): r.score for r in table.rows}
    oracle = [
        (params, store, t.enroll_video, t.test_video, by_key[(t.trial_id, name)])
        for name, (params, store) in sorted(inputs.models.items())
        for t in random.Random(4).sample(inputs.trials, 6)
    ]
    return {
        "scores_oracle": oracle,
        "fusion_zscore": table.rows,
        "table_round_trip": (table.rows, loaded.rows),
        "roc_shape": [(r.model, *workloads._read_roc(work / f"roc_{r.model}.csv"), r.auc)
                      for r in reports],
        "fairness_partition": (fair, sum(r.score is not None for r in table.rows)),
    }


@pytest.mark.parametrize("name", ["scores_oracle", "fusion_zscore", "table_round_trip",
                                  "roc_shape", "fairness_partition"])
def test_job_check_passes_and_its_corruption_fails(checks, job_outputs, name):
    import workloads

    inputs, outputs = job_outputs
    assert {r.model for r in outputs[2]} == {"kinematic", "graph", "fusion"}
    data = _job_check_data(workloads, inputs, outputs)[name]
    checks.CHECKS[name](data)
    with pytest.raises(checks.CheckFailed):
        checks.CHECKS[name](checks.CORRUPTIONS[name](data))
