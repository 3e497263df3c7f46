"""The benchmark's use of trial sets: perfbench's own trial checks, and the
corruptions its self-test feeds them, run here on small inputs, so an API
change that breaks the benchmark fails the tests instead of a benchmark run.
perfbench is imported from the checkout and never written to."""

import random
from pathlib import Path

import pytest

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
