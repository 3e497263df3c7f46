"""Session-wide fixtures: the full-scale catalog and one small synthetic
corpus shared by the tests that only read from them."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import benchmark_catalog  # noqa: E402

from avatarprint import files  # noqa: E402
from avatarprint.catalog import Generator  # noqa: E402
from avatarprint.synthbench import SynthCorpus, synth_corpus  # noqa: E402


@pytest.fixture(autouse=True)
def small_csv_chunks(monkeypatch):
    """Canonical CSV files read a few lines at a time, so that every test
    that loads trials or scores crosses chunk boundaries."""
    monkeypatch.setattr(files, "CHUNK_CHARS", 300)


@pytest.fixture(scope="session")
def benchmark_cat():
    """(catalog, split) with the published full-scale video counts."""
    return benchmark_catalog()


@pytest.fixture(scope="session")
def corpus_small(tmp_path_factory) -> SynthCorpus:
    """Small two-generator synthetic corpus; treat as read-only."""
    root = tmp_path_factory.mktemp("corpus_small")
    return synth_corpus(
        root,
        n_identities=8,
        videos_per_id=5,
        frames=(40, 56),
        dim=12,
        seed=7,
        generators=(Generator.GAGA, Generator.LIVE),
        targets_per_driver=2,
        clips_per_driver=1,
        eval_fraction=0.5,
    )
