"""Splits, exhaustive trial generation and the experiment matrix."""

import pytest

from avatarprint.catalog import Dataset, Generator
from avatarprint.protocol import (
    ALL_GENERATORS,
    EXCLUDE_IDENTICAL,
    INCLUDE_IDENTICAL,
    ExperimentSpec,
    ProtocolError,
    Split,
    experiment_matrix,
    generate_trials,
    load_split,
    load_trials,
    make_split,
    save_split,
    save_trials,
    trial_counts,
)

from helpers import benchmark_catalog, enumerate_trials_bruteforce, tiny_catalog


class TestSplit:
    def test_sides_must_be_disjoint(self):
        with pytest.raises(ProtocolError, match="both sides"):
            Split(frozenset({"a", "b"}), frozenset({"b"}))

    def test_side_of(self):
        split = Split(frozenset({"a"}), frozenset({"b"}))
        assert split.side_of("a") == "dev" and split.side_of("b") == "eval"
        with pytest.raises(ProtocolError, match="neither"):
            split.side_of("c")

    def test_validate_requires_full_coverage(self):
        catalog = tiny_catalog(n_ids=3)
        with pytest.raises(ProtocolError, match="does not cover"):
            Split(frozenset({"id00"}), frozenset({"id01"})).validate(catalog)

    def test_validate_rejects_straddling_videos(self):
        catalog = tiny_catalog(n_ids=3, cross_per_driver=1)
        # id00 drives id01's avatar, so they cannot sit on opposite sides
        split = Split(frozenset({"id00", "id02"}), frozenset({"id01"}))
        with pytest.raises(ProtocolError, match="straddles"):
            split.validate(catalog)

    def test_round_trips_through_json(self, tmp_path):
        split = Split(frozenset({"a", "b"}), frozenset({"c"}))
        save_split(split, tmp_path / "split.json")
        back = load_split(tmp_path / "split.json")
        assert back.development == split.development
        assert back.evaluation == split.evaluation


class TestMakeSplit:
    def test_canonical_quotas_on_benchmark_catalog(self, benchmark_cat):
        catalog, _ = benchmark_cat
        split = make_split(catalog, seed=3)
        crema_eval = [i for i in split.evaluation if i.startswith("crem")]
        rav_eval = [i for i in split.evaluation if i.startswith("ravd")]
        assert len(crema_eval) == 24 and len(rav_eval) == 8
        assert len(split.development) == 61 + 16
        assert split.imbalance == ()

    def test_same_seed_is_deterministic(self, benchmark_cat):
        catalog, _ = benchmark_cat
        a = make_split(catalog, seed=5)
        b = make_split(catalog, seed=5)
        assert a.evaluation == b.evaluation and a.development == b.development
        c = make_split(catalog, seed=6)
        c.validate(catalog)  # any seed yields a valid split

    def test_explicit_eval_counts_override(self):
        catalog = tiny_catalog(n_ids=6, cross_per_driver=0)
        split = make_split(catalog, eval_counts={Dataset.CREMA_D: 2})
        assert len(split.evaluation) == 2 and len(split.development) == 4
        with pytest.raises(ProtocolError, match="out of range"):
            make_split(catalog, eval_counts={Dataset.CREMA_D: 6})

    def test_two_identities_split_one_each(self):
        catalog = tiny_catalog(n_ids=2, cross_per_driver=0)
        split = make_split(catalog, eval_fraction=0.5)
        assert len(split.evaluation) == 1 and len(split.development) == 1

    def test_single_identity_rejected(self):
        catalog = tiny_catalog(n_ids=1, cross_per_driver=0)
        with pytest.raises(ProtocolError, match=">= 2"):
            make_split(catalog)

    def test_cooccurring_identities_stay_together(self):
        # every identity drives a neighbour, chaining all four into one ring,
        # which can never be cut; the split must report the imbalance
        catalog = tiny_catalog(n_ids=4, cross_per_driver=1)
        split = make_split(catalog, eval_fraction=0.5)
        assert split.imbalance
        assert split.evaluation == frozenset()  # the 4-cycle cannot fit quota 2

    def test_components_fill_quota_when_possible(self):
        # 6 identities, no cross videos: three per side at fraction 0.5
        catalog = tiny_catalog(n_ids=6, cross_per_driver=0)
        split = make_split(catalog, eval_fraction=0.5)
        assert len(split.evaluation) == 3 and split.imbalance == ()


def _formula_counts(catalog, split, convention):
    """Expected genuine/impostor totals from the self/cross video counts."""
    genuine = impostor = 0
    per_target_self = {}
    per_target_cross = {}
    for v in catalog.videos():
        if v.driver not in split.evaluation or v.target not in split.evaluation:
            continue
        key = (v.dataset, v.generator, v.target)
        bucket = per_target_self if v.is_self else per_target_cross
        bucket[key] = bucket.get(key, 0) + 1
    for key, n_self in per_target_self.items():
        if convention == INCLUDE_IDENTICAL:
            genuine += n_self * n_self
        else:
            genuine += n_self * (n_self - 1)
        impostor += n_self * per_target_cross.get(key, 0)
    return genuine, impostor


class TestGenerateTrials:
    @pytest.mark.parametrize("convention", [EXCLUDE_IDENTICAL, INCLUDE_IDENTICAL])
    def test_matches_bruteforce_enumeration(self, convention):
        catalog = tiny_catalog(n_ids=5, clips=3, cross_per_driver=2,
                               generators=(Generator.GAGA, Generator.LIVE))
        split = Split(frozenset({"id04"}), frozenset({"id00", "id01", "id02", "id03"}))
        trials = generate_trials(catalog, split, convention)
        want_gen, want_imp = enumerate_trials_bruteforce(
            catalog, split, convention == INCLUDE_IDENTICAL
        )
        got_gen = {(t.enroll_video, t.test_video) for t in trials if t.label == 1}
        got_imp = {(t.enroll_video, t.test_video) for t in trials if t.label == 0}
        assert got_gen == want_gen
        assert got_imp == want_imp
        assert len(trials) == len(got_gen) + len(got_imp)  # no duplicate rows

    @pytest.mark.parametrize("convention", [EXCLUDE_IDENTICAL, INCLUDE_IDENTICAL])
    def test_count_formulas(self, convention):
        catalog = tiny_catalog(n_ids=4, clips=4, cross_per_driver=3)
        split = Split(frozenset({"id03"}), frozenset({"id00", "id01", "id02"}))
        trials = generate_trials(catalog, split, convention)
        want_gen, want_imp = _formula_counts(catalog, split, convention)
        assert sum(t.label for t in trials) == want_gen
        assert sum(1 - t.label for t in trials) == want_imp

    def test_canonical_order_and_ids(self):
        catalog = tiny_catalog(n_ids=3, clips=2, cross_per_driver=1,
                               generators=(Generator.LIVE, Generator.GAGA))
        split = Split(frozenset(), frozenset({"id00", "id01", "id02"}))
        trials = generate_trials(catalog, split)
        assert [t.trial_id for t in trials] == [f"t{i + 1:08d}" for i in range(len(trials))]
        assert trials == generate_trials(catalog, split)
        gens = [t.generator for t in trials]
        assert gens == sorted(gens)  # GAGA block precedes LIVE regardless of input order

    def test_enrollment_is_always_a_self_video(self):
        catalog = tiny_catalog(n_ids=3, cross_per_driver=2)
        split = Split(frozenset(), frozenset({"id00", "id01", "id02"}))
        for t in generate_trials(catalog, split):
            v = catalog.video(t.enroll_video)
            assert v.is_self

    def test_dev_identities_never_appear(self):
        catalog = tiny_catalog(n_ids=4, cross_per_driver=1)
        split = Split(frozenset({"id02", "id03"}), frozenset({"id00", "id01"}))
        for t in generate_trials(catalog, split):
            for vid in (t.enroll_video, t.test_video):
                v = catalog.video(vid)
                assert {v.driver, v.target} <= split.evaluation

    def test_unknown_convention_rejected(self):
        catalog = tiny_catalog()
        split = Split(frozenset(), frozenset({"id00", "id01", "id02", "id03"}))
        with pytest.raises(ProtocolError, match="convention"):
            generate_trials(catalog, split, "both")

    def test_empty_evaluation_rejected(self):
        catalog = tiny_catalog()
        all_dev = Split(frozenset({"id00", "id01", "id02", "id03"}), frozenset())
        with pytest.raises(ProtocolError, match="empty"):
            generate_trials(catalog, all_dev)

    def test_trial_counts_keying(self):
        catalog = tiny_catalog(n_ids=3, clips=2, cross_per_driver=1)
        split = Split(frozenset(), frozenset({"id00", "id01", "id02"}))
        counts = trial_counts(generate_trials(catalog, split))
        assert counts[("CREMA-D", "GAGA", 1)] == 3 * 2 * 1  # 3 ids, 2 enrolls, 1 other
        assert counts[("CREMA-D", "GAGA", 0)] == 3 * 2 * 1  # 1 cross video per target


class TestTrialIO:
    def test_round_trip(self, tmp_path):
        catalog = tiny_catalog()
        split = Split(frozenset(), frozenset({"id00", "id01", "id02", "id03"}))
        trials = generate_trials(catalog, split)
        save_trials(trials, tmp_path / "trials.csv")
        assert load_trials(tmp_path / "trials.csv") == trials

    def test_save_is_byte_deterministic(self, tmp_path):
        catalog = tiny_catalog()
        split = Split(frozenset(), frozenset({"id00", "id01", "id02", "id03"}))
        trials = generate_trials(catalog, split)
        save_trials(trials, tmp_path / "a.csv")
        save_trials(trials, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "trials.csv"
        p.write_text("x,y\n")
        with pytest.raises(ProtocolError, match="bad header"):
            load_trials(p)

    def test_loaded_trials_share_repeated_strings(self, tmp_path):
        catalog = tiny_catalog()
        split = Split(frozenset(), frozenset({"id00", "id01", "id02", "id03"}))
        save_trials(generate_trials(catalog, split), tmp_path / "trials.csv")
        loaded = load_trials(tmp_path / "trials.csv")
        assert len({t.enroll_video for t in loaded}) < len(loaded)
        seen: dict[str, str] = {}
        for t in loaded:
            for value in (t.dataset, t.generator, t.enroll_video, t.test_video):
                assert seen.setdefault(value, value) is value


class TestCheckLabels:
    def test_generated_trials_pass(self):
        catalog = tiny_catalog(n_ids=3, cross_per_driver=1)
        split = Split(frozenset(), frozenset({"id00", "id01", "id02"}))
        trials = generate_trials(catalog, split)
        assert {t.label for t in trials} == {0, 1}
        for t in trials:
            enroll, test = catalog.video(t.enroll_video), catalog.video(t.test_video)
            assert enroll.is_self and enroll.target == test.target
            assert t.label == int(test.driver == enroll.driver)


class TestExperimentSpec:
    def test_intra_requires_matching_conditions(self):
        ExperimentSpec("intra", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",))
        with pytest.raises(ProtocolError, match="identical"):
            ExperimentSpec("intra", "CREMA-D", "GAGA", "CREMA-D", ("LIVE",))
        with pytest.raises(ProtocolError, match="identical"):
            ExperimentSpec("intra", "CREMA-D", "GAGA", "RAVDESS", ("GAGA",))

    def test_cross_generator_stays_in_dataset(self):
        ExperimentSpec("cross_generator", "CREMA-D", "GAGA", "CREMA-D", ("LIVE", "HUNY"))
        ExperimentSpec("cross_generator", "CREMA-D", ALL_GENERATORS, "CREMA-D", ("GAGA",))
        with pytest.raises(ProtocolError, match="one dataset"):
            ExperimentSpec("cross_generator", "CREMA-D", "GAGA", "RAVDESS", ("LIVE",))

    def test_cross_dataset_keeps_generator_fixed(self):
        ExperimentSpec("cross_dataset", "CREMA-D", "GAGA", "RAVDESS", ("GAGA",))
        with pytest.raises(ProtocolError, match="two datasets"):
            ExperimentSpec("cross_dataset", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",))
        with pytest.raises(ProtocolError, match="generator fixed"):
            ExperimentSpec("cross_dataset", "CREMA-D", "GAGA", "RAVDESS", ("LIVE",))
        with pytest.raises(ProtocolError, match="generator fixed"):
            ExperimentSpec("cross_dataset", "CREMA-D", ALL_GENERATORS, "RAVDESS",
                           (ALL_GENERATORS,))

    def test_unknown_scenario(self):
        with pytest.raises(ProtocolError, match="scenario"):
            ExperimentSpec("zero_shot", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",))

    def test_dict_round_trip(self):
        spec = ExperimentSpec("cross_generator", "CREMA-D", "GAGA", "CREMA-D",
                              ("LIVE",), models=("graph", "fusion"))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestExperimentMatrix:
    def test_expansion_and_ids(self):
        specs = [
            ExperimentSpec("cross_generator", "CREMA-D", "GAGA", "CREMA-D",
                           ("LIVE", "HUNY"), models=("graph",)),
        ]
        jobs = experiment_matrix(specs)
        assert [j.job_id for j in jobs] == [
            "CREMA-D-GAGA_to_CREMA-D-HUNY",
            "CREMA-D-GAGA_to_CREMA-D-LIVE",
        ]
        assert all((j.train_dataset, j.train_generator) == ("CREMA-D", "GAGA") for j in jobs)

    def test_duplicates_merge_models(self):
        specs = [
            ExperimentSpec("intra", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",),
                           models=("graph",)),
            ExperimentSpec("intra", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",),
                           models=("dinov2", "graph")),
        ]
        jobs = experiment_matrix(specs)
        assert len(jobs) == 1
        assert jobs[0].models == ("graph", "dinov2")

    def test_catalog_validation(self):
        catalog = tiny_catalog(generators=(Generator.GAGA,))
        good = ExperimentSpec("intra", "CREMA-D", "GAGA", "CREMA-D", ("GAGA",))
        assert experiment_matrix([good], catalog)
        with pytest.raises(ProtocolError, match="unknown dataset"):
            experiment_matrix(
                [ExperimentSpec("cross_dataset", "CREMA-D", "GAGA", "RAVDESS", ("GAGA",))],
                catalog,
            )
        with pytest.raises(ProtocolError, match="unknown generator"):
            experiment_matrix(
                [ExperimentSpec("intra", "CREMA-D", "LIVE", "CREMA-D", ("LIVE",))],
                catalog,
            )

    def test_all_generators_train_key(self):
        spec = ExperimentSpec("cross_generator", "CREMA-D", ALL_GENERATORS,
                              "CREMA-D", ("GAGA",))
        (job,) = experiment_matrix([spec])
        assert (job.train_dataset, job.train_generator) == ("CREMA-D", "All")
        assert job.condition == "CREMA-D/All->CREMA-D/GAGA"
