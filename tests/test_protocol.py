"""Splits, exhaustive trial generation, trial sets and the experiment matrix."""

import csv
import io
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from avatarprint import files, protocol
from avatarprint.catalog import AvatarVideo, Catalog, Dataset, Generator, IdentityRecord, cross_video_id
from avatarprint.protocol import (
    ALL_GENERATORS,
    CONVENTIONS,
    EXCLUDE_IDENTICAL,
    INCLUDE_IDENTICAL,
    MAX_TRIALS,
    TRIAL_HEADER,
    ExperimentSpec,
    ProtocolError,
    Split,
    Trial,
    TrialSet,
    experiment_matrix,
    generate_trials,
    load_split,
    load_trials,
    make_split,
    named_codes,
    read_trial_table,
    save_split,
    save_trials,
    trial_counts,
    trial_ids,
    write_trial_table,
)

from helpers import (
    benchmark_catalog,
    enumerate_trials_bruteforce,
    tiny_catalog,
    traced_peak,
    trials_from_rows,
)


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

    def test_same_seed_is_deterministic(self, benchmark_cat):
        catalog, _ = benchmark_cat
        a = make_split(catalog, seed=5)
        b = make_split(catalog, seed=5)
        assert a.evaluation == b.evaluation and a.development == b.development
        c = make_split(catalog, seed=6)
        c.validate(catalog)  # any seed yields a valid split

    def test_two_identities_split_one_each(self):
        catalog = tiny_catalog(n_ids=2, cross_per_driver=0)
        split = make_split(catalog, eval_fraction=0.5)
        assert len(split.evaluation) == 1 and len(split.development) == 1

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -1.0, 2.0, float("nan")])
    def test_eval_fraction_outside_0_1_rejected(self, fraction):
        catalog = tiny_catalog(n_ids=12, cross_per_driver=0)
        with pytest.raises(ProtocolError, match=r"eval_fraction must lie in \(0, 1\)"):
            make_split(catalog, eval_fraction=fraction)

    def test_single_identity_rejected(self):
        catalog = tiny_catalog(n_ids=1, cross_per_driver=0)
        with pytest.raises(ProtocolError, match=">= 2"):
            make_split(catalog)

    def test_cooccurring_identities_stay_together(self):
        # every identity drives a neighbour, chaining all four into one ring,
        # which can never be cut: the ring cannot fit quota 2, and a split
        # with no evaluation identity is refused
        catalog = tiny_catalog(n_ids=4, cross_per_driver=1)
        with pytest.raises(ProtocolError, match=r"CREMA-D: .*quota of 2 .*component sizes \[4\]"):
            make_split(catalog, eval_fraction=0.5)

    def test_components_fill_quota_when_possible(self):
        # 6 identities, no cross videos: three per side at fraction 0.5
        catalog = tiny_catalog(n_ids=6, cross_per_driver=0)
        split = make_split(catalog, eval_fraction=0.5)
        assert len(split.evaluation) == 3 and len(split.development) == 3


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


def _catalog(renderings, datasets=None):
    """A catalog of (generator, target, driver, clip) renderings; identities
    are CREMA-D unless ``datasets`` maps them elsewhere."""
    datasets = datasets or {}
    ids = sorted({i for _, target, driver, _ in renderings for i in (target, driver)})
    dataset = {i: datasets.get(i, Dataset.CREMA_D) for i in ids}
    return Catalog(
        [IdentityRecord(i, dataset[i]) for i in ids],
        [AvatarVideo(cross_video_id(gen, target, driver, clip), dataset[target], gen,
                     target, driver, clip)
         for gen, target, driver, clip in renderings],
    )


G, L = Generator.GAGA, Generator.LIVE
# id01 has one self video and is impersonated; id02 has self videos and no
# impostor; id03 is impersonated in GAGA but has a self video only in LIVE;
# id04 has one self video and nothing else; ravd00/ravd01 are a second dataset
EDGE_CATALOG = _catalog(
    [(G, "id00", "id00", c) for c in range(3)]
    + [(G, "id00", "id01", 0), (G, "id00", "id02", 1)]
    + [(G, "id01", "id01", 0), (G, "id01", "id00", 0)]
    + [(G, "id02", "id02", c) for c in range(3)]
    + [(G, "id03", "id00", 0), (L, "id03", "id03", 0), (L, "id03", "id01", 0)]
    + [(L, "id00", "id00", c) for c in range(2)]
    + [(G, "id04", "id04", 0)]
    + [(G, "ravd00", "ravd00", c) for c in range(2)] + [(G, "ravd00", "ravd01", 0)],
    datasets={"ravd00": Dataset.RAVDESS, "ravd01": Dataset.RAVDESS},
)


def _canonical_trials(catalog, split, convention):
    """The brute-force pairs as trials in canonical order: (dataset,
    generator, target, enroll video, genuine before impostor, test video)."""
    genuine, impostor = enumerate_trials_bruteforce(
        catalog, split, convention == INCLUDE_IDENTICAL)
    rows = []
    for pairs, label in ((genuine, 1), (impostor, 0)):
        for enroll, test in pairs:
            video = catalog.video(enroll)
            rows.append((video.dataset.value, video.generator.value, video.target,
                         enroll, 1 - label, test))
    return [
        Trial(f"t{i:08d}", dataset, generator, enroll, test, 1 - impostor)
        for i, (dataset, generator, _, enroll, impostor, test) in enumerate(sorted(rows), 1)
    ]


def _rows(trials):
    return [[*t[:5], str(t.label)] for t in trials]


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

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("catalog, evaluation", [
        (tiny_catalog(n_ids=5, clips=3, cross_per_driver=2, generators=(G, L)),
         {"id00", "id01", "id02", "id03"}),
        (EDGE_CATALOG, {"id00", "id01", "id02", "id03", "id04", "ravd00", "ravd01"}),
    ], ids=["tiny", "edges"])
    def test_order_equals_sorted_bruteforce(self, catalog, evaluation, convention):
        split = Split(frozenset(set(catalog.identities) - evaluation), frozenset(evaluation))
        trials = generate_trials(catalog, split, convention)
        want = _canonical_trials(catalog, split, convention)
        assert list(trials) == want
        assert trial_counts(trials) == Counter((t.dataset, t.generator, t.label) for t in want)
        assert trials.videos == tuple(sorted({v for t in want for v in t[3:5]}))

    def test_edge_blocks(self):
        split = Split(frozenset(), frozenset(EDGE_CATALOG.identities))
        trials = generate_trials(EDGE_CATALOG, split)
        gaga = trials.select("CREMA-D", "GAGA")
        one_self = cross_video_id(G, "id01", "id01", 0)
        assert [t.label for t in gaga if t.enroll_video == one_self] == [0]
        no_impostor = {t.label for t in gaga if t.enroll_video.startswith("gaga_id02")}
        assert no_impostor == {1}
        # id03's GAGA impersonation has no GAGA enrollment; id04 is in no trial
        assert cross_video_id(G, "id03", "id00", 0) not in trials.videos
        assert cross_video_id(G, "id04", "id04", 0) not in trials.videos
        assert cross_video_id(G, "id04", "id04", 0) in {
            t.test_video for t in generate_trials(EDGE_CATALOG, split, INCLUDE_IDENTICAL)}

    def test_too_many_trials_for_the_ids(self):
        catalog = _catalog([(G, "id00", "id00", c) for c in range(10_001)])
        split = Split(frozenset(), frozenset({"id00"}))
        assert 10_001 * 10_000 > MAX_TRIALS
        with pytest.raises(ProtocolError, match="100,010,000 trials"):
            generate_trials(catalog, split)

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

    @pytest.mark.parametrize("text", [
        "x,y\n",
        # a score table: the trial list and a column per model
        "trial_id,dataset,generator,enroll_video,test_video,label,m\n"
        "t00000001,CREMA-D,GAGA,a,b,1,0.5\n",
    ], ids=["other", "score-table"])
    def test_bad_header(self, tmp_path, text):
        p = tmp_path / "trials.csv"
        p.write_text(text)
        with pytest.raises(ProtocolError, match=f"^{p}: bad header "):
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


def _random_trial_rows(n, seed=0):
    """Trial rows as save_trials writes them: non-ASCII and repeated video
    ids, conditions that change within a few rows, ids out of order."""
    rng = random.Random(seed)
    videos = [f"v{i}" for i in range(8)] + ["vidéo", "日本語", "x" * 90]
    conditions = [("CREMA-D", "GAGA"), ("CREMA-D", "LIVE"), ("RAVDESS", "GAGA")]
    rows = []
    for i in range(n):
        dataset, generator = conditions[i // 7 % 3]
        rows.append([f"t{rng.randrange(1, 10**8):08d}", dataset, generator,
                     rng.choice(videos), rng.choice(videos), rng.choice("01")])
    return rows


def _write_trial_rows(path, rows, tail=""):
    path.write_text(",".join(TRIAL_HEADER) + "\n" + "".join(",".join(r) + "\n" for r in rows)
                    + tail, encoding="utf-8")
    return path


def _by_rows(path):
    """What load_trials gives for a copy of ``path`` with \\r\\n line ends,
    which only the csv module splits: the trials, or the error type and the
    message, with ``path`` named in place of the copy."""
    copy = path.with_name(f"crlf-{path.name}")
    copy.write_bytes(path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\r\n"))
    outcome = _outcome(load_trials, copy)
    if isinstance(outcome, TrialSet):
        return outcome
    return outcome[0], outcome[1].replace(str(copy), str(path))


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - compared whole
        return type(exc), str(exc)


class TestCanonicalTrials:
    @pytest.mark.parametrize("chunk", [1, 100, 300, 1 << 16])
    @pytest.mark.parametrize("n", [0, 1, 250])
    def test_columns_equal_the_row_reader(self, tmp_path, monkeypatch, chunk, n):
        rows = _random_trial_rows(n, seed=n)
        path = _write_trial_rows(tmp_path / "trials.csv", rows)
        expected = trials_from_rows(rows)
        assert _by_rows(path) == expected
        monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
        monkeypatch.setattr(files.csv, "reader", None)  # the csv module never reads it
        loaded = load_trials(path)
        assert loaded == expected and _rows(loaded) == rows

    @pytest.mark.parametrize("row", [
        ["t1", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t+0000001", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t0000000x", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t\uff100000001", "CREMA-D", "GAGA", "a", "b", "1"],
        ["T00000001", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t00000001", "CREMA-D", "GAGA", "a", "b", "2"],
        ["t00000001", "CREMA-D", "GAGA", "a", "b", ""],
        ["t00000001", "CREMA-D", "GAGA", "a", "b"],
        ["t00000001", "CREMA-D", "GAGA", "a", "b", "1", "x"],
        [],
        ['"t000,0001"', "CREMA-D", "GAGA", "a", "b", "1"],
    ], ids=["short", "sign", "letter", "wide-digit", "capital", "label", "no-label", "fields",
            "long", "blank", "quoted-comma"])
    @pytest.mark.parametrize("chunk", [1, 37, 300, 1 << 16])
    def test_late_malformed_row_gives_the_row_readers_error(self, tmp_path, monkeypatch, row,
                                                           chunk):
        rows = _random_trial_rows(300)
        rows[260] = row
        path = _write_trial_rows(tmp_path / "trials.csv", rows)
        expected = _by_rows(path)
        assert expected[0] is ProtocolError and f"{path}: row 261 " in expected[1]
        monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
        assert _outcome(load_trials, path) == expected

    def test_more_than_128_conditions_gives_the_row_readers_error(self, tmp_path):
        rows = [[f"t{i:08d}", "CREMA-D", f"g{i}", "a", "b", "1"] for i in range(1, 131)]
        path = _write_trial_rows(tmp_path / "trials.csv", rows)
        expected = _by_rows(path)
        assert expected[0] is ProtocolError and "row 129 " in expected[1]
        assert _outcome(load_trials, path) == expected

    @pytest.mark.parametrize("change", ["quoted", "crlf", "no-final-newline", "blank-last"])
    def test_other_files_fall_back_to_the_row_reader(self, tmp_path, change):
        rows = _random_trial_rows(200)
        path = tmp_path / "trials.csv"
        if change == "quoted":
            rows[150][3] = 'say "hi", then'
            save_trials(trials_from_rows(rows), path)
        else:
            _write_trial_rows(path, rows)
            text = path.read_bytes()
            path.write_bytes({"crlf": text.replace(b"\n", b"\r\n"),
                              "no-final-newline": text[:-1],
                              "blank-last": text + b"\n"}[change])
        expected = _by_rows(path)
        assert _outcome(load_trials, path) == expected
        if change == "blank-last":
            assert expected[0] is ProtocolError and "row 201 " in expected[1]
        else:
            assert expected == trials_from_rows(rows)

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        rows = [[f"t{i:08d}", "CREMA-D", "GAGA", f"a{i}", "b", "1"] for i in range(1, 2001)]
        path = _write_trial_rows(tmp_path / "trials.csv", rows)
        text = path.read_bytes()
        path.write_bytes(text.replace(b"a1500,", b"a\xff,"))
        with pytest.raises(ProtocolError) as raised:
            load_trials(path)
        assert str(raised.value) == f"{path}: line 1501 is not UTF-8: invalid start byte"


class TestTrialSet:
    @pytest.fixture
    def trials(self):
        catalog = tiny_catalog(n_ids=4, clips=2, cross_per_driver=2, generators=(G, L))
        return generate_trials(catalog, Split(frozenset(), frozenset(catalog.identities)))

    def test_sequence_contract(self, trials):
        rows = list(trials)
        assert rows == [trials[i] for i in range(len(trials))]
        assert trials[-1] == rows[-1] and isinstance(trials[0], Trial)
        with pytest.raises(IndexError):
            trials[len(trials)]
        sample = random.Random(3).sample(trials, 6)
        assert len(sample) == 6 and all(t in rows for t in sample)
        part = trials[5:11]
        assert isinstance(part, TrialSet) and list(part) == rows[5:11]
        assert part[0].trial_id == "t00000006"
        impostor = trials[trials.label == 0]
        assert list(impostor) == [t for t in rows if t.label == 0]
        assert impostor.videos == tuple(sorted({v for t in impostor for v in t[3:5]}))
        assert list(trials.select(generator="LIVE")) == [t for t in rows if t.generator == "LIVE"]
        assert list(trials.select("CREMA-D", "GAGA")) == [t for t in rows if t.generator == "GAGA"]
        assert len(trials.select("RAVDESS")) == 0

    def test_equality_is_row_equality(self, trials):
        rows = _rows(trials)
        assert trials_from_rows(rows) == trials
        assert trials[:-1] != trials and trials[:] == trials
        assert trials[np.arange(len(trials))[::-1]] != trials
        with pytest.raises(TypeError):
            hash(trials)
        for field, value in ((5, "0"), (3, rows[0][4]), (2, "LIVE")):
            changed = [list(r) for r in rows]
            assert changed[0][field] != value
            changed[0][field] = value
            assert trials_from_rows(changed) != trials

    def test_quoted_video_ids_round_trip(self, tmp_path):
        rows = [
            ["t00000001", "CREMA-D", "GAGA", "a,b", 'say "hi"', "1"],
            ["t00000002", "CREMA-D", "GAGA", "a,b", "", "0"],
            ["t00000007", "RAVDESS", "LIVE", 'say "hi"', "plain", "0"],
        ]
        trials = trials_from_rows(rows)
        save_trials(trials, tmp_path / "trials.csv")
        with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRIAL_HEADER)
            writer.writerows(rows)
        assert (tmp_path / "trials.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        loaded = load_trials(tmp_path / "trials.csv")
        assert loaded == trials and _rows(loaded) == rows

    @pytest.mark.parametrize("row", [
        ["t1", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t+0000001", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t0000000x", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t\uff100000001", "CREMA-D", "GAGA", "a", "b", "1"],
        ["t00000001", "CREMA-D", "GAGA", "a", "b", "2"],
        ["t00000001", "CREMA-D", "GAGA", "a", "b"],
    ], ids=["short", "sign", "letter", "wide-digit", "label", "fields"])
    @pytest.mark.parametrize("models", [[], ["m"]], ids=["trial-list", "score-table"])
    def test_malformed_row_names_the_file(self, tmp_path, row, models):
        path = tmp_path / "trials.csv"
        scores = ["0.5"] * len(models)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [TRIAL_HEADER + models, ["t00000001", "CREMA-D", "GAGA", "a", "b", "1", *scores],
                 row + scores])
        with pytest.raises(ProtocolError, match="row 2") as raised:
            read_trial_table(path, scored=bool(models))
        assert str(path) in str(raised.value)


def _csv_writer_bytes(rows, models=(), scores=()):
    """What ``csv.writer`` (lines ending in a newline) writes for the trial
    header and ``rows``, then a column per model of ``models`` holding
    ``scores``, each its repr and NaN an empty field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([*TRIAL_HEADER, *models])
    for row, values in itertools.zip_longest(rows, np.transpose(scores).tolist(), fillvalue=()):
        writer.writerow([*row, *("" if v != v else repr(v) for v in values)])
    return buffer.getvalue().encode()


def _random_scores(models, n, seed=0):
    """(models, n) scores of every size, with an unscorable one now and then."""
    rng = np.random.default_rng(seed)
    shape = (len(models), n)
    scores = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-300, 300, shape)
    scores[rng.random(scores.shape) < 0.1] = np.nan
    return scores


ODD_ROWS = [
    ["t00000001", "CREMA-D", "GAGA", "a,b", 'say "hi"', "1"],
    ["t00000002", "CREMA-D", "GAGA", "two\nlines", "vidéo 日本", "0"],
    ["t00000003", "RAV,DESS", 'GA"GA', "", "a,b", "1"],
    ["t00000004", "CREMA-D", "GAGA", "x", "", "0"],
]


class TestSaveTrials:
    @pytest.mark.parametrize("rows", [
        _random_trial_rows(300),
        ODD_ROWS,
        [["t00000001", "CREMA-D", "GAGA", "x" * 10_000, "y", "1"], *_random_trial_rows(20)],
        [[f"t{n:08d}", "CREMA-D", "GAGA", "a", "b", "1"] for n in (0, 1, 99_999_999)],
        [],
    ], ids=["random", "odd-ids", "long-id", "numbers", "empty"])
    @pytest.mark.parametrize("chunk_bytes", [None, 1000, 1])
    @pytest.mark.parametrize("models", [(), ("m1", "fusion")], ids=["trials", "scores"])
    def test_writes_what_the_csv_module_writes(self, tmp_path, monkeypatch, rows, chunk_bytes,
                                               models):
        if chunk_bytes:
            monkeypatch.setattr(protocol, "CHUNK_BYTES", chunk_bytes)
        trials = trials_from_rows(rows)
        scores = _random_scores(models, len(rows))
        path = tmp_path / "trials.csv"
        write_trial_table(trials, path, models, scores)
        assert path.read_bytes() == _csv_writer_bytes(rows, models, scores)
        loaded, named, values = read_trial_table(path, scored=bool(models))
        assert loaded == trials and named == models and values.tobytes() == scores.tobytes()

    def test_makes_no_python_object_per_trial(self, tmp_path, monkeypatch):
        rows = _random_trial_rows(300)
        trials = trials_from_rows(rows)

        def per_trial(*_):
            raise AssertionError("a Python step per trial")

        monkeypatch.setattr(protocol, "trial_ids", per_trial)
        monkeypatch.setattr(TrialSet, "__iter__", per_trial)
        save_trials(trials, tmp_path / "trials.csv")
        assert (tmp_path / "trials.csv").read_bytes() == _csv_writer_bytes(rows)

    def test_a_long_id_keeps_each_chunk_within_its_byte_budget(self, tmp_path):
        rng = np.random.default_rng(5)
        n, videos = 200_000, [f"video{i:05d}" for i in range(5_000)]
        columns = (np.arange(1, n + 1), np.zeros(n), rng.integers(0, len(videos), n),
                   rng.integers(0, len(videos), n), rng.integers(0, 2, n))
        base, long = (traced_peak(save_trials, TrialSet(vocab, [("CREMA-D", "GAGA")], *columns),
                                  tmp_path / "trials.csv")
                      for vocab in (videos, [*videos[:-1], "x" * 10_000]))
        assert long < base + 2 * 2**20

    def test_trial_ids_are_t_and_8_digits(self):
        numbers = np.array([0, 1, 99_999_999, *range(12_345, 12_400)], dtype=np.int32)
        assert trial_ids(numbers) == [f"t{n:08d}" for n in numbers.tolist()]
        assert trial_ids(numbers[:0]) == []


class TestNamedCodes:
    def test_renumbers_in_the_columns_dtype_with_no_wide_temporary(self):
        # a million int32 codes into an unsorted vocabulary, every other entry unused
        vocab = [f"video{i:06d}" for i in reversed(range(1000))]
        column = 2 * np.random.default_rng(3).integers(0, 500, 1_000_000).astype(np.int32)
        named, (codes,) = named_codes(vocab, column)
        assert named == tuple(sorted(vocab[i] for i in range(0, 1000, 2)))
        position = {name: i for i, name in enumerate(named)}
        by_old_code = np.array([position.get(name, -1) for name in vocab])
        assert codes.dtype == np.int32 and np.array_equal(codes, by_old_code[column])
        vocab_bytes = sys.getsizeof(vocab) + sum(sys.getsizeof(v) for v in vocab)
        assert traced_peak(named_codes, vocab, column) < 2 * column.nbytes + vocab_bytes


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
        assert ExperimentSpec.from_dict(json.loads(json.dumps(asdict(spec)))) == spec


class TestExperimentMatrix:
    CATALOG = tiny_catalog(generators=(Generator.GAGA, Generator.LIVE, Generator.HUNY))

    def test_expansion_and_ids(self):
        specs = [
            ExperimentSpec("cross_generator", "CREMA-D", "GAGA", "CREMA-D",
                           ("LIVE", "HUNY"), models=("graph",)),
        ]
        jobs = experiment_matrix(specs, self.CATALOG)
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
        jobs = experiment_matrix(specs, self.CATALOG)
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
        (job,) = experiment_matrix([spec], self.CATALOG)
        assert (job.train_dataset, job.train_generator) == ("CREMA-D", "All")
        assert job.condition == "CREMA-D/All->CREMA-D/GAGA"
