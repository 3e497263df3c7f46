"""Catalog invariants, published-count validation and manifest round trips."""

import pytest

from avatarprint.catalog import (
    AgeRange,
    AvatarVideo,
    CANONICAL_COUNTS,
    CANONICAL_TOTAL_VIDEOS,
    Catalog,
    CatalogError,
    Dataset,
    Ethnicity,
    Gender,
    Generator,
    IdentityRecord,
    ManifestError,
    build_cross_assignments,
    canonical_count_table,
    cross_video_id,
    load_manifest,
    save_manifest,
    validate_counts,
)
from avatarprint.protocol import Split

from helpers import tiny_catalog


def _ident(i, dataset=Dataset.CREMA_D):
    return IdentityRecord(i, dataset)


def _video(gen, target, driver, clip, dataset=Dataset.CREMA_D):
    return AvatarVideo(cross_video_id(gen, target, driver, clip), dataset, gen, target, driver, clip)


class TestRecords:
    def test_self_vs_cross(self):
        self_vid = _video(Generator.GAGA, "a", "a", 0)
        cross_vid = _video(Generator.GAGA, "a", "b", 0)
        assert self_vid.is_self and self_vid.reenactment == "self"
        assert not cross_vid.is_self and cross_vid.reenactment == "cross"

    def test_video_id_format(self):
        assert cross_video_id(Generator.LIVE, "t01", "d02", 7) == "live_t01_d02_c007"

    def test_bad_records_rejected(self):
        with pytest.raises(CatalogError):
            IdentityRecord("", Dataset.CREMA_D)
        with pytest.raises(CatalogError):
            AvatarVideo("v", Dataset.CREMA_D, Generator.GAGA, "a", "a", -1)

    @pytest.mark.parametrize("bad", ["a\rb", "a\nb", "a\tb", "\x00"])
    def test_control_characters_in_ids_rejected(self, bad):
        # no CSV written with lines ending in "\n" round-trips a "\r"
        with pytest.raises(CatalogError, match="control character"):
            IdentityRecord(bad, Dataset.CREMA_D)
        with pytest.raises(CatalogError, match="control character"):
            AvatarVideo(bad, Dataset.CREMA_D, Generator.GAGA, "a", "a", 0)
        assert IdentityRecord("a b-é", Dataset.CREMA_D).id == "a b-é"


class TestCatalogInvariants:
    def test_duplicate_video_id(self):
        ids = [_ident("a")]
        vid = _video(Generator.GAGA, "a", "a", 0)
        dup = AvatarVideo(vid.video_id, Dataset.CREMA_D, Generator.GAGA, "a", "a", 1)
        with pytest.raises(CatalogError, match="duplicate video_id"):
            Catalog(ids, [vid, dup])

    def test_duplicate_rendering_tuple(self):
        ids = [_ident("a")]
        vid = _video(Generator.GAGA, "a", "a", 0)
        alias = AvatarVideo("other_name", Dataset.CREMA_D, Generator.GAGA, "a", "a", 0)
        with pytest.raises(CatalogError, match="duplicate .target, driver"):
            Catalog(ids, [vid, alias])

    def test_unknown_identity(self):
        with pytest.raises(CatalogError, match="unknown driver"):
            Catalog([_ident("a")], [_video(Generator.GAGA, "a", "ghost", 0)])

    def test_dataset_mismatch(self):
        ids = [_ident("a", Dataset.RAVDESS)]
        with pytest.raises(CatalogError, match="belongs to"):
            Catalog(ids, [_video(Generator.GAGA, "a", "a", 0, Dataset.CREMA_D)])


class TestQueries:
    def test_filters(self):
        cat = tiny_catalog(n_ids=3, clips=2, cross_per_driver=1,
                           generators=(Generator.GAGA, Generator.HUNY))
        assert len(cat) == 3 * (2 + 1) * 2
        self_videos = list(cat.videos(reenactment="self"))
        assert len(self_videos) == 12
        assert all(v.is_self for v in self_videos)
        assert list(cat.videos(dataset=Dataset.RAVDESS)) == []
        assert cat.identity_ids() == ["id00", "id01", "id02"]
        assert cat.generators() == [Generator.GAGA, Generator.HUNY]
        assert "gaga_id00_id00_c000" in cat
        assert cat.video("gaga_id01_id00_c000").driver == "id00"
        with pytest.raises(CatalogError):
            cat.video("nope")

    def test_filter_view(self):
        cat = tiny_catalog(n_ids=4, clips=2, cross_per_driver=1,
                           generators=(Generator.GAGA, Generator.HUNY))
        sub = cat.filter(generators=[Generator.HUNY])
        assert sub.identity_ids() == ["id00", "id01", "id02", "id03"]
        assert all(v.generator == Generator.HUNY for v in sub.videos())
        assert {v.video_id for v in sub.videos(reenactment="cross")} == {
            "huny_id01_id00_c000", "huny_id02_id01_c000", "huny_id03_id02_c000",
            "huny_id00_id03_c000"}
        assert cat.filter(datasets=[Dataset.RAVDESS]).identity_ids() == []


class TestPublishedCounts:
    def test_count_table_is_per_generator(self):
        table = canonical_count_table("evaluation")
        assert table[(Dataset.CREMA_D, Generator.LIVE, "cross")] == 3438
        assert table[(Dataset.RAVDESS, Generator.GAGA, "self")] == 480
        with pytest.raises(CatalogError):
            canonical_count_table("nope")

    def test_totals_are_consistent(self):
        per_generator = sum(CANONICAL_COUNTS["full"].values())
        assert per_generator * len(Generator) == CANONICAL_TOTAL_VIDEOS
        for dataset in Dataset:
            for kind in ("self", "cross"):
                dev = CANONICAL_COUNTS["development"][(dataset, kind)]
                ev = CANONICAL_COUNTS["evaluation"][(dataset, kind)]
                assert dev + ev == CANONICAL_COUNTS["full"][(dataset, kind)]

    def test_benchmark_catalog_matches_every_profile(self, benchmark_cat):
        catalog, _ = benchmark_cat
        report = validate_counts(catalog, canonical_count_table("full"))
        assert report.passed, [str(c) for c in report.failures()]
        assert len(catalog) == CANONICAL_TOTAL_VIDEOS

    def test_validation_reports_mismatch_without_raising(self):
        cat = tiny_catalog()
        report = validate_counts(cat, canonical_count_table("full"))
        assert not report.passed
        assert len(report.failures()) > 0
        assert any("FAIL" in line for line in report.lines())


class TestCrossAssignmentBuilder:
    def _self_only(self, n=6, clips=3):
        return tiny_catalog(n_ids=n, clips=clips, cross_per_driver=0)

    @staticmethod
    def _one_side(catalog):
        """A split with every identity on the development side."""
        return Split(frozenset(catalog.identities), frozenset())

    def test_requires_self_only_catalog(self):
        catalog = tiny_catalog(cross_per_driver=1)
        with pytest.raises(CatalogError, match="without cross videos"):
            build_cross_assignments(catalog, self._one_side(catalog))

    def test_counts_and_determinism(self):
        base = self._self_only()
        split = self._one_side(base)
        full_a = build_cross_assignments(base, split, targets_per_driver=2, clips_per_driver=2,
                                         seed=3)
        full_b = build_cross_assignments(base, split, targets_per_driver=2, clips_per_driver=2,
                                         seed=3)
        cross = list(full_a.videos(reenactment="cross"))
        assert len(cross) == 6 * 2 * 2
        assert {v.video_id for v in cross} == {
            v.video_id for v in full_b.videos(reenactment="cross")
        }
        other = build_cross_assignments(base, split, targets_per_driver=2, clips_per_driver=2,
                                        seed=4)
        assert {v.video_id for v in other.videos(reenactment="cross")} != {
            v.video_id for v in cross
        }

    def test_split_sides_are_respected(self):
        base = self._self_only(n=6)
        split = Split(
            development=frozenset(["id00", "id01", "id02"]),
            evaluation=frozenset(["id03", "id04", "id05"]),
        )
        full = build_cross_assignments(base, split, targets_per_driver=2, seed=0)
        for v in full.videos(reenactment="cross"):
            assert split.side_of(v.driver) == split.side_of(v.target)

    def test_pool_too_small(self):
        base = self._self_only(n=3)
        split = self._one_side(base)
        with pytest.raises(CatalogError, match="candidate targets"):
            build_cross_assignments(base, split, targets_per_driver=3)
        with pytest.raises(CatalogError, match="clips"):
            build_cross_assignments(base, split, targets_per_driver=1, clips_per_driver=99)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        cat = tiny_catalog(n_ids=4, clips=2, cross_per_driver=2,
                           generators=(Generator.GAGA, Generator.LIVE))
        save_manifest(cat, tmp_path / "identities.csv", tmp_path / "videos.csv")
        back = load_manifest(tmp_path / "identities.csv", tmp_path / "videos.csv")
        assert back.identity_ids() == cat.identity_ids()
        assert {v.video_id for v in back.videos()} == {v.video_id for v in cat.videos()}
        for vid in cat.videos():
            again = back.video(vid.video_id)
            assert (again.target, again.driver, again.source_clip) == (
                vid.target, vid.driver, vid.source_clip
            )

    def test_save_is_deterministic(self, tmp_path):
        cat = tiny_catalog(n_ids=4)
        save_manifest(cat, tmp_path / "i1.csv", tmp_path / "v1.csv")
        save_manifest(cat, tmp_path / "i2.csv", tmp_path / "v2.csv")
        assert (tmp_path / "i1.csv").read_bytes() == (tmp_path / "i2.csv").read_bytes()
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()

    def test_bad_header(self, tmp_path):
        (tmp_path / "identities.csv").write_text("nope\n", encoding="utf-8")
        (tmp_path / "videos.csv").write_text("nope\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="bad header"):
            load_manifest(tmp_path / "identities.csv", tmp_path / "videos.csv")

    def test_bad_enum_carries_line_number(self, tmp_path):
        ident = tmp_path / "identities.csv"
        videos = tmp_path / "videos.csv"
        ident.write_text(
            "id,dataset,gender,ethnicity,age_range\n"
            "a,CREMA-D,female,asian,20-30\n"
            "b,CREMA-D,robot,asian,20-30\n",
            encoding="utf-8",
        )
        videos.write_text(
            "video_id,dataset,generator,target_id,driver_id,source_clip\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="bad gender") as err:
            load_manifest(ident, videos)
        assert err.value.line == 3
        assert err.value.path == str(ident)
        assert str(err.value) == (
            f"{ident}:3: bad gender 'robot' (allowed: female, male, unknown)"
        )

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        ident, videos = tmp_path / "identities.csv", tmp_path / "videos.csv"
        ident.write_text("id,dataset,gender,ethnicity,age_range\n"
                         "a,CREMA-D,female,asian,20-30\n", encoding="utf-8")
        videos.write_bytes(b"video_id,dataset,generator,target_id,driver_id,source_clip\n"
                           b"v,CREMA-D,GAGA,a,a,0\n"
                           b"w\xff,CREMA-D,GAGA,a,a,1\n")
        with pytest.raises(ManifestError, match=f"{videos}: line 3 is not UTF-8"):
            load_manifest(ident, videos)

    @pytest.mark.parametrize("which", ["identity", "video"])
    def test_row_of_the_wrong_width_names_its_line(self, tmp_path, which):
        ident, videos = tmp_path / "identities.csv", tmp_path / "videos.csv"
        ident.write_text("id,dataset,gender,ethnicity,age_range\n"
                         "a,CREMA-D,female,asian,20-30\n"
                         + ("b,CREMA-D,female,asian\n" if which == "identity" else ""),
                         encoding="utf-8")
        videos.write_text("video_id,dataset,generator,target_id,driver_id,source_clip\n"
                          "v,CREMA-D,GAGA,a,a,0\n"
                          + ("w,CREMA-D,GAGA,a,a,1,extra\n" if which == "video" else ""),
                          encoding="utf-8")
        with pytest.raises(ManifestError) as err:
            load_manifest(ident, videos)
        target, got = (ident, 4) if which == "identity" else (videos, 7)
        wanted = 5 if which == "identity" else 6
        assert str(err.value) == f"{target}:3: expected {wanted} fields, got {got}"

    def test_bad_clip_index(self, tmp_path):
        ident = tmp_path / "identities.csv"
        videos = tmp_path / "videos.csv"
        ident.write_text(
            "id,dataset,gender,ethnicity,age_range\na,CREMA-D,female,asian,20-30\n",
            encoding="utf-8",
        )
        videos.write_text(
            "video_id,dataset,generator,target_id,driver_id,source_clip\n"
            "v,CREMA-D,GAGA,a,a,zero\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="source_clip"):
            load_manifest(ident, videos)

    @pytest.mark.parametrize("which", ["identity", "video"])
    def test_carriage_return_in_an_id_names_the_file(self, tmp_path, which):
        # quoted, the "\r" survives the manifest's CSV and reaches the record
        ident, videos = tmp_path / "identities.csv", tmp_path / "videos.csv"
        ident_id, video_id = ('"a\rb"', "v") if which == "identity" else ("a", '"v\rw"')
        ident.write_bytes(("id,dataset,gender,ethnicity,age_range\r\n"
                           f"{ident_id},CREMA-D,female,asian,20-30\r\n").encode("utf-8"))
        videos.write_bytes(("video_id,dataset,generator,target_id,driver_id,source_clip\r\n"
                            f"{video_id},CREMA-D,GAGA,a,a,0\r\n").encode("utf-8"))
        with pytest.raises(ManifestError, match="control character") as err:
            load_manifest(ident, videos)
        target = ident if which == "identity" else videos
        assert err.value.path == str(target) and err.value.line == 2
