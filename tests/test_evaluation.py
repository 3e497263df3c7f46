"""Exact AUC, condition deltas and fairness breakdowns."""

import csv
import io

import numpy as np
import pytest

from avatarprint.catalog import Gender
from avatarprint.evaluation import (
    ABSENT_CELL,
    DeltaRow,
    DeltaTable,
    EvalReport,
    EvaluationError,
    FAIRNESS_ATTRIBUTES,
    auc,
    delta_table,
    evaluate_rows,
    fairness_report,
    format_auc,
    format_cell,
    format_delta,
    read_report_csv,
    render_delta_text,
    render_fairness_text,
    render_report_text,
    roc_points,
    write_fairness_csv,
    write_report_csv,
    write_roc_csv,
)
from avatarprint.scoring import ScoreRow

from helpers import pairwise_auc, quadratic_roc_points, tiny_catalog


class TestAuc:
    def test_hand_values(self):
        assert auc([2.0, 3.0], [0.0, 1.0]) == 100.0
        assert auc([0.0, 1.0], [2.0, 3.0]) == 0.0
        assert auc([1.0], [1.0]) == 50.0  # a tie earns half credit
        assert auc([2.0, 0.0], [1.0]) == 50.0

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n_g = int(rng.integers(1, 60))
            n_i = int(rng.integers(1, 60))
            pool = rng.normal(size=8)  # small pool forces plenty of ties
            genuine = rng.choice(pool, size=n_g)
            impostor = rng.choice(pool, size=n_i)
            assert auc(genuine, impostor) == pairwise_auc(genuine, impostor)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(43)
        genuine = rng.normal(size=50)
        impostor = rng.normal(size=70)
        base = auc(genuine, impostor)
        assert auc(np.exp(genuine), np.exp(impostor)) == base
        assert auc(3.0 * genuine + 7.0, 3.0 * impostor + 7.0) == base

    def test_sign_reversal_swaps_roles(self):
        rng = np.random.default_rng(44)
        genuine = rng.normal(size=31)
        impostor = rng.normal(size=17)
        assert auc(genuine, impostor) == auc(-impostor, -genuine)

    def test_input_validation(self):
        with pytest.raises(EvaluationError, match="at least one"):
            auc([], [1.0])
        with pytest.raises(EvaluationError, match="at least one"):
            auc([1.0], [])
        with pytest.raises(EvaluationError, match="finite"):
            auc([np.nan], [1.0])
        with pytest.raises(EvaluationError, match="finite"):
            auc([1.0], [np.inf])


class TestRoc:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(45)
        fpr, tpr = roc_points(rng.normal(1, 1, 40), rng.normal(0, 1, 60))
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)

    def test_trapezoid_area_matches_auc(self):
        rng = np.random.default_rng(46)
        genuine = rng.normal(1, 1, 50)
        impostor = rng.normal(0, 1, 50)
        fpr, tpr = roc_points(genuine, impostor)
        area = 100.0 * float(np.trapezoid(tpr, fpr))
        assert area == pytest.approx(auc(genuine, impostor), abs=1e-9)

    def test_matches_quadratic_definition_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            levels = int(rng.integers(1, 12))  # few distinct values: many ties
            genuine = rng.integers(0, levels, int(rng.integers(1, 60))) / 4.0
            impostor = rng.integers(0, levels, int(rng.integers(1, 60))) / 4.0 - 0.5
            if rng.random() < 0.5:
                genuine = genuine + rng.normal(0, 1e-3, genuine.size).round(3)
            want_fpr, want_tpr = quadratic_roc_points(genuine, impostor)
            fpr, tpr = roc_points(genuine, impostor)
            assert fpr.tobytes() == want_fpr.tobytes()
            assert tpr.tobytes() == want_tpr.tobytes()

    def test_input_validation(self):
        with pytest.raises(EvaluationError, match="at least one"):
            roc_points([], [1.0])
        with pytest.raises(EvaluationError, match="finite"):
            roc_points([np.nan, 1.0], [1.0])

    def test_roc_csv(self, tmp_path):
        write_roc_csv(np.array([1.0, 2.0]), np.array([0.0]), tmp_path / "roc.csv")
        text = (tmp_path / "roc.csv").read_text()
        assert text.splitlines()[0] == "fpr,tpr"
        assert len(text.splitlines()) == 1 + 3 + 1  # header + 3 thresholds + origin

    def test_roc_csv_is_repr_of_each_point(self, tmp_path):
        rng = np.random.default_rng(11)
        genuine, impostor = rng.normal(1, 1, 50), rng.normal(0, 1, 70)
        genuine[:5] = impostor[:5]  # tied thresholds across the classes
        write_roc_csv(genuine, impostor, tmp_path / "roc.csv")
        fpr, tpr = roc_points(genuine, impostor)
        want = "fpr,tpr\n" + "".join(
            f"{float(f)!r},{float(t)!r}\n" for f, t in zip(fpr, tpr)
        )
        assert (tmp_path / "roc.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("genuine, impostor", [
        ([0.5, 0.5, 0.25, 0.75, 0.5], [0.25, 0.25, 0.5, 0.1, 0.1, 0.1]),  # ties within and across
        ([0.3], [0.1, 0.3, 0.3, 0.9]),  # one genuine score
        ([0.2, 0.2, 0.6], [0.2]),  # one impostor score
        ([1.0], [1.0]),
    ])
    def test_roc_csv_equals_csv_writer_of_reprs(self, tmp_path, genuine, impostor):
        write_roc_csv(np.array(genuine), np.array(impostor), tmp_path / "roc.csv")
        fpr, tpr = roc_points(genuine, impostor)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["fpr", "tpr"])
        writer.writerows([repr(f), repr(t)] for f, t in zip(fpr.tolist(), tpr.tolist()))
        assert (tmp_path / "roc.csv").read_bytes() == want.getvalue().encode("utf-8")


def _rows(model, scores, labels, prefix="v"):
    return [
        ScoreRow(f"t{i}", f"{prefix}e{i}", f"{prefix}t{i}", label, model, score)
        for i, (score, label) in enumerate(zip(scores, labels))
    ]


class TestEvaluateRows:
    def test_groups_by_model(self):
        rows = _rows("m1", [0.9, 0.1], [1, 0]) + _rows("m2", [0.2, 0.8], [1, 0])
        reports = evaluate_rows(rows, "c")
        assert [(r.model, r.auc) for r in reports] == [("m1", 100.0), ("m2", 0.0)]
        assert all(r.condition == "c" for r in reports)
        assert reports[0].genuine_n == 1 and reports[0].impostor_n == 1

    def test_unscored_rows_skipped(self):
        rows = _rows("m", [0.9, None, 0.1], [1, 1, 0])
        (report,) = evaluate_rows(rows, "c")
        assert report.genuine_n == 1 and report.auc == 100.0

    def test_single_class_model_dropped(self):
        rows = _rows("m", [0.9, 0.8], [1, 1])
        assert evaluate_rows(rows, "c") == []

    def test_report_range_guard(self):
        with pytest.raises(EvaluationError, match="outside"):
            EvalReport("c", "m", 101.0, 1, 1)


class TestDeltaTable:
    def _reports(self):
        return [
            EvalReport("intra", "graph", 88.0, 10, 10),
            EvalReport("intra", "clip", 86.4, 10, 10),
            EvalReport("shifted", "graph", 86.5, 10, 10),
            EvalReport("shifted", "clip", 75.8, 10, 10),
        ]

    def test_reference_plus_delta_is_exact(self):
        table = delta_table(self._reports(), "intra")
        for row in table.rows:
            ref = next(
                r.auc for r in self._reports()
                if r.condition == "intra" and r.model == row.model
            )
            assert ref + row.delta == row.auc  # exact float identity, not approx

    def test_reference_rows_flagged(self):
        table = delta_table(self._reports(), "intra")
        refs = [r for r in table.rows if r.is_reference]
        assert {r.condition for r in refs} == {"intra"}
        assert all(r.delta == 0.0 for r in refs)

    def test_missing_reference_condition(self):
        with pytest.raises(EvaluationError, match="reference condition"):
            delta_table(self._reports(), "nope")

    def test_model_without_reference(self):
        reports = self._reports() + [EvalReport("shifted", "extra", 50.0, 1, 1)]
        with pytest.raises(EvaluationError, match="no report under"):
            delta_table(reports, "intra")


class TestFormatting:
    def test_auc_one_decimal(self):
        assert format_auc(88.0) == "88.0"
        assert format_auc(87.55) == "87.5"  # bankers at the half ULP boundary

    def test_delta_signed_with_zero_normalized(self):
        assert format_delta(3.9) == "+3.9"
        assert format_delta(-18.9) == "-18.9"
        assert format_delta(0.0) == "0.0"
        assert format_delta(-0.04) == "0.0"
        assert format_delta(0.04) == "0.0"

    def test_cell_picks_by_role(self):
        ref = DeltaRow("intra", "m", 83.5, 0.0, True)
        other = DeltaRow("shift", "m", 87.4, 3.9000000000000057, False)
        assert format_cell(ref) == "83.5"
        assert format_cell(other) == "+3.9"

    def test_delta_grid_rendering(self):
        table = DeltaTable(
            "intra",
            [
                DeltaRow("intra", "graph", 88.0, 0.0, True),
                DeltaRow("shift", "graph", 86.5, -1.5, False),
                DeltaRow("intra", "clip", 86.4, 0.0, True),
            ],
        )
        text = render_delta_text(table)
        lines = text.splitlines()
        assert "(ref)" in lines[1] and "88.0" in lines[1]
        assert "-1.5" in lines[2]
        assert ABSENT_CELL in lines[2]  # clip has no row under "shift"

    def test_report_text(self):
        text = render_report_text([EvalReport("c", "m", 91.25, 1200, 3400)])
        assert "91.2" in text or "91.3" in text
        assert "1,200" in text and "3,400" in text
        with pytest.raises(EvaluationError):
            render_report_text([])


class TestReportCsv:
    def test_round_trip_preserves_full_precision(self, tmp_path):
        reports = [EvalReport("c", "m", 88.00000000000003, 5, 7)]
        write_report_csv(reports, tmp_path / "r.csv")
        back = read_report_csv(tmp_path / "r.csv")
        assert back == reports

    def test_bad_header(self, tmp_path):
        (tmp_path / "r.csv").write_text("a,b\n")
        with pytest.raises(EvaluationError, match="bad header"):
            read_report_csv(tmp_path / "r.csv")


class TestFairness:
    def _catalog_rows(self):
        """Tiny catalog where id00/id02 are annotated and id01 is not."""
        from dataclasses import replace

        base = tiny_catalog(n_ids=3, clips=2, cross_per_driver=1)
        annotated = []
        for ident, rec in base.identities.items():
            if ident == "id01":
                annotated.append(rec)
            else:
                gender = Gender.FEMALE if ident == "id00" else Gender.MALE
                annotated.append(replace(rec, gender=gender))
        catalog = type(base)(annotated, list(base.videos()))
        rows = []
        i = 0
        for v in catalog.videos():
            if not v.is_self:
                continue
            for label, score in ((1, 0.9), (0, 0.1)):
                rows.append(ScoreRow(f"t{i}", v.video_id, v.video_id, label, "m", score))
                i += 1
        return catalog, rows

    def test_partition_accounts_for_every_trial(self):
        catalog, rows = self._catalog_rows()
        report = fairness_report(rows, catalog)
        for attribute in FAIRNESS_ATTRIBUTES:
            in_cells = sum(c.trials_n for c in report.cells if c.attribute == attribute)
            assert in_cells + report.excluded_unknown[attribute] == len(rows)

    def test_subgroups_keyed_by_enrollment_identity(self):
        catalog, rows = self._catalog_rows()
        report = fairness_report(rows, catalog)
        by_group = {c.subgroup: c for c in report.cells}
        assert set(by_group) == {"female", "male"}
        # id00 enrolls 2 self videos with one genuine and one impostor row each
        assert by_group["female"].genuine_n == 2
        assert by_group["female"].impostor_n == 2

    def test_unknown_identities_excluded(self):
        catalog, rows = self._catalog_rows()
        report = fairness_report(rows, catalog)
        # id01 contributes 2 self videos x 2 rows
        assert report.excluded_unknown["gender"] == 4

    def test_identical_subgroups_get_identical_auc(self):
        catalog, rows = self._catalog_rows()
        report = fairness_report(rows, catalog)
        values = [c.auc for c in report.cells]
        assert values[0] == values[1] == 100.0

    def test_single_class_subgroup_has_no_auc(self):
        catalog, rows = self._catalog_rows()
        genuine_only = [r for r in rows if r.label == 1]
        report = fairness_report(genuine_only, catalog)
        assert all(c.auc is None for c in report.cells)
        text = render_fairness_text(report)
        assert ABSENT_CELL in text

    def test_fairness_csv(self, tmp_path):
        catalog, rows = self._catalog_rows()
        report = fairness_report(rows, catalog)
        write_fairness_csv(report, "cond", tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "condition,model,attribute,subgroup,auc,genuine_n,impostor_n"
        assert len(lines) == 1 + len(report.cells)
