"""Verification metrics and reports.

AUC is the exact Mann-Whitney statistic (ties get half credit) computed with
rank sums in O(n log n); condition deltas are plain percentage-point
subtractions rendered at the one-decimal precision used in published tables;
fairness breakdowns partition trials by soft-biometric attributes of the
enrollment identity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import SOFT_BIOMETRICS, Catalog
from .files import AtomicFile, read_csv, write_csv
from .scoring import ScoreRow


class EvaluationError(ValueError):
    pass


def auc(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Probability (x100) that a random genuine score exceeds a random
    impostor score, ties counted half. Exact via average ranks."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise EvaluationError("AUC needs at least one score of each class")
    if not (np.all(np.isfinite(genuine)) and np.all(np.isfinite(impostor))):
        raise EvaluationError("scores must be finite")
    scores = np.concatenate([genuine, impostor])
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of the last element of each tie group
    starts = ends - counts + 1
    mean_ranks = (starts + ends) / 2.0
    rank_sum_genuine = float(mean_ranks[inverse[: genuine.size]].sum())
    u_stat = rank_sum_genuine - genuine.size * (genuine.size + 1) / 2.0
    return 100.0 * u_stat / (genuine.size * impostor.size)


def roc_points(genuine: np.ndarray, impostor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) arrays over all score thresholds, descending, for plotting.

    The point for threshold t is the fraction of each class scoring >= t,
    counted by binary search in the sorted scores: O(n log n) in all.
    """
    genuine = np.sort(np.asarray(genuine, dtype=np.float64))
    impostor = np.sort(np.asarray(impostor, dtype=np.float64))
    if genuine.size == 0 or impostor.size == 0:
        raise EvaluationError("ROC needs at least one score of each class")
    if not (np.all(np.isfinite(genuine)) and np.all(np.isfinite(impostor))):
        raise EvaluationError("scores must be finite")
    thresholds = np.unique(np.concatenate([genuine, impostor]))[::-1]

    def rate(scores: np.ndarray) -> np.ndarray:
        at_or_above = scores.size - np.searchsorted(scores, thresholds, side="left")
        return np.concatenate([[0.0], at_or_above / scores.size])

    return rate(impostor), rate(genuine)


@dataclass(frozen=True)
class EvalReport:
    condition: str
    model: str
    auc: float
    genuine_n: int
    impostor_n: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.auc <= 100.0):
            raise EvaluationError(f"AUC {self.auc} outside [0, 100]")


def _class_scores(rows: Iterable[ScoreRow]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(genuine, impostor) scores per model, sorted by model, over the scored
    rows in row order."""
    by_model: dict[str, tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))
    for row in rows:
        if row.score is None:
            continue
        genuine, impostor = by_model[row.model]
        (genuine if row.label == 1 else impostor).append(row.score)
    return {
        model: (np.array(genuine, dtype=np.float64), np.array(impostor, dtype=np.float64))
        for model, (genuine, impostor) in sorted(by_model.items())
    }


def evaluate_rows(rows: Iterable[ScoreRow], condition: str) -> list[EvalReport]:
    """One report per model over scored rows; unscored rows are skipped, and
    so are models lacking one of the two classes."""
    return [
        EvalReport(condition, model, auc(genuine, impostor), genuine.size, impostor.size)
        for model, (genuine, impostor) in _class_scores(rows).items()
        if genuine.size and impostor.size
    ]


# -- condition deltas ---------------------------------------------------------


@dataclass(frozen=True)
class DeltaRow:
    condition: str
    model: str
    auc: float
    delta: float  # percentage points relative to the reference condition
    is_reference: bool


@dataclass
class DeltaTable:
    reference_condition: str
    rows: list[DeltaRow] = field(default_factory=list)


def delta_table(reports: Sequence[EvalReport], reference_condition: str) -> DeltaTable:
    """Per-model percentage-point differences against one reference condition.

    The reference rows carry their absolute AUC and delta 0; every other row
    satisfies reference + delta == condition exactly in float arithmetic.
    """
    refs = {r.model: r for r in reports if r.condition == reference_condition}
    if not refs:
        raise EvaluationError(f"no reports for reference condition {reference_condition!r}")
    table = DeltaTable(reference_condition)
    for report in reports:
        ref = refs.get(report.model)
        if ref is None:
            raise EvaluationError(
                f"model {report.model!r} has no report under the reference condition"
            )
        table.rows.append(
            DeltaRow(
                condition=report.condition,
                model=report.model,
                auc=report.auc,
                delta=report.auc - ref.auc,
                is_reference=report.condition == reference_condition,
            )
        )
    return table


def format_auc(value: float) -> str:
    return f"{value:.1f}"


def format_delta(value: float) -> str:
    """Signed one-decimal delta; anything that rounds to zero prints 0.0."""
    text = f"{value:+.1f}"
    return "0.0" if text in ("+0.0", "-0.0") else text


def format_cell(row: DeltaRow) -> str:
    return format_auc(row.auc) if row.is_reference else format_delta(row.delta)


# -- fairness -------------------------------------------------------------------

FAIRNESS_ATTRIBUTES = SOFT_BIOMETRICS
UNKNOWN_VALUE = "unknown"


@dataclass(frozen=True)
class FairnessCell:
    attribute: str
    subgroup: str
    model: str
    auc: float | None  # None when the subgroup lacks one of the two classes
    genuine_n: int
    impostor_n: int

    @property
    def trials_n(self) -> int:
        return self.genuine_n + self.impostor_n


@dataclass
class FairnessReport:
    cells: list[FairnessCell] = field(default_factory=list)
    excluded_unknown: dict[str, int] = field(default_factory=dict)  # attribute -> trials


def fairness_report(rows: Iterable[ScoreRow], catalog: Catalog) -> FairnessReport:
    """Subgroup AUCs per soft-biometric attribute, with trials grouped by the
    enrollment video's identity.

    Enrollment videos are self-reenactments, so their target and driver
    coincide; that identity's annotation decides the subgroup. Trials whose
    identity lacks the annotation are excluded and counted per attribute.
    Each distinct enrollment video is looked up once; a cell's scores keep
    row order.
    """
    rows = [r for r in rows if r.score is not None]
    enroll_index: dict[str, int] = {}
    row_enroll = np.fromiter(
        (enroll_index.setdefault(r.enroll_video, len(enroll_index)) for r in rows),
        dtype=np.int32, count=len(rows),
    )
    enroll_identities = [catalog.identities[catalog.video(v).driver] for v in enroll_index]
    models = sorted({r.model for r in rows})
    model_index = {m: i for i, m in enumerate(models)}
    row_model = np.fromiter((model_index[r.model] for r in rows), dtype=np.int32, count=len(rows))
    genuine_row = np.fromiter((r.label == 1 for r in rows), dtype=bool, count=len(rows))
    scores = np.fromiter((r.score for r in rows), dtype=np.float64, count=len(rows))

    report = FairnessReport()
    for attribute in FAIRNESS_ATTRIBUTES:
        values = [getattr(ident, attribute).value for ident in enroll_identities]
        subgroups = sorted(set(values) - {UNKNOWN_VALUE})
        code = {value: k for k, value in enumerate(subgroups)}
        row_code = np.array([code.get(v, -1) for v in values], dtype=np.int32)[row_enroll]
        report.excluded_unknown[attribute] = int(np.count_nonzero(row_code < 0))
        for k, subgroup in enumerate(subgroups):
            in_subgroup = row_code == k
            for m, model in enumerate(models):
                cell = in_subgroup & (row_model == m)
                if not cell.any():
                    continue
                genuine = scores[cell & genuine_row]
                impostor = scores[cell & ~genuine_row]
                value = auc(genuine, impostor) if genuine.size and impostor.size else None
                report.cells.append(
                    FairnessCell(attribute, subgroup, model, value, genuine.size, impostor.size)
                )
    return report


# -- rendering --------------------------------------------------------------------

REPORT_HEADER = ["condition", "model", "auc", "genuine_n", "impostor_n"]
FAIRNESS_HEADER = ["condition", "model", "attribute", "subgroup", "auc",
                   "genuine_n", "impostor_n"]
ABSENT_CELL = "—"  # em dash for undefined table cells


def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    write_csv(path, REPORT_HEADER, (
        [r.condition, r.model, repr(r.auc), r.genuine_n, r.impostor_n]
        for r in sorted(reports, key=lambda r: (r.condition, r.model))
    ))


def read_report_csv(path: str | Path) -> list[EvalReport]:
    return [
        EvalReport(condition, model, float(value), int(g_n), int(i_n))
        for condition, model, value, g_n, i_n in read_csv(path, REPORT_HEADER, EvaluationError)
    ]


def render_report_text(reports: Sequence[EvalReport]) -> str:
    if not reports:
        raise EvaluationError("nothing to render")
    rows = sorted(reports, key=lambda r: (r.condition, r.model))
    width = max(len(r.condition) for r in rows)
    mwidth = max(len(r.model) for r in rows)
    lines = [f"{'condition':<{width}}  {'model':<{mwidth}}  {'auc':>6}  genuine  impostor"]
    for r in rows:
        lines.append(
            f"{r.condition:<{width}}  {r.model:<{mwidth}}  {format_auc(r.auc):>6}  "
            f"{r.genuine_n:>7,d}  {r.impostor_n:>8,d}"
        )
    return "\n".join(lines) + "\n"


def render_delta_text(table: DeltaTable) -> str:
    """Grid with one row per condition and one column per model; reference
    cells show absolute AUC, the rest show signed deltas."""
    models = sorted({r.model for r in table.rows})
    conditions = sorted({r.condition for r in table.rows})
    cells = {(r.condition, r.model): format_cell(r) for r in table.rows}
    width = max(len(c) for c in conditions)
    colw = max([len(m) for m in models] + [6])
    lines = [
        f"{'condition':<{width}}  " + "  ".join(f"{m:>{colw}}" for m in models),
    ]
    for condition in conditions:
        row = [
            f"{cells.get((condition, m), ABSENT_CELL):>{colw}}" for m in models
        ]
        marker = " (ref)" if condition == table.reference_condition else ""
        lines.append(f"{condition:<{width}}  " + "  ".join(row) + marker)
    return "\n".join(lines) + "\n"


def write_fairness_csv(
    report: FairnessReport, condition: str, path: str | Path
) -> None:
    write_csv(path, FAIRNESS_HEADER, (
        [condition, c.model, c.attribute, c.subgroup,
         "" if c.auc is None else repr(c.auc), c.genuine_n, c.impostor_n]
        for c in report.cells
    ))


def render_fairness_text(report: FairnessReport) -> str:
    lines = []
    for attribute in dict.fromkeys(c.attribute for c in report.cells):
        lines.append(f"{attribute}:")
        for c in report.cells:
            if c.attribute != attribute:
                continue
            shown = ABSENT_CELL if c.auc is None else format_auc(c.auc)
            lines.append(
                f"  {c.subgroup:<18} {c.model:<10} {shown:>6}  "
                f"({c.genuine_n:,d} genuine / {c.impostor_n:,d} impostor)"
            )
        excluded = report.excluded_unknown.get(attribute, 0)
        if excluded:
            lines.append(f"  excluded (unannotated): {excluded:,d} trials")
    return "\n".join(lines) + "\n"


def write_roc_csv(
    genuine: np.ndarray, impostor: np.ndarray, path: str | Path
) -> None:
    """The ROC points as CSV lines "fpr,tpr", each rate its ``repr``: the
    bytes ``csv.writer`` writes for them. Each distinct rate is formatted
    once."""
    fpr, tpr = roc_points(genuine, impostor)
    columns = []
    for rate in (fpr, tpr):
        values, inverse = np.unique(rate, return_inverse=True)
        texts = np.array([repr(value) for value in values.tolist()], dtype=object)
        columns.append(texts[inverse].tolist())
    with AtomicFile(path) as fh:
        fh.write("fpr,tpr\n")
        fh.write("".join(map("{},{}\n".format, *columns)))


def write_roc_csvs(rows: Iterable[ScoreRow], paths: Mapping[str, str | Path]) -> None:
    """One ROC CSV per model in ``paths`` (model -> file) over that model's
    scored rows."""
    by_model = _class_scores(rows)
    for model, path in paths.items():
        write_roc_csv(*by_model[model], path)
