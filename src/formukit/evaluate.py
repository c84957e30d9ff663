"""Profile comparison metrics and the five-strategy benchmark.

Curves are compared on the reference grid: predicted values are linearly
interpolated onto the reference times inside the overlapping range (never
extrapolated). MSE is mean squared error in released-% units squared; R^2 is
the coefficient of determination against the reference mean.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .prompts import PromptStrategy
from .types import DissolutionProfile

STRATEGY_ORDER = tuple(s.value for s in PromptStrategy)
#: Example records a few-shot prompt gets, and records a RAG prompt retrieves.
N_EXAMPLES = 3
RETRIEVE_K = 3


@dataclass(frozen=True)
class AlignedPair:
    """Reference and prediction sampled on one common grid."""

    times_hr: np.ndarray
    reference: np.ndarray
    predicted: np.ndarray

    @property
    def n(self) -> int:
        return int(self.times_hr.size)


def align_profiles(reference: DissolutionProfile,
                   predicted: DissolutionProfile) -> AlignedPair:
    """Put two profiles on the reference time grid.

    The grid is the reference's times restricted to the overlap of both time
    ranges; predicted values are linearly interpolated there. Raises
    ValidationError when the overlap contains fewer than two reference points.
    """
    if reference.n_points < 2 or predicted.n_points < 2:
        raise ValidationError("profiles need at least 2 points each")
    lo = max(reference.times_hr[0], predicted.times_hr[0])
    hi = min(reference.times_hr[-1], predicted.times_hr[-1])
    if lo > hi:
        raise ValidationError("profiles have no overlapping time range")
    mask = (reference.times_hr >= lo) & (reference.times_hr <= hi)
    times = reference.times_hr[mask]
    if times.size < 2:
        raise ValidationError("overlap contains fewer than 2 reference points")
    predicted_on_grid = np.interp(times, predicted.times_hr, predicted.released_pct)
    return AlignedPair(times, reference.released_pct[mask], predicted_on_grid)


def mse(pair: AlignedPair) -> float:
    """Mean squared error (1/n) * sum (y_i - yhat_i)^2 [%^2]."""
    diff = pair.reference - pair.predicted
    return float(np.mean(diff ** 2))


def r_squared(pair: AlignedPair) -> float:
    """1 - SS_res / SS_tot; 1.0 iff the fit is exact, may be negative."""
    ss_tot = float(np.sum((pair.reference - pair.reference.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("reference profile has zero variance")
    ss_res = float(np.sum((pair.reference - pair.predicted) ** 2))
    return 1.0 - ss_res / ss_tot


def profile_metrics(reference: DissolutionProfile,
                    predicted: DissolutionProfile) -> tuple[float, float]:
    """(MSE, R^2) after alignment. Convenience for callers with raw profiles."""
    pair = align_profiles(reference, predicted)
    return mse(pair), r_squared(pair)


@dataclass(frozen=True)
class EvalRow:
    strategy: str
    mse: float | None
    r2: float | None
    n_records: int
    n_parse_failures: int = 0
    notes: str = ""

    @property
    def evaluable(self) -> bool:
        return self.mse is not None


#: Report column names, one per EvalRow field in field order.
REPORT_COLUMNS = ("strategy", "mse_pct2", "r_squared", "n_records", "n_parse_failures", "notes")


@dataclass(frozen=True)
class EvalReport:
    """Per-strategy metric table in the fixed ZS..RAG order."""

    rows: tuple[EvalRow, ...]

    def to_text(self) -> str:
        header = f"{'strategy':<8} {'MSE (%^2)':>12} {'R^2':>8} {'n':>4} {'fails':>6}  notes"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            mse_s = f"{r.mse:.4f}" if r.mse is not None else "n/a"
            r2_s = f"{r.r2:.4f}" if r.r2 is not None else "n/a"
            lines.append(f"{r.strategy:<8} {mse_s:>12} {r2_s:>8} {r.n_records:>4} "
                         f"{r.n_parse_failures:>6}  {r.notes}")
        return "\n".join(lines) + "\n"

    def _row_dicts(self) -> list[dict]:
        """The rows keyed by :data:`REPORT_COLUMNS`; an unevaluable metric is None."""
        return [dict(zip(REPORT_COLUMNS, astuple(r), strict=True)) for r in self.rows]

    def to_csv(self) -> str:
        """The rows as CSV: None is written as an empty cell, a float as its repr."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self._row_dicts())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"rows": self._row_dicts()}, indent=2) + "\n"


@dataclass
class BenchmarkResult:
    """EvalReport plus the raw per-record predictions behind it."""

    report: EvalReport
    # strategy -> record id -> predicted profile (absent on parse failure)
    predictions: dict[str, dict[str, DissolutionProfile]] = field(default_factory=dict)
    references: dict[str, DissolutionProfile] = field(default_factory=dict)

    def residuals_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["strategy", "record_id", "time_hr", "reference_pct",
                         "predicted_pct", "residual_pct"])
        for strategy in (r.strategy for r in self.report.rows):
            for rec_id, predicted in sorted(self.predictions.get(strategy, {}).items()):
                pair = align_profiles(self.references[rec_id], predicted)
                for t, y, yh in zip(pair.times_hr, pair.reference, pair.predicted):
                    writer.writerow([strategy, rec_id, repr(float(t)), repr(float(y)),
                                     repr(float(yh)), repr(float(y - yh))])
        return buf.getvalue()


def run_benchmark(dataset, strategies=STRATEGY_ORDER, *, client, store=None) -> BenchmarkResult:
    """Evaluate prompt strategies against a dataset of measured records.

    For each record and strategy: build the prompt, complete it through the
    client's backend, parse the response, align against the record's measured
    profile and accumulate MSE/R^2 (unweighted means over records). Few-shot
    examples come from the other dataset records (leave-one-out, first
    :data:`N_EXAMPLES` by id); RAG retrieves the :data:`RETRIEVE_K` nearest
    from ``store`` (defaulting to the dataset itself), always excluding the
    record under evaluation. A record whose profile has fewer than 2 points
    or constant values raises ValidationError before any call. Parse failures,
    and answers that cannot be aligned with the reference, are counted per
    strategy; a strategy whose parses all fail is reported as unevaluable
    rather than raising; any other error stops further prompts and calls and
    is re-raised. Up to ``client.config.max_inflight`` model calls run at
    once, so transcript lines come in completion order; the report does not
    depend on it.
    """
    from concurrent.futures import ThreadPoolExecutor
    from itertools import product

    from .prompts import build_prompt, parse_profile_response
    from .store import RecordStore

    records = list(dataset)
    if not records:
        raise ValidationError("benchmark dataset is empty")
    records.sort(key=lambda r: r.id)
    for rec in records:                     # bad input, not a failed parse: before any call
        if rec.profile.n_points < 2 or np.ptp(rec.profile.released_pct) == 0.0:
            raise ValidationError(f"record {rec.id!r}: a reference profile needs at least "
                                  "2 points and released values that vary")

    if store is None:
        store = RecordStore()
        store.ingest(*records)

    order = [s for s in STRATEGY_ORDER if s in set(strategies)]
    predictions: dict[str, dict[str, DissolutionProfile]] = {s: {} for s in order}
    references = {rec.id: rec.profile for rec in records}

    # strategy -> [(record, completion future, or None if no prompt was built)]
    calls: dict[str, list] = {s: [] for s in order}
    rows = []
    aborted = []            # the first call that failed other than by parsing

    def complete(prompt):
        if aborted:         # every later call fails as it did, whichever is read first
            raise aborted[0]
        try:
            return client.complete(prompt)
        except Exception as exc:
            if not isinstance(exc, ParseError):
                aborted.append(exc)
            raise

    pool = ThreadPoolExecutor(max_workers=client.config.max_inflight)
    try:
        for name, rec in product(order, records):
            if aborted:
                break
            strategy = PromptStrategy[name]
            examples = None
            if strategy is PromptStrategy.RAG:
                hits = store.retrieve(rec.features, k=RETRIEVE_K + 1)
                examples = [r for r, _ in hits if r.id != rec.id][:RETRIEVE_K]
            elif strategy.needs_examples:
                examples = [r for r in records if r.id != rec.id][:N_EXAMPLES]
            if strategy.needs_examples and not examples:
                calls[name].append((rec, None))
                continue
            prompt = build_prompt(strategy, rec.features, examples=examples)
            calls[name].append((rec, pool.submit(complete, prompt)))

        for name in order:
            per_record = []
            failures = 0
            notes = set()
            for rec, future in calls[name]:
                if future is None:
                    failures += 1
                    notes.add("no disjoint examples available")
                    continue
                try:                    # a failed call other than a parse is raised
                    predicted = parse_profile_response(future.result().response)
                    try:
                        m, r2 = profile_metrics(rec.profile, predicted)
                    except ValidationError as exc:      # no overlap, or a flat overlap
                        raise ParseError(str(exc)) from exc
                except ParseError:
                    failures += 1
                    notes.add("parse failure(s) excluded")
                    continue
                predictions[name][rec.id] = predicted
                per_record.append((m, r2))
            if per_record:
                mean_mse = float(np.mean([m for m, _ in per_record]))
                mean_r2 = float(np.mean([r for _, r in per_record]))
                note = "" if failures == 0 else f"{failures} record(s) skipped: " + "; ".join(sorted(notes))
                rows.append(EvalRow(name, mean_mse, mean_r2, len(per_record), failures, note))
            else:
                rows.append(EvalRow(name, None, None, 0, failures,
                                    "unevaluable: " + "; ".join(sorted(notes) or ["no records"])))
    finally:
        pool.shutdown(cancel_futures=True)
    return BenchmarkResult(EvalReport(tuple(rows)), predictions, references)
