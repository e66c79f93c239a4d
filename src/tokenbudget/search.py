"""Optimal token-budget search, its record, and its analysis operations.

The search halves the budget starting from the vanilla chain-of-thought
cost and accepts a candidate only while the answer stays correct AND the
observed output-token cost strictly drops (greedy feasibility). Reducing
the budget past a reasonable range makes real token usage rebound upward
("token elasticity"), so the first rejected candidate terminates the walk
and the last accepted one is the optimal budget.

A search returns its SearchRecord, the one shape of a search result: it
writes its own line of search_results.jsonl and its rows of elasticity.csv,
and the audit, elasticity and ptdata verbs read the same record back.

Also here: the ideal-budget-range rolling-window minimum over a trace,
estimator-quality metrics against those ranges, and the per-question
monotonicity audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .backend import CompletionBackend
from .core import CompletionOutcome, Question, _typed, clamp_budget
from .evaluate import encode_record
from .grading import grade
from .prompting import PromptKind


@dataclass(frozen=True)
class TracePoint:
    """One budgeted probe: requested budget, observed output tokens, verdict,
    and the fingerprint of the response; a row of a search record's trace."""

    budget: int
    output_tokens: int
    correct: bool
    response_fingerprint: str | None = None


def _read_point(row: dict, where: str) -> TracePoint:
    """A trace row read back, each field of its JSON type, budget >= 1, output_tokens >= 0."""
    point = TracePoint(**_typed(row, where, {"response_fingerprint"}, budget=int,
                                output_tokens=int, correct=bool, response_fingerprint=str))
    if point.budget < 1 or point.output_tokens < 0:
        raise ValueError(f"{where} needs budget >= 1 and output_tokens >= 0, got "
                         f"{point.budget} and {point.output_tokens}")
    return point


# Per status, the fields its line holds besides question_id and status, and
# those of them it may set: every other field is null, or an empty trace.
_SEARCHED = ("optimal_budget", "upper_bound", "target_output", "trace")
STATUS_FIELDS = {
    "found": (_SEARCHED, _SEARCHED),
    "vanilla_incorrect": (_SEARCHED, ("upper_bound",)),
    "no_feasible_budget": (_SEARCHED, ("upper_bound",)),
    "error": (("error",), ("error",)),
}


@dataclass
class SearchRecord:
    """One question's budget search: what search_optimal_budget returns, and
    one line of search_results.jsonl, written by `line` and read back checked.

    ``status`` is ``found``, ``vanilla_incorrect``, ``no_feasible_budget`` or,
    for a question whose search raised, ``error`` with the ``error`` text, a
    non-empty string, and nothing else. ``vanilla_incorrect`` and
    ``no_feasible_budget`` carry only an upper bound, and no upper bound is
    negative. A found record's optimal budget is its upper bound or a trace
    budget, and at least 1 (a vanilla answer of 0 tokens is
    ``no_feasible_budget``); its target is the response under that budget,
    the vanilla answer when that is the upper bound. The trace is the
    search's probes in order, its budgets strictly decreasing; rows read back
    become TracePoints.
    """

    question_id: str
    status: str
    optimal_budget: int | None = None
    upper_bound: int | None = None
    target_output: str | None = None
    trace: tuple[TracePoint, ...] = ()
    error: str | None = None

    def __post_init__(self):
        if self.question_id.__class__ is not str:
            raise ValueError(f"question_id must be a string, got {self.question_id!r}")
        if self.status not in STATUS_FIELDS:
            raise ValueError(f"status must be one of {', '.join(STATUS_FIELDS)}, "
                             f"got {self.status!r}")
        rows, self.trace = self.trace, tuple(
            p if isinstance(p, TracePoint) else _read_point(p, f"trace[{i}]")
            for i, p in enumerate(self.trace))
        if rows.__class__ not in (tuple, list):  # an empty object or string holds no row
            raise ValueError(f"trace must be a JSON array, got {rows!r}")
        if any(b.budget >= a.budget for a, b in zip(self.trace, self.trace[1:])):
            raise ValueError("trace budgets must be strictly decreasing")
        if self.upper_bound.__class__ not in (int, type(None)):
            raise ValueError(f"upper_bound must be an integer, got {self.upper_bound!r}")
        if (self.upper_bound or 0) < 0:
            raise ValueError(f"upper_bound must be >= 0, got {self.upper_bound}")
        if self.status == "error" and (self.error.__class__ is not str or not self.error):
            raise ValueError(f"error record {self.question_id!r} has error "
                             f"{self.error!r}, not a non-empty string")
        settable = STATUS_FIELDS[self.status][1]
        for name in (*_SEARCHED, "error"):
            if name not in settable and (value := getattr(self, name)) not in (None, ()):
                what = "an error" if name == "error" else name
                raise ValueError(f"{self.status} record {self.question_id!r} carries "
                                 f"{what}: {value!r}")
        if self.status != "found":
            return
        budgets = {self.upper_bound, *(p.budget for p in self.trace)}
        if self.optimal_budget.__class__ is not int or self.optimal_budget not in budgets:
            raise ValueError(f"found record {self.question_id!r} has optimal_budget "
                             f"{self.optimal_budget!r}, not its upper_bound or a trace budget")
        if self.optimal_budget < 1:
            raise ValueError(f"found record {self.question_id!r} has optimal_budget "
                             f"{self.optimal_budget}, not a budget >= 1")
        if not isinstance(self.target_output, str) or not self.target_output:
            raise ValueError(f"found record {self.question_id!r} has target_output "
                             f"{self.target_output!r}, not a non-empty string")

    def line(self) -> str:
        """The record's line of search_results.jsonl, without its newline: the
        question id, the status and the fields STATUS_FIELDS gives the status."""
        line = {"question_id": self.question_id, "status": self.status}
        line.update((name, getattr(self, name)) for name in STATUS_FIELDS[self.status][0])
        if "trace" in line:
            line["trace"] = [vars(p) for p in self.trace]
        return encode_record(line)

    def elasticity_rows(self) -> list[tuple]:
        """elasticity.csv rows (question_id, iteration, budget, output_tokens, correct)."""
        return [
            (self.question_id, iteration, p.budget, p.output_tokens, p.correct)
            for iteration, p in enumerate(self.trace, start=1)
        ]


def halving_candidates(upper_bound: int) -> list[int]:
    """Strictly decreasing candidate sequence: floor halves down to 1."""
    candidates = []
    budget = upper_bound // 2
    while budget >= 1:
        candidates.append(budget)
        budget //= 2
    return candidates


def search_optimal_budget(
    backend: CompletionBackend,
    question: Question,
    baseline: str,
) -> SearchRecord:
    """The question's SearchRecord: the smallest correctness-preserving budget
    with the lowest cost, the response under it, and the probe trace.

    Runs vanilla CoT first; its output-token count is the search upper bound
    and its verdict is the precondition (a wrong vanilla answer aborts the
    search). The baseline cost for the first feasibility test comes from an
    explicit probe at the upper bound (``baseline="probe"``) or from
    the vanilla cost itself (``baseline="vanilla"``).

    Backend errors propagate; an ungradable response counts as incorrect.
    """
    vanilla = backend.ask(question, PromptKind.VANILLA_COT)
    upper_bound = vanilla.usage.output_tokens
    if not grade(vanilla.text, question).correct:
        return SearchRecord(question.id, "vanilla_incorrect", upper_bound=upper_bound)
    if upper_bound < 1:
        return SearchRecord(question.id, "no_feasible_budget", upper_bound=upper_bound)

    candidates = halving_candidates(upper_bound)
    points: list[TracePoint] = []

    def probe(budget: int) -> tuple[TracePoint, CompletionOutcome]:
        outcome = backend.ask(question, PromptKind.BUDGETED_COT, budget=budget)
        verdict = grade(outcome.text, question)
        point = TracePoint(
            budget=budget,
            output_tokens=outcome.usage.output_tokens,
            correct=verdict.correct,
            response_fingerprint=outcome.request_fingerprint,
        )
        points.append(point)
        return point, outcome

    best_budget = upper_bound
    best_text = vanilla.text
    if candidates:
        if baseline == "probe":
            previous_cost = probe(upper_bound)[0].output_tokens
        else:
            previous_cost = upper_bound
        for budget in candidates:
            point, outcome = probe(budget)
            feasible = point.correct and point.output_tokens < previous_cost
            if not feasible:
                break
            best_budget = budget
            best_text = outcome.text
            previous_cost = point.output_tokens

    return SearchRecord(question.id, "found", best_budget, upper_bound, best_text, tuple(points))


# ---------------------------------------------------------------------------
# Ideal budget range (rolling-window minimum over a trace)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealRange:
    """Contiguous window of correctness-preserving budgets with minimal cost."""

    budgets: tuple[int, ...]
    window_size: int
    total_cost: int

    @property
    def low(self) -> int:
        return min(self.budgets)

    @property
    def high(self) -> int:
        return max(self.budgets)

    def contains(self, budget: int) -> bool:
        return self.low <= budget <= self.high

    def distance(self, budget: int) -> int:
        """How far ``budget`` lies outside the range; 0 inside it."""
        return max(0, self.low - budget, budget - self.high)


def ideal_budget_range(trace: Sequence[TracePoint], k: int | str) -> IdealRange:
    """Size-k contiguous window of a search trace minimizing total observed cost.

    Only correctness-preserving points participate. ``k="auto"`` picks
    max(1, N // 3); ties between equal-cost windows go to the smallest
    starting index.
    """
    points = [p for p in trace if p.correct]
    n = len(points)
    if n == 0:
        raise ValueError("trace has no correctness-preserving points")
    if k == "auto":
        window = max(1, n // 3)
    else:
        window = int(k)
    if window < 1 or window > n:
        raise ValueError(f"window size {window} out of range for a {n}-point trace")

    costs = [p.output_tokens for p in points]
    current = sum(costs[:window])
    best_sum = current
    best_start = 0
    for start in range(1, n - window + 1):
        current += costs[start + window - 1] - costs[start - 1]
        if current < best_sum:
            best_sum = current
            best_start = start
    chosen = points[best_start:best_start + window]
    return IdealRange(
        budgets=tuple(p.budget for p in chosen),
        window_size=window,
        total_cost=best_sum,
    )


@dataclass(frozen=True)
class EstimatorQuality:
    """In-range accuracy and mean offset of out-of-range estimates."""

    in_range_accuracy: float
    out_of_range_distance: float | None
    sample_count: int
    out_of_range_count: int


def estimator_quality(samples: Sequence[tuple[int, IdealRange]]) -> EstimatorQuality:
    """Score estimated budgets against their ideal ranges.

    Accuracy is the fraction of estimates inside their range; the distance is
    averaged over out-of-range samples only and absent when there are none.
    """
    hits = 0
    misses: list[int] = []
    for estimate, window in samples:
        if window.contains(estimate):
            hits += 1
        else:
            misses.append(window.distance(estimate))
    distance = sum(misses) / len(misses) if misses else None
    return EstimatorQuality(
        in_range_accuracy=hits / len(samples),
        out_of_range_distance=distance,
        sample_count=len(samples),
        out_of_range_count=len(misses),
    )


# ---------------------------------------------------------------------------
# Monotonicity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditCheck:
    multiplier: float
    budget: int
    correct: bool
    output_tokens: int


@dataclass(frozen=True)
class MonotonicityAudit:
    """Verdicts around the optimal budget and whether they are monotone."""

    question_id: str
    optimal_budget: int
    checks: tuple[AuditCheck, ...]
    is_monotonic: bool


def monotonicity_audit(
    backend: CompletionBackend,
    question: Question,
    optimal_budget: int,
    multipliers: Sequence[float],
) -> MonotonicityAudit:
    """Probe scaled budgets around the optimum and test the monotone pattern.

    A sample is monotonic when every verdict strictly below the optimal
    budget is incorrect and every verdict at or above it is correct. Scaled
    budgets are floored and clamped to >= 1.
    """
    checks = []
    for multiplier in multipliers:
        budget = clamp_budget(multiplier * optimal_budget)
        outcome = backend.ask(question, PromptKind.BUDGETED_COT, budget=budget)
        verdict = grade(outcome.text, question)
        checks.append(
            AuditCheck(
                multiplier=multiplier,
                budget=budget,
                correct=verdict.correct,
                output_tokens=outcome.usage.output_tokens,
            )
        )
    monotonic = all(
        check.correct if check.budget >= optimal_budget else not check.correct
        for check in checks
    )
    return MonotonicityAudit(
        question_id=question.id,
        optimal_budget=optimal_budget,
        checks=tuple(checks),
        is_monotonic=monotonic,
    )


def monotonic_fraction(audits: Sequence[MonotonicityAudit]) -> float:
    """Fraction of audited samples satisfying the monotone pattern."""
    return sum(1 for a in audits if a.is_monotonic) / len(audits)
