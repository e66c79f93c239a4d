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

import math
from dataclasses import dataclass, field
from typing import Sequence

from .backend import CompletionBackend
from .core import CompletionOutcome, Question, clamp_budget
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


@dataclass
class ElasticityTrace:
    """Ordered (budget, output tokens, correctness) points from one search."""

    points: list[TracePoint] = field(default_factory=list)

    def __post_init__(self):
        budgets = [p.budget for p in self.points]
        if any(b2 >= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ValueError("trace budgets must be strictly decreasing")

    def correct_points(self) -> list[TracePoint]:
        return [p for p in self.points if p.correct]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class SearchRecord:
    """One question's budget search: what search_optimal_budget returns, and
    one line of search_results.jsonl, written by `line` and read back checked.

    ``status`` is ``found``, ``vanilla_incorrect``, ``no_feasible_budget`` or,
    for a question whose search raised, ``error`` with the ``error`` text. A
    found record's target is the response under its optimal budget, the vanilla
    answer when that is the upper bound. Trace rows read back are rebuilt as an
    ElasticityTrace.
    """

    question_id: str
    status: str
    optimal_budget: int | None = None
    upper_bound: int | None = None
    target_output: str | None = None
    trace: ElasticityTrace = field(default_factory=list)
    error: str | None = None

    def __post_init__(self):
        if not isinstance(self.trace, ElasticityTrace):
            self.trace = ElasticityTrace([TracePoint(**row) for row in self.trace])
        if self.upper_bound.__class__ not in (int, type(None)):
            raise ValueError(f"upper_bound must be an integer, got {self.upper_bound!r}")
        if self.status != "found":
            return
        budgets = {self.upper_bound, *(p.budget for p in self.trace.points)}
        if not isinstance(self.optimal_budget, int) or self.optimal_budget not in budgets:
            raise ValueError(f"found record {self.question_id!r} has optimal_budget "
                             f"{self.optimal_budget!r}, not its upper_bound or a trace budget")
        if not isinstance(self.target_output, str) or not self.target_output:
            raise ValueError(f"found record {self.question_id!r} has target_output "
                             f"{self.target_output!r}, not a non-empty string")

    def line(self) -> str:
        """The record's line of search_results.jsonl, without its newline: an
        error line holds the question id, status and error, any other line
        every field but the error."""
        if self.status == "error":
            return encode_record(
                {"question_id": self.question_id, "status": self.status, "error": self.error})
        fields = dict(vars(self), trace=[vars(p) for p in self.trace.points])
        del fields["error"]
        return encode_record(fields)

    def elasticity_rows(self) -> list[tuple]:
        """elasticity.csv rows (question_id, iteration, budget, output_tokens, correct)."""
        return [
            (self.question_id, iteration, p.budget, p.output_tokens, p.correct)
            for iteration, p in enumerate(self.trace.points, start=1)
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
    baseline: str = "probe",
) -> SearchRecord:
    """The question's SearchRecord: the smallest correctness-preserving budget
    with the lowest cost, the response under it, and the probe trace.

    Runs vanilla CoT first; its output-token count is the search upper bound
    and its verdict is the precondition (a wrong vanilla answer aborts the
    search). The baseline cost for the first feasibility test comes from an
    explicit probe at the upper bound (``baseline="probe"``, default) or from
    the vanilla cost itself (``baseline="vanilla"``).

    Backend errors propagate; an ungradable response counts as incorrect.
    """
    if baseline not in ("probe", "vanilla"):
        raise ValueError(f"baseline must be 'probe' or 'vanilla', got {baseline!r}")

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

    return SearchRecord(question.id, "found", best_budget, upper_bound, best_text,
                        ElasticityTrace(points))


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
        if self.contains(budget):
            return 0
        return min(abs(budget - self.low), abs(budget - self.high))


def ideal_budget_range(trace: ElasticityTrace, k: int | str = "auto") -> IdealRange:
    """Size-k contiguous window of the trace minimizing total observed cost.

    Only correctness-preserving points participate. ``k="auto"`` picks
    max(1, N // 3); ties between equal-cost windows go to the smallest
    starting index.
    """
    points = trace.correct_points()
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
    if not samples:
        raise ValueError("estimator_quality needs at least one sample")
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

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


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
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
) -> MonotonicityAudit:
    """Probe scaled budgets around the optimum and test the monotone pattern.

    A sample is monotonic when every verdict strictly below the optimal
    budget is incorrect and every verdict at or above it is correct. Scaled
    budgets are floored and clamped to >= 1.
    """
    for multiplier in multipliers:
        if not 0 < multiplier < math.inf:
            raise ValueError(f"multipliers must be finite and > 0, got {multiplier!r}")
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
    if not audits:
        raise ValueError("monotonic_fraction needs at least one audit")
    return sum(1 for a in audits if a.is_monotonic) / len(audits)
