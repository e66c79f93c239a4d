"""Estimate-then-prompt pipeline.

Two backend calls per question, always: one zero-shot budget estimation,
then one budgeted answer. If the estimation response cannot be parsed, the
second call falls back to vanilla chain-of-thought and the sample is
flagged, so accuracy is preserved at the cost of tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .backend import CompletionBackend
from .core import Question, TokenUsage, clamp_budget
from .errors import EstimationParseError
from .grading import Verdict, grade
from .prompting import PromptKind

_FIRST_INTEGER_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class EstimatedBudget:
    """Parsed budget estimate plus the raw response kept for audit."""

    value: int
    raw_response: str
    parse_rule: str


def parse_estimate(raw_response: str) -> EstimatedBudget:
    """First integer in the response, clamped to >= 1."""
    match = _FIRST_INTEGER_RE.search(raw_response)
    if match is None:
        raise EstimationParseError(
            "estimation response contains no integer", raw_response=raw_response
        )
    return EstimatedBudget(
        value=clamp_budget(int(match.group())),
        raw_response=raw_response,
        parse_rule="first_integer",
    )


def scale_budget(estimate: EstimatedBudget, alpha: float) -> int:
    """Scale an estimate by alpha, rounding and clamping to >= 1."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return max(1, round(alpha * estimate.value))


@dataclass(frozen=True)
class EpResult:
    """One estimate-then-prompt run with both calls' usage kept separate."""

    verdict: Verdict
    estimation_usage: TokenUsage
    answer_usage: TokenUsage
    estimate: EstimatedBudget | None
    budget_used: int | None
    used_fallback: bool

    @property
    def total_usage(self) -> TokenUsage:
        return self.estimation_usage.combined(self.answer_usage)


def run_ep(
    backend: CompletionBackend,
    question: Question,
    alpha: float = 1.0,
) -> EpResult:
    """Estimate a budget, answer under it, grade the answer.

    Exactly two backend calls on both the happy path and the fallback path.
    """
    estimation = backend.ask(question, PromptKind.BUDGET_ESTIMATION)
    try:
        estimate = parse_estimate(estimation.text)
    except EstimationParseError:
        estimate = budget = None
        answer = backend.ask(question, PromptKind.VANILLA_COT)
    else:
        budget = scale_budget(estimate, alpha)
        answer = backend.ask(question, PromptKind.BUDGETED_COT, budget=budget)
    return EpResult(
        verdict=grade(answer.text, question),
        estimation_usage=estimation.usage,
        answer_usage=answer.usage,
        estimate=estimate,
        budget_used=budget,
        used_fallback=estimate is None,
    )
