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
from .grading import Verdict, grade
from .prompting import PromptKind

_FIRST_INTEGER_RE = re.compile(r"\d+")


def parse_estimate(raw_response: str) -> int | None:
    """First integer in the response, clamped to >= 1; None when it holds no integer."""
    match = _FIRST_INTEGER_RE.search(raw_response)
    return None if match is None else clamp_budget(int(match.group()))


def scale_budget(estimate: int, alpha: float) -> int:
    """Scale an estimate by alpha, rounding and clamping to >= 1."""
    return max(1, round(alpha * estimate))


@dataclass(frozen=True)
class EpResult:
    """One estimate-then-prompt run with both calls' usage kept separate."""

    verdict: Verdict
    estimation_usage: TokenUsage
    answer_usage: TokenUsage
    estimate: int | None
    budget_used: int | None
    used_fallback: bool

    @property
    def total_usage(self) -> TokenUsage:
        return self.estimation_usage.combined(self.answer_usage)


def run_ep(backend: CompletionBackend, question: Question, alpha: float) -> EpResult:
    """Estimate a budget, answer under it, grade the answer.

    Exactly two backend calls on both the happy path and the fallback path.
    """
    estimation = backend.ask(question, PromptKind.BUDGET_ESTIMATION)
    estimate = parse_estimate(estimation.text)
    budget = None if estimate is None else scale_budget(estimate, alpha)
    kind = PromptKind.VANILLA_COT if budget is None else PromptKind.BUDGETED_COT
    answer = backend.ask(question, kind, budget=budget)
    return EpResult(
        verdict=grade(answer.text, question),
        estimation_usage=estimation.usage,
        answer_usage=answer.usage,
        estimate=estimate,
        budget_used=budget,
        used_fallback=estimate is None,
    )
