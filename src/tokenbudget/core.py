"""Shared domain types, token accounting, and expense arithmetic.

Everything here is an immutable value object: instances are safe to share
across threads without synchronization.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import ConfigError


class AnswerKind(Enum):
    NUMERIC = "numeric"
    MULTIPLE_CHOICE = "multiple_choice"
    FREE_TEXT = "free_text"


class CountingSource(Enum):
    PROVIDER_REPORTED = "provider_reported"
    LOCAL_APPROXIMATION = "local_approximation"


@dataclass(frozen=True)
class Question:
    """One benchmark item: prompt text, gold answer, and answer kind."""

    id: str
    text: str
    gold_answer: str
    answer_kind: AnswerKind
    source: str = ""

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"question {self.id!r} has empty text")
        needs_gold = (AnswerKind.NUMERIC, AnswerKind.MULTIPLE_CHOICE)
        if self.answer_kind in needs_gold and not self.gold_answer:
            raise ValueError(f"question {self.id!r} is missing its gold answer")


def validate_budget(tokens: int) -> int:
    """Token budgets are positive integers; returns the value unchanged."""
    if not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 1:
        raise ValueError(f"token budget must be an integer >= 1, got {tokens!r}")
    return tokens


def clamp_budget(value: float) -> int:
    """Floor a real-valued budget and clamp it into the valid range."""
    return max(1, int(value))


@dataclass(frozen=True)
class TokenUsage:
    """Exact token counts for one completion call."""

    input_tokens: int
    output_tokens: int
    counting_source: CountingSource

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def combined(self, other: "TokenUsage") -> "TokenUsage":
        """Component-wise sum; provenance downgrades if either side was approximated."""
        if (self.counting_source is CountingSource.PROVIDER_REPORTED
                and other.counting_source is CountingSource.PROVIDER_REPORTED):
            source = CountingSource.PROVIDER_REPORTED
        else:
            source = CountingSource.LOCAL_APPROXIMATION
        return TokenUsage(
            input_tokens=self.input_tokens + other.input_tokens,
            output_tokens=self.output_tokens + other.output_tokens,
            counting_source=source,
        )

    def to_dict(self) -> dict:
        return {
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "counting_source": self.counting_source.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TokenUsage":
        return cls(
            input_tokens=data["input_tokens"],
            output_tokens=data["output_tokens"],
            counting_source=CountingSource(data["counting_source"]),
        )


@dataclass(frozen=True)
class CompletionOutcome:
    """One LLM call's response text plus its exact token usage."""

    text: str
    usage: TokenUsage
    model_id: str
    request_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "usage": self.usage.to_dict(),
            "model_id": self.model_id,
            "request_fingerprint": self.request_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompletionOutcome":
        return cls(
            text=data["text"],
            usage=TokenUsage.from_dict(data["usage"]),
            model_id=data["model_id"],
            request_fingerprint=data["request_fingerprint"],
        )


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _typed(section, where: str, **types) -> dict:
    """The keys a config section sets, converted by ``types``; any other key is a ValueError."""
    if not isinstance(section, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object")
    typed = {}
    for key, value in section.items():
        name = f"{where}.{key}" if where else key
        if key not in types:
            raise ValueError(f"unknown config key {name!r}")
        try:
            typed[key] = types[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
    return typed


@dataclass(frozen=True)
class ModelPricing:
    """USD per one million input/output tokens for one model."""

    model_id: str
    input_price: float
    output_price: float

    def __post_init__(self):
        for name in ("input_price", "output_price"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)!r}")


class PricingTable:
    """Registry of per-model pricing, one entry per model id."""

    def __init__(self, entries: Iterable[ModelPricing] = ()):
        self._entries: dict[str, ModelPricing] = {}
        for entry in entries:
            if entry.model_id in self._entries:
                raise ConfigError(f"duplicate pricing entry for model {entry.model_id!r}")
            self._entries[entry.model_id] = entry

    @classmethod
    def from_config(cls, rows: Iterable[dict]) -> "PricingTable":
        entries = []
        for index, row in enumerate(rows):
            where = f"pricing[{index}]"
            fields = _typed(row, where, model_id=_text, input_price=float, output_price=float)
            try:
                entries.append(ModelPricing(**fields))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
        return cls(entries)

    def for_model(self, model_id: str) -> ModelPricing:
        try:
            return self._entries[model_id]
        except KeyError:
            raise ConfigError(f"no pricing entry for model {model_id!r}") from None


def compute_expense(usage: TokenUsage, pricing: ModelPricing) -> float:
    """Expense of one sample in units of 1e-5 USD.

    Linear in both token counts: (input * input_price + output * output_price)
    dollars per million tokens, rescaled so reports read in 1e-5 $ per sample.
    """
    dollars_per_million = (
        usage.input_tokens * pricing.input_price
        + usage.output_tokens * pricing.output_price
    )
    return dollars_per_million / 10.0


_DROP_PUNCTUATION = str.maketrans("", "", string.punctuation)


def count_tokens_approx(text: str) -> int:
    """Local token-count approximation: whitespace words plus punctuation marks.

    Only used when a provider omits its usage block; downstream consumers must
    tag the result as a local approximation, never as provider-reported.
    """
    if not text:
        return 0
    words = len(text.split())
    punctuation = len(text) - len(text.translate(_DROP_PUNCTUATION))
    return words + punctuation
