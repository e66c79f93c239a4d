"""Shared domain types, token accounting, and expense arithmetic.

Everything here is an immutable value object: instances are safe to share
across threads without synchronization.
"""

from __future__ import annotations

import json
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

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"question {self.id!r} has empty text")
        needs_gold = (AnswerKind.NUMERIC, AnswerKind.MULTIPLE_CHOICE)
        if self.answer_kind in needs_gold and not self.gold_answer:
            raise ValueError(f"question {self.id!r} is missing its gold answer")


@dataclass(frozen=True)
class Dataset:
    """Named, ordered cohort of questions."""

    name: str
    questions: list[Question]

    def __len__(self) -> int:
        return len(self.questions)


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


@dataclass(frozen=True)
class CompletionOutcome:
    """One LLM call's response text plus its exact token usage."""

    text: str
    usage: TokenUsage
    model_id: str
    request_fingerprint: str


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "a JSON object", list: "a JSON array"}


def _typed(section, where: str, nullable=(), **types) -> dict:
    """The keys a config section or a read-back record sets, each of its JSON
    type in ``types``: a float key also takes an int, as a float, a key in
    ``nullable`` also takes null, and a bool is no integer. An unknown key or
    another type is a ValueError."""
    if not isinstance(section, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object")
    typed = {}
    for key, value in section.items():
        kind = types.get(key)
        if value.__class__ is not kind and not (value is None and key in nullable):
            name = f"{where}.{key}" if where else key
            if kind is None:
                raise ValueError(f"unknown config key {name!r}")
            if kind is not float or value.__class__ is not int:
                null = " or null" if key in nullable else ""
                raise ValueError(f"{name} must be {_JSON_TYPES[kind]}{null}, got {json.dumps(value)}")
            try:
                value = float(value)
            except OverflowError as exc:
                raise ValueError(f"{name}: {exc}") from None
        typed[key] = value
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

    def __init__(self, entries: Iterable[ModelPricing]):
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
            fields = _typed(row, where, model_id=str, input_price=float, output_price=float)
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


_PUNCTUATION = string.punctuation.encode("ascii")


def count_tokens_approx(text: str) -> int:
    """Local token-count approximation: whitespace words plus punctuation marks.

    Every punctuation mark is one ASCII byte, and no byte of a multi-byte
    UTF-8 sequence is ASCII, so the marks are counted as the bytes that
    ``bytes.translate`` deletes from the text's UTF-8 encoding.

    The scripted mock reports it as its provider's input count; a live
    backend uses it only when the provider omits its usage block, and tags
    the result as a local approximation, never as provider-reported.
    """
    data = text.encode("utf-8", "surrogatepass")
    return len(text.split()) + len(data) - len(data.translate(None, _PUNCTUATION))
