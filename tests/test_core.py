"""Core types, expense arithmetic, and the token-count approximation."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, strategies as st

from tokenbudget.core import (
    AnswerKind,
    CountingSource,
    ModelPricing,
    PricingTable,
    Question,
    TokenUsage,
    compute_expense,
    count_tokens_approx,
)
from tokenbudget.errors import ConfigError

PRICING = ModelPricing(model_id="m", input_price=0.15, output_price=0.60)


def usage(inp: int, out: int) -> TokenUsage:
    return TokenUsage(inp, out, CountingSource.PROVIDER_REPORTED)


# ---------------------------------------------------------------------------
# compute_expense
# ---------------------------------------------------------------------------


def test_expense_table_example_exact():
    # 100 in + 200 out at (0.15, 0.60) $/1M = 0.000135 $ = 13.5e-5 $.
    assert compute_expense(usage(100, 200), PRICING) == 13.5


def test_expense_zero_usage_is_zero():
    assert compute_expense(usage(0, 0), PRICING) == 0.0


def test_expense_hand_oracle():
    # 1000*0.15 + 318*0.60 = 340.8 per 1M -> 34.08e-5 $.
    assert compute_expense(usage(1000, 318), PRICING) == pytest.approx(34.08, abs=1e-9)


def test_expense_zero_iff_no_tokens_under_positive_prices():
    assert compute_expense(usage(0, 0), PRICING) == 0.0
    assert compute_expense(usage(1, 0), PRICING) > 0.0
    assert compute_expense(usage(0, 1), PRICING) > 0.0


@given(
    a_in=st.integers(0, 10**6), a_out=st.integers(0, 10**6),
    b_in=st.integers(0, 10**6), b_out=st.integers(0, 10**6),
)
def test_expense_is_linear(a_in, a_out, b_in, b_out):
    total = usage(a_in, b_in).combined(usage(a_out, b_out))
    parts = compute_expense(usage(a_in, b_in), PRICING) + compute_expense(usage(a_out, b_out), PRICING)
    assert compute_expense(total, PRICING) == pytest.approx(parts, rel=1e-12)


def test_pricing_table_lookup_and_missing_entry():
    table = PricingTable([PRICING])
    assert table.for_model("m") is PRICING
    with pytest.raises(ConfigError, match="ghost-model"):
        table.for_model("ghost-model")


def test_pricing_table_rejects_duplicates():
    with pytest.raises(ConfigError):
        PricingTable([PRICING, ModelPricing("m", 1.0, 2.0)])


def test_pricing_table_from_config():
    table = PricingTable.from_config(
        [{"model_id": "gpt-4o-mini", "input_price": 1, "output_price": 0.60}]
    )
    pricing = table.for_model("gpt-4o-mini")
    assert pricing.output_price == 0.60
    assert pricing.input_price == 1.0 and type(pricing.input_price) is float
    with pytest.raises(ValueError, match=r"pricing\[0\]\.input_price must be a number"):
        PricingTable.from_config(
            [{"model_id": "gpt-4o-mini", "input_price": "0.15", "output_price": 0.60}]
        )


# ---------------------------------------------------------------------------
# count_tokens_approx
# ---------------------------------------------------------------------------


def test_count_empty_is_zero():
    assert count_tokens_approx("") == 0


def test_count_golden_value():
    # 5 whitespace words + apostrophe + colon, frozen as the golden value.
    assert count_tokens_approx("Let's think step by step:") == 7


def test_count_is_pure():
    text = "The answer is 42."
    assert count_tokens_approx(text) == count_tokens_approx(text)


@given(st.text(max_size=300))
def test_count_concatenation_never_shrinks(s):
    assert count_tokens_approx(s + s) >= count_tokens_approx(s)


@given(st.text(max_size=200), st.text(max_size=200))
def test_count_monotone_in_appended_text(prefix, suffix):
    assert count_tokens_approx(prefix + suffix) >= count_tokens_approx(prefix)


def _count_tokens_reference(text: str) -> int:
    """The original per-character count, kept as the reference."""
    punctuation = frozenset(string.punctuation)
    return len(text.split()) + sum(1 for ch in text if ch in punctuation)


# Lone surrogates, non-ASCII punctuation (which is not counted) and non-ASCII
# whitespace (which splits words).
_COUNT_ALPHABET = string.punctuation + string.whitespace + "aé€！«»\x85\xa0\u2028\ud800\udfff"


@given(st.text(max_size=300) | st.text(alphabet=_COUNT_ALPHABET, max_size=300)
       | st.text(st.characters(blacklist_categories=()), max_size=300))
def test_count_matches_per_character_reference(text):
    assert count_tokens_approx(text) == _count_tokens_reference(text)


# ---------------------------------------------------------------------------
# Value-object invariants
# ---------------------------------------------------------------------------


def test_question_requires_text_and_gold():
    with pytest.raises(ValueError):
        Question(id="x", text="", gold_answer="1", answer_kind=AnswerKind.NUMERIC)
    with pytest.raises(ValueError):
        Question(id="x", text="hm", gold_answer="", answer_kind=AnswerKind.MULTIPLE_CHOICE)
    # Free-text questions may leave the gold answer empty.
    Question(id="x", text="hm", gold_answer="", answer_kind=AnswerKind.FREE_TEXT)


def test_usage_rejects_negative_counts():
    with pytest.raises(ValueError):
        TokenUsage(-1, 0, CountingSource.PROVIDER_REPORTED)


def test_usage_combined_downgrades_mixed_provenance():
    reported = usage(10, 20)
    approx = TokenUsage(1, 2, CountingSource.LOCAL_APPROXIMATION)
    assert reported.combined(reported).counting_source is CountingSource.PROVIDER_REPORTED
    assert reported.combined(approx).counting_source is CountingSource.LOCAL_APPROXIMATION
    assert reported.combined(approx).input_tokens == 11
    assert reported.combined(approx).output_tokens == 22
