"""Answer extraction and correctness judging."""

from __future__ import annotations

from hypothesis import given, strategies as st

from tokenbudget.core import AnswerKind
from tokenbudget.grading import Verdict, grade, normalize_number

from conftest import make_question

NUMERIC_18 = make_question(qid="n", text="How many?", gold="18")
NUMERIC_1p5 = make_question(qid="f", text="How much is left?", gold="1.5")
CHOICE_B = make_question(qid="c", text="Pick one.", gold="B", kind=AnswerKind.MULTIPLE_CHOICE)
FREE_PARIS = make_question(
    qid="t", text="Capital of France?", gold="Paris", kind=AnswerKind.FREE_TEXT
)


# ---------------------------------------------------------------------------
# Spec'd examples
# ---------------------------------------------------------------------------


def test_answer_marker_match():
    verdict = grade("...Thus, the answer is 18.", NUMERIC_18)
    assert verdict.correct
    assert verdict.extraction_rule == "answer_marker"


def test_fraction_normalizes_to_decimal():
    # Oracle: 3/2 == 1.5 by rational arithmetic.
    verdict = grade("...so she has $3/2 left", NUMERIC_1p5)
    assert verdict.correct
    assert verdict.extracted == "1.5"


def test_option_letter_extraction():
    verdict = grade("The correct option is B.", CHOICE_B)
    assert verdict.correct
    assert verdict.extraction_rule == "option_marker"


def test_no_number_yields_incorrect_none_rule():
    verdict = grade("I cannot solve this.", NUMERIC_18)
    assert not verdict.correct
    assert verdict.extracted is None
    assert verdict.extraction_rule == "none"


# ---------------------------------------------------------------------------
# Numeric extraction details
# ---------------------------------------------------------------------------


def test_hash_marker_wins():
    verdict = grade("reasoning 1 2 3\n#### 18", NUMERIC_18)
    assert verdict.correct
    assert verdict.extraction_rule == "hash_marker"


def test_last_number_fallback():
    assert grade("First guess 7, revised to 18", NUMERIC_18).correct


def test_marker_precedence_survives_trailing_prose():
    base = "The answer is 18."
    with_prose = base + " I hope that helps; good luck with the rest!"
    assert grade(base, NUMERIC_18).correct
    assert grade(with_prose, NUMERIC_18).correct


def test_thousands_separators_ignored():
    question = make_question(qid="k", text="t?", gold="1234567")
    assert grade("The answer is 1,234,567.", question).correct


@given(st.integers(min_value=1000, max_value=10**9))
def test_separator_insertion_never_flips_verdict(value):
    question = make_question(qid="h", text="t?", gold=str(value))
    plain = grade(f"the answer is {value}", question)
    grouped = grade(f"the answer is {value:,}", question)
    assert plain.correct and grouped.correct


def test_trailing_zeros_and_currency():
    question = make_question(qid="z", text="t?", gold="18")
    assert grade("answer is $18.00", question).correct


def test_negative_numbers():
    question = make_question(qid="neg", text="t?", gold="-4")
    assert grade("so the answer is -4", question).correct


def test_relative_tolerance_absorbs_formatting_noise_only():
    question = make_question(qid="tol", text="t?", gold="3")
    assert grade("the answer is 3.0000000001", question).correct
    assert not grade("the answer is 3.1", question).correct


def test_normalize_number_edge_cases():
    assert normalize_number("1,234") == 1234.0
    assert normalize_number("$5") == 5.0
    assert normalize_number("3/2") == 1.5
    assert normalize_number("3/0") is None
    assert normalize_number("") is None


def test_zero_denominator_is_an_incorrect_verdict_not_an_error():
    assert grade("#### 1/0", NUMERIC_18) == grade("#### 1/0", NUMERIC_18) == Verdict(
        extracted="1/0", correct=False, extraction_rule="hash_marker")


# ---------------------------------------------------------------------------
# Multiple choice and free text
# ---------------------------------------------------------------------------


def test_choice_fallback_to_last_standalone_letter():
    verdict = grade("Comparing them all, B", CHOICE_B)
    assert verdict.correct
    assert verdict.extraction_rule == "last_letter"


def test_choice_wrong_letter():
    assert not grade("The answer is C.", CHOICE_B).correct


def test_choice_nothing_extractable():
    verdict = grade("no idea at all", CHOICE_B)
    assert verdict.extracted is None
    assert not verdict.correct


def test_free_text_normalizes_whitespace_and_case():
    assert grade("  PARIS ", FREE_PARIS).correct
    assert grade("paris", FREE_PARIS).correct
    assert not grade("London", FREE_PARIS).correct


def test_grade_is_pure():
    text = "the answer is 18"
    first = grade(text, NUMERIC_18)
    second = grade(text, NUMERIC_18)
    assert first == second
