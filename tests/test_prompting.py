"""Golden prompt texts and rendering properties."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tokenbudget.backend import ScriptedEntry
from tokenbudget.core import AnswerKind
from tokenbudget.prompting import (
    ESTIMATION_TASK,
    PromptKind,
    PromptTemplates,
    build_estimation_prompt,
    build_prompt,
)

from conftest import TEMPLATES, behavior_from_curve, main_refuses, make_question, scripted_backend

NUMERIC_Q = make_question(qid="n1", text="How many bolts in total?", gold="3")
CHOICE_Q = make_question(
    qid="m1",
    text="Which is largest? A. 1 B. 7 C. 3 D. 5",
    gold="B",
    kind=AnswerKind.MULTIPLE_CHOICE,
)


# ---------------------------------------------------------------------------
# Golden templates (byte-exact)
# ---------------------------------------------------------------------------


def test_vanilla_suffix_verbatim():
    prompt = build_prompt(NUMERIC_Q, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert prompt.user == "How many bolts in total?\nLet's think step by step:"


def test_budgeted_suffix_verbatim_at_50():
    prompt = build_prompt(NUMERIC_Q, PromptKind.BUDGETED_COT, 50, TEMPLATES)
    assert prompt.user == (
        "How many bolts in total?\nLet's think step by step and use less than 50 tokens:"
    )


def test_budgeted_suffix_renders_decimal():
    prompt = build_prompt(NUMERIC_Q, PromptKind.BUDGETED_COT, 10, TEMPLATES)
    assert prompt.user.endswith("use less than 10 tokens:")


def test_direct_answer_is_bare_question():
    assert build_prompt(NUMERIC_Q, PromptKind.DIRECT_ANSWER, None,
                        TEMPLATES).user == "How many bolts in total?"


def test_estimation_task_line_verbatim():
    assert ESTIMATION_TASK == (
        "Task: Analyze the given question and estimate the minimum number of "
        "tokens required for reasoning."
    )
    prompt = build_estimation_prompt(NUMERIC_Q, TEMPLATES)
    assert prompt.user == (
        "Task: Analyze the given question and estimate the minimum number of "
        "tokens required for reasoning.\n"
        "How many bolts in total?\n"
        "Respond with a single integer."
    )


def test_multiple_choice_gets_format_instruction():
    prompt = build_prompt(CHOICE_Q, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert prompt.user.endswith("Respond with only the letter of the correct option.")
    numeric = build_prompt(NUMERIC_Q, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert "letter of the correct option" not in numeric.user


def test_estimation_prompt_has_no_format_instruction():
    prompt = build_estimation_prompt(CHOICE_Q, TEMPLATES)
    assert "letter of the correct option" not in prompt.user


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_rendering_is_injective_across_kinds_and_budgets():
    for question in (NUMERIC_Q, CHOICE_Q):
        rendered = [
            build_prompt(question, PromptKind.DIRECT_ANSWER, None, TEMPLATES).user,
            build_prompt(question, PromptKind.VANILLA_COT, None, TEMPLATES).user,
            build_prompt(question, PromptKind.BUDGETED_COT, 50, TEMPLATES).user,
            build_prompt(question, PromptKind.BUDGETED_COT, 51, TEMPLATES).user,
            build_prompt(question, PromptKind.BUDGET_ESTIMATION, None, TEMPLATES).user,
        ]
        assert len(set(rendered)) == len(rendered)


@given(st.integers(min_value=1, max_value=10**9))
def test_budget_round_trips_through_classification(budget):
    # The scripted mock is the one budget reader: it serves the entry scripted
    # for the budget it reads back, and the default for any other.
    backend = scripted_backend(
        {NUMERIC_Q: behavior_from_curve(vanilla_tokens=1, curve={budget: (budget + 1, True)})},
        default_entry=ScriptedEntry(output_tokens=0),
    )
    prompt = build_prompt(NUMERIC_Q, PromptKind.BUDGETED_COT, budget, TEMPLATES)
    assert backend.complete(prompt).usage.output_tokens == budget + 1


def test_unbudgeted_prompts_classify_as_no_budget():
    backend = scripted_backend(
        {NUMERIC_Q: behavior_from_curve(vanilla_tokens=7, curve={}, default=(0, True))}
    )
    for kind in (PromptKind.VANILLA_COT, PromptKind.DIRECT_ANSWER):
        prompt = build_prompt(NUMERIC_Q, kind, None, TEMPLATES)
        assert backend.complete(prompt).usage.output_tokens == 7


def test_no_prompt_embeds_the_gold_answer():
    question = make_question(qid="g", text="What is one plus one?", gold="23456")
    for kind in (PromptKind.DIRECT_ANSWER, PromptKind.VANILLA_COT, PromptKind.BUDGET_ESTIMATION):
        assert question.gold_answer not in build_prompt(question, kind, None, TEMPLATES).user
    assert question.gold_answer not in build_prompt(
        question, PromptKind.BUDGETED_COT, 7, TEMPLATES).user


def test_budget_invariant_enforced(tmp_path, capsys):
    # Every budget a verb renders is >= 1: searched and audited budgets by
    # construction, an ep budget by its clamp, and a search record read back
    # by its check. The one budget the CLI reads as given is fixed:N's.
    for budget in ("0", "-3"):
        error = main_refuses(tmp_path, capsys, "eval", "--methods", f"fixed:{budget}")
        assert error == (f"error: --methods: 'fixed:{budget}': the budget of fixed:N "
                         "must be an integer >= 1\n")


def test_determinism_two_questions_differ_only_in_body():
    q_a = make_question(qid="a", text="Question A?")
    q_b = make_question(qid="b", text="Question B?")
    user_a = build_estimation_prompt(q_a, TEMPLATES).user
    user_b = build_estimation_prompt(q_b, TEMPLATES).user
    assert user_a.replace("Question A?", "Question B?") == user_b


# ---------------------------------------------------------------------------
# Template overrides
# ---------------------------------------------------------------------------


def test_template_override_with_budget_placeholder():
    templates = PromptTemplates(budgeted_suffix="Answer within {budget} tokens.")
    prompt = build_prompt(NUMERIC_Q, PromptKind.BUDGETED_COT, budget=9, templates=templates)
    assert prompt.user.endswith("Answer within 9 tokens.")


@pytest.mark.parametrize("suffix", [
    "Be brief:",
    "Use at most {tokens} tokens:",
    "Use {budget} tokens, not {budget}:",
    "Use at most {budget:>5} tokens:",
    "Use at most {0} tokens:",
])
def test_budgeted_suffix_needs_exactly_one_budget_field(suffix):
    with pytest.raises(ValueError, match="budgeted_suffix"):
        PromptTemplates(budgeted_suffix=suffix)
