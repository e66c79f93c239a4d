"""Estimate-then-prompt pipeline."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from tokenbudget.backend import ScriptedEntry
from tokenbudget.ep import parse_estimate, run_ep, scale_budget
from tokenbudget.prompting import PromptTemplates, build_estimation_prompt

from conftest import TEMPLATES, behavior_from_curve, count_misses, main_refuses, scripted_backend


# ---------------------------------------------------------------------------
# Estimate parsing
# ---------------------------------------------------------------------------


def test_parse_bare_integer():
    assert parse_estimate("50") == 50


def test_parse_first_integer_in_prose():
    estimate = parse_estimate("approximately 120 tokens should suffice")
    assert estimate == 120
    # Reference oracle: the first digit run found by a character scan.
    text = "approximately 120 tokens should suffice"
    digits = ""
    for ch in text:
        if ch.isdigit():
            digits += ch
        elif digits:
            break
    assert estimate == int(digits)


def test_parse_no_digits_is_none():
    assert parse_estimate("I don't know") is None


def test_parse_zero_clamps_to_one():
    assert parse_estimate("0 tokens at most") == 1


def test_estimate_budget_via_backend(fig_like_question, fig_like_backend):
    assert run_ep(fig_like_backend, fig_like_question, alpha=1.0).estimate == 50


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scale_identity():
    assert scale_budget(parse_estimate("50"), 1.0) == 50


def test_scale_doubles():
    assert scale_budget(parse_estimate("50"), 2.0) == 100


def test_scale_clamps_to_floor():
    assert scale_budget(parse_estimate("50"), 0.01) == 1


# The CLI refuses an alpha that scale_budget cannot scale by, before any request.


def test_scale_rejects_nonpositive_alpha(tmp_path, capsys):
    # 1e-400 is below the smallest float: it parses as 0.0.
    error = main_refuses(tmp_path, capsys, "eval", "--alpha", "1e-400")
    assert error == "error: --alpha must be finite and > 0, got 0.0\n"


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_scale_rejects_nan_and_infinite_alpha_naming_it(tmp_path, capsys, alpha):
    error = main_refuses(tmp_path, capsys, "eval", "--methods", "ep", f"--alpha={alpha}")
    assert error == f"error: --alpha must be finite and > 0, got {alpha}\n"


@given(st.integers(1, 10**6), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_scale_monotone_in_alpha(value, alpha_a, alpha_b):
    low, high = sorted((alpha_a, alpha_b))
    assert scale_budget(value, low) <= scale_budget(value, high)


# ---------------------------------------------------------------------------
# run_ep
# ---------------------------------------------------------------------------


def test_run_ep_happy_path(fig_like_question, fig_like_backend):
    misses = count_misses(fig_like_backend)
    result = run_ep(fig_like_backend, fig_like_question, alpha=1.0)
    assert result.verdict.correct
    assert result.estimate == 50
    assert result.budget_used == 50
    assert result.answer_usage.output_tokens == 86
    assert not result.used_fallback
    assert misses() == 2


def test_run_ep_usage_sums_exactly(fig_like_question, fig_like_backend):
    result = run_ep(fig_like_backend, fig_like_question, alpha=1.0)
    total = result.total_usage
    assert total.input_tokens == (
        result.estimation_usage.input_tokens + result.answer_usage.input_tokens
    )
    assert total.output_tokens == (
        result.estimation_usage.output_tokens + result.answer_usage.output_tokens
    )


def test_run_ep_alpha_scales_the_answer_budget(fig_like_question):
    behavior = behavior_from_curve(
        vanilla_tokens=258,
        curve={50: (86, True), 100: (120, True)},
        estimate="50",
    )
    backend = scripted_backend({fig_like_question: behavior})
    result = run_ep(backend, fig_like_question, alpha=2.0)
    assert result.budget_used == 100
    assert result.answer_usage.output_tokens == 120


def test_run_ep_renders_with_the_backend_templates(fig_like_question):
    behavior = behavior_from_curve(vanilla_tokens=258, curve={50: (86, True)}, estimate="50")
    templates = PromptTemplates(
        estimation_task="Task: guess the tokens this needs.",
        budgeted_suffix="Think briefly, at most {budget} tokens:",
    )
    backend = scripted_backend({fig_like_question: behavior}, templates=templates)
    misses = count_misses(backend)
    result = run_ep(backend, fig_like_question, alpha=1.0)
    assert result.estimate == 50
    assert result.answer_usage.output_tokens == 86
    assert misses() == 2


def test_run_ep_fallback_on_unparsable_estimate(fig_like_question):
    behavior = behavior_from_curve(
        vanilla_tokens=258,
        curve={},
        estimate="I don't know",
    )
    behavior.estimate = ScriptedEntry(output_tokens=4, text="I don't know")
    backend = scripted_backend({fig_like_question: behavior})
    misses = count_misses(backend)
    result = run_ep(backend, fig_like_question, alpha=1.0)
    assert result.used_fallback
    assert result.estimate is None
    assert result.budget_used is None
    assert result.verdict.correct
    # Fallback answers with vanilla CoT: full vanilla cost, still 2 calls.
    assert result.answer_usage.output_tokens == 258
    assert misses() == 2
    # The unparsable estimation call's usage is still accounted for.
    estimation = backend.complete(build_estimation_prompt(fig_like_question, TEMPLATES))
    assert result.estimation_usage == estimation.usage
    assert result.estimation_usage.output_tokens == 4

