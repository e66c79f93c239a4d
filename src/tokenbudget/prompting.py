"""Byte-exact construction of every prompt variant the harness sends.

The default template texts are frozen by golden tests; the scripted backend
parses the budget suffix back out of rendered prompts, so any drift here
breaks the search loop. Overrides come from the harness config as named
strings with a ``{budget}`` placeholder.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum

from .core import AnswerKind, Question

DEFAULT_SYSTEM = "You are a helpful assistant."

VANILLA_COT_SUFFIX = "Let's think step by step:"
BUDGETED_COT_SUFFIX = "Let's think step by step and use less than {budget} tokens:"

ESTIMATION_TASK = (
    "Task: Analyze the given question and estimate the minimum number of "
    "tokens required for reasoning."
)
ESTIMATION_CONTRACT = "Respond with a single integer."

FORMAT_INSTRUCTION = "Respond with only the letter of the correct option."


class PromptKind(Enum):
    DIRECT_ANSWER = "direct_answer"
    VANILLA_COT = "vanilla_cot"
    BUDGETED_COT = "budgeted_cot"
    BUDGET_ESTIMATION = "budget_estimation"


@dataclass(frozen=True)
class Prompt:
    system: str
    user: str


@dataclass(frozen=True)
class PromptTemplates:
    system: str = DEFAULT_SYSTEM
    vanilla_suffix: str = VANILLA_COT_SUFFIX
    budgeted_suffix: str = BUDGETED_COT_SUFFIX
    estimation_task: str = ESTIMATION_TASK
    estimation_contract: str = ESTIMATION_CONTRACT
    format_instruction: str = FORMAT_INSTRUCTION

    def __post_init__(self):
        # Budget probes differ only in the number rendered into this one field.
        parsed = string.Formatter().parse(self.budgeted_suffix)
        if [field[1:] for field in parsed if field[1] is not None] != [("budget", "", None)]:
            raise ValueError("budgeted_suffix needs exactly one replacement field, {budget}, "
                             f"got {self.budgeted_suffix!r}")


def build_prompt(question: Question, kind: PromptKind, budget: int | None,
                 templates: PromptTemplates) -> Prompt:
    """Render the user-facing prompt for one question.

    The user text is the question followed by the kind's instruction suffix;
    multiple-choice questions additionally get the answer-format instruction.
    Rendering is deterministic and injective over (question, kind, budget).
    """
    if kind is PromptKind.BUDGET_ESTIMATION:
        return build_estimation_prompt(question, templates)

    parts = [question.text]
    if kind is PromptKind.VANILLA_COT:
        parts.append(templates.vanilla_suffix)
    elif kind is PromptKind.BUDGETED_COT:
        parts.append(templates.budgeted_suffix.format(budget=budget))

    if question.answer_kind is AnswerKind.MULTIPLE_CHOICE:
        parts.append(templates.format_instruction)
    return Prompt(system=templates.system, user="\n".join(parts))


def build_estimation_prompt(question: Question, templates: PromptTemplates) -> Prompt:
    """Zero-shot budget-estimation prompt: task line, question, output contract."""
    user = "\n".join([templates.estimation_task, question.text, templates.estimation_contract])
    return Prompt(system=templates.system, user=user)
