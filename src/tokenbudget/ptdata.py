"""Training-corpus generation: budget-efficient targets and preference pairs.

Phase one of budget-awareness post-training: from the records of one budget
search (search_results.jsonl), keep the response produced under each optimal
budget as the target, and export supervised fine-tuning records or preference
pairs (budgeted target preferred over the longer vanilla output) as JSONL for
an external trainer. No gradient training happens here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .backend import CompletionBackend
from .core import Question
from .evaluate import atomic_open, encode_record, write_json
from .grading import grade
from .prompting import PromptKind, build_prompt
from .search import SearchRecord

SFT_FORMAT = "sft"
DPO_FORMAT = "dpo"


@dataclass(frozen=True)
class SftExample:
    """One supervised fine-tuning record."""

    input: str
    target: str
    meta: dict


@dataclass(frozen=True)
class PreferencePair:
    """One preference record: the short budgeted output is chosen over the
    long vanilla output, which is rejected."""

    input: str
    chosen: str
    rejected: str
    meta: dict


@dataclass(frozen=True)
class Skip:
    """A question that produced no record, with the reason preserved."""

    question_id: str
    reason: str


def _training_input(backend: CompletionBackend, question: Question, budget: int,
                    input_style: str) -> str:
    """The budget-free vanilla instruction, or the budgeted one: ``input_style``
    is a ``--pt-input`` choice, ``vanilla`` or ``budgeted``."""
    kinds = {"vanilla": PromptKind.VANILLA_COT, "budgeted": PromptKind.BUDGETED_COT}
    return build_prompt(
        question, kinds[input_style], budget=budget, templates=backend.templates
    ).user


def generate_target(
    backend: CompletionBackend,
    question: Question,
    record: SearchRecord,
    input_style: str,
) -> SftExample | Skip:
    """The search record's response under its optimal budget, the vanilla answer
    at the upper bound, as the training target; no backend call."""
    if record.status != "found":
        reason = f"backend_error: {record.error}" if record.status == "error" else record.status
        return Skip(question_id=question.id, reason=reason)
    budget = record.optimal_budget
    output_tokens = budget if budget == record.upper_bound else next(
        p.output_tokens for p in record.trace if p.budget == budget)
    return SftExample(
        input=_training_input(backend, question, budget, input_style),
        target=record.target_output,
        meta={
            "question_id": question.id,
            "optimal_budget": budget,
            "output_tokens": output_tokens,
        },
    )


def build_preference_pair(
    backend: CompletionBackend,
    question: Question,
    record: SearchRecord,
    input_style: str,
) -> PreferencePair | Skip:
    """Pair the budgeted target with the (cached) vanilla output as rejected."""
    target = generate_target(backend, question, record, input_style)
    if isinstance(target, Skip):
        return target
    # The search already issued this exact vanilla request, so a caching
    # backend serves the rejected output for free.
    rejected = backend.ask(question, PromptKind.VANILLA_COT)
    positive_tokens = target.meta["output_tokens"]
    negative_tokens = rejected.usage.output_tokens
    if positive_tokens >= negative_tokens:
        return Skip(question_id=question.id, reason="length_inversion")
    return PreferencePair(
        input=target.input,
        chosen=target.target,
        rejected=rejected.text,
        meta={
            "question_id": question.id,
            "optimal_budget": target.meta["optimal_budget"],
            "positive_tokens": positive_tokens,
            "negative_tokens": negative_tokens,
        },
    )


def stale_targets(records: dict[str, SearchRecord], questions: list[Question]) -> list[str]:
    """Ids of the questions whose found search record holds a target that no
    longer grades correct against the question; ptdata refuses any such
    record on read, before its first request."""
    return [q.id for q in questions if records[q.id].status == "found"
            and not grade(records[q.id].target_output, q).correct]


def _validate_record(record, corpus_format: str, index: int):
    if corpus_format == DPO_FORMAT:
        positive_tokens = record.meta.get("positive_tokens")
        negative_tokens = record.meta.get("negative_tokens")
        if positive_tokens is None or negative_tokens is None:
            raise ValueError(f"record {index} is missing token counts in its meta")
        if positive_tokens >= negative_tokens:
            raise ValueError(f"record {index} violates positive-shorter-than-negative")
        texts = (record.input, record.chosen, record.rejected)
    else:
        texts = (record.input, record.target)
    if any(not t for t in texts):
        raise ValueError(f"record {index} has an empty field")


def export_corpus(
    records,
    corpus_format: str,
    path: str,
    dataset_name: str,
    model_id: str,
    config_hash: str,
) -> dict:
    """Write a JSONL corpus plus its manifest, and return the manifest; skips
    are counted, not written. ``counts`` holds the ``attempted`` and
    ``succeeded`` record counts and the ``skipped`` count per reason.

    A record that breaks its format's invariants aborts naming its index.
    """
    exported = []
    skipped: dict[str, int] = {}
    for index, record in enumerate(records):
        if isinstance(record, Skip):
            skipped[record.reason] = skipped.get(record.reason, 0) + 1
            continue
        _validate_record(record, corpus_format, index)
        exported.append(record)

    with atomic_open(path) as handle:
        for record in exported:
            handle.write(encode_record(vars(record)) + "\n")

    manifest = {
        "dataset": dataset_name,
        "model_id": model_id,
        "format": corpus_format,
        "counts": {
            "attempted": len(records),
            "succeeded": len(exported),
            "skipped": dict(sorted(skipped.items())),
        },
        "config_hash": config_hash,
    }
    write_json(f"{os.path.splitext(path)[0]}.manifest.json", manifest)
    return manifest
