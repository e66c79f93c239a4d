"""Training-corpus generation: budget-efficient targets and preference pairs.

Phase one of budget-awareness post-training: from the records of one budget
search (search_results.jsonl), keep the response produced under each optimal
budget as the target, and export supervised fine-tuning records or preference
pairs (budgeted target preferred over the longer vanilla output) as JSONL for
an external trainer. No gradient training happens here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .backend import CompletionBackend
from .core import Question
from .evaluate import encode_record, read_jsonl
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


@dataclass(frozen=True)
class CorpusManifest:
    """Provenance for one exported corpus.

    ``counts`` holds ``attempted`` and ``succeeded`` record counts and the
    ``skipped`` count per reason.
    """

    dataset: str
    model_id: str
    format: str
    counts: dict
    config_hash: str


def _training_input(backend: CompletionBackend, question: Question, budget: int,
                    input_style: str) -> str:
    """Budget-free vanilla instruction by default; budgeted via input_style."""
    kinds = {"vanilla": PromptKind.VANILLA_COT, "budgeted": PromptKind.BUDGETED_COT}
    if input_style not in kinds:
        raise ValueError(f"input_style must be 'vanilla' or 'budgeted', got {input_style!r}")
    return build_prompt(
        question, kinds[input_style], budget=budget, templates=backend.templates
    ).user


def generate_target(
    backend: CompletionBackend,
    question: Question,
    record: SearchRecord,
    input_style: str = "vanilla",
) -> SftExample | Skip:
    """The search record's response under its optimal budget, the vanilla answer
    at the upper bound, as the training target; no backend call."""
    if record.status != "found":
        reason = f"backend_error: {record.error}" if record.status == "error" else record.status
        return Skip(question_id=question.id, reason=reason)
    budget = record.optimal_budget
    output_tokens = budget if budget == record.upper_bound else next(
        p.output_tokens for p in record.trace.points if p.budget == budget)
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
    input_style: str = "vanilla",
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


def _validate_record(record, corpus_format: str, index: int, questions: dict[str, Question]):
    if corpus_format == SFT_FORMAT:
        if not isinstance(record, SftExample):
            raise ValueError(f"record {index} is not an SFT example")
        texts = (record.input, record.target)
    elif corpus_format == DPO_FORMAT:
        if not isinstance(record, PreferencePair):
            raise ValueError(f"record {index} is not a preference pair")
        positive_tokens = record.meta.get("positive_tokens")
        negative_tokens = record.meta.get("negative_tokens")
        if positive_tokens is None or negative_tokens is None:
            raise ValueError(f"record {index} is missing token counts in its meta")
        if positive_tokens >= negative_tokens:
            raise ValueError(f"record {index} violates positive-shorter-than-negative")
        texts = (record.input, record.chosen, record.rejected)
    else:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    if any(not t for t in texts):
        raise ValueError(f"record {index} has an empty field")

    question = questions.get(record.meta.get("question_id"))
    if question is not None:
        graded_text = record.target if corpus_format == SFT_FORMAT else record.chosen
        if not grade(graded_text, question).correct:
            raise ValueError(f"record {index} ({question.id!r}) target no longer grades correct")


def export_corpus(
    records,
    corpus_format: str,
    path: str,
    dataset_name: str = "",
    model_id: str = "",
    config_hash: str = "",
    questions: list[Question] | None = None,
) -> CorpusManifest:
    """Write a JSONL corpus plus its manifest; skips are counted, not written.

    Every exported target/positive is re-graded against its question when the
    questions are supplied; a violation aborts naming the record index.
    """
    records = list(records)
    if not records:
        raise ValueError("export_corpus needs at least one record")
    question_index = {q.id: q for q in (questions or [])}

    exported = []
    skipped: dict[str, int] = {}
    for index, record in enumerate(records):
        if isinstance(record, Skip):
            skipped[record.reason] = skipped.get(record.reason, 0) + 1
            continue
        _validate_record(record, corpus_format, index, question_index)
        exported.append(record)

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in exported:
            handle.write(encode_record(vars(record)) + "\n")

    manifest = CorpusManifest(
        dataset=dataset_name,
        model_id=model_id,
        format=corpus_format,
        counts={
            "attempted": len(records),
            "succeeded": len(exported),
            "skipped": dict(sorted(skipped.items())),
        },
        config_hash=config_hash,
    )
    # Streamed to the file, as cli._write_json does, not built as one string.
    with open(manifest_path(path), "w", encoding="utf-8") as handle:
        json.dump(vars(manifest), handle, sort_keys=True, indent=2)
        handle.write("\n")
    return manifest


def manifest_path(corpus_path: str) -> str:
    root, _ = os.path.splitext(corpus_path)
    return f"{root}.manifest.json"


def load_corpus(path: str, corpus_format: str) -> list:
    """Round-trip loader for exported corpora."""
    if corpus_format == SFT_FORMAT:
        record_type = SftExample
    elif corpus_format == DPO_FORMAT:
        record_type = PreferencePair
    else:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    return read_jsonl(path, record_type)
