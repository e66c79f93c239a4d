"""Dataset ingestion, cohort execution, and report generation.

A method run is its per-sample records, and the report is computed from
them, by construction: render_report aggregates the records it is handed, so
the records a run writes rebuild its report exactly. Failed samples are
excluded from accuracy's denominator but surfaced as a separate count so API
hiccups never masquerade as wrong answers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import threading
from dataclasses import dataclass, fields

from .backend import CompletionBackend, parse_scripted_file
from .core import AnswerKind, Dataset, ModelPricing, Question, _typed, compute_expense
from .ep import run_ep
from .errors import DatasetError, ProtocolError, TransportError
from .grading import grade
from .jsonstream import WINDOW, JSONStream, build_each, not_utf8
from .prompting import PromptKind

GSM8K_JSONL = "gsm8k_jsonl"
SCRIPTED_JSON = "scripted_json"

GSM8K_ANSWER_MARKER = "#### "

# Every JSONL record line (search and eval records, corpus lines) comes from
# this one C encoder, built once: ``JSONEncoder.encode``, like ``json.dumps``,
# builds a new one and a dict of circular-check markers per call. Records are
# trees, so it makes no circular check; its line is the bytes of
# ``json.dumps(record, sort_keys=True)``. The arguments: markers, default,
# string encoder, indent, key and item separators, sort_keys, skipkeys,
# allow_nan.
_encode_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ": ", ", ", True, False, True)


def encode_record(record: dict) -> str:
    return "".join(_encode_chunks(record, 0))


# Every JSON document (reports and manifests) is written by write_json, in
# the bytes of ``json.dumps(document, sort_keys=True, indent=2)``. CPython
# 3.11's C encoder has no indent, and the pure-Python one that json.dump runs
# makes one write per token (220,395 for the 1.4 MB audit report of a
# 2,000-question cohort).
_encode_string = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_parts(value, newline: str, parts: list, flush) -> None:
    """Append the text of ``value`` to ``parts``, indented as ``json.dumps``
    indents it where ``newline`` (a newline and the indent of the line the
    value starts on) begins its line, and call ``flush`` after each element
    of a list that ``value``, or a dict in it, holds. Strings, ints, floats,
    bools, None, non-empty lists and non-empty dicts with string keys are
    written here; any other value, a subclass, a tuple or an empty
    container among them, by ``json.dumps`` itself."""
    kind = value.__class__
    if kind is str:
        parts.append(_encode_string(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float:
        text = float.__repr__(value)
        parts.append(_FLOAT_WORDS.get(text, text))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind is list and value:
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            separator = "," + inner
            _json_parts(item, inner, parts, None)
            if flush:
                flush()
        parts.append(newline + "]")
    # Sorting raises TypeError for keys of mixed types, as json.dumps does,
    # so the keys are all strings when the first one is.
    elif kind is dict and value and isinstance((keys := sorted(value))[0], str):
        inner = newline + "  "
        separator = "{" + inner
        for key in keys:
            parts.append(separator + _encode_string(key) + ": ")
            separator = "," + inner
            _json_parts(value[key], inner, parts, flush)
        parts.append(newline + "}")
    else:
        # JSON strings hold no raw newline, so this re-indents the whole value.
        parts.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def _write_document(document, write) -> None:
    """``json.dumps(document, sort_keys=True, indent=2)`` and a newline, passed
    to ``write`` in chunks: one per element of each list a dict in the
    document holds, so that no chunk holds a whole report."""
    parts = []

    def flush():
        write("".join(parts))
        parts.clear()

    _json_parts(document, "\n", parts, flush)
    parts.append("\n")
    flush()


@contextlib.contextmanager
def atomic_open(path: str):
    """A text handle on ``<path>.tmp``, which replaces ``path`` once the block
    ends without an error. A reader sees the previous file or the whole new
    one, and a write that fails leaves the previous file and no temporary
    one. Every output but the append-only response cache is written through
    here, a line or a list element at a time, with no newline translation."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        # After the replace there is nothing left to remove.
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)


def write_json(path: str, document: dict) -> None:
    """Write ``document`` to ``path`` as ``json.dumps(document, sort_keys=True,
    indent=2)`` and a newline, streamed a list element at a time through
    atomic_open. Every JSON output (reports and manifests) is written here."""
    with atomic_open(path) as handle:
        _write_document(document, handle.write)


def _jsonl_objects(path: str):
    """(line number, object) per non-blank line; any other line is a DatasetError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    item = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}: line {number}: malformed JSON: {exc.msg}") from exc
                if not isinstance(item, dict):
                    raise DatasetError(f"{path}: line {number}: not a JSON object")
                yield number, item
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc


def read_jsonl(path: str, record_type) -> list:
    """``record_type(**object)`` per JSONL line; a missing or unknown key, a value
    the type rejects, or a repeated ``question_id`` is a DatasetError naming the line."""
    records, seen = [], set()
    for number, item in _jsonl_objects(path):
        try:
            records.append(record_type(**item))
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: line {number}: {exc}") from exc
        if (key := getattr(records[-1], "question_id", number)) in seen:
            raise DatasetError(f"{path}: line {number}: a second record of {key!r}")
        seen.add(key)
    return records


def _question_text(item: dict) -> str:
    text = item["question"]
    if not isinstance(text, str):
        raise TypeError(f"question must be a string, got {text!r}")
    return text


def _load_gsm8k(path: str) -> list[Question]:
    questions = []
    for lineno, item in _jsonl_objects(path):
        answer_text = item.get("answer", "")
        if not isinstance(answer_text, str):
            raise DatasetError(
                f"{path}: line {lineno}: answer must be a string, got {answer_text!r}")
        marker = answer_text.rfind(GSM8K_ANSWER_MARKER)
        if marker < 0:
            raise DatasetError(f"{path}: line {lineno} has no '#### ' answer marker")
        gold = answer_text[marker + len(GSM8K_ANSWER_MARKER):].strip()
        if not gold:
            raise DatasetError(f"{path}: line {lineno} has an empty gold answer")
        try:
            questions.append(
                Question(
                    id=str(item.get("id", f"gsm8k-{lineno}")),
                    text=_question_text(item),
                    gold_answer=gold,
                    answer_kind=AnswerKind.NUMERIC,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return questions


def _load_mathbench(path: str) -> list[Question]:
    """A JSON array of items, read one item at a time, or else JSONL."""
    def question(lineno: int, item) -> Question:
        if not isinstance(item, dict):
            raise DatasetError(f"{path}: item {lineno}: not a JSON object")
        try:
            return Question(
                id=str(item.get("id", f"mathbench-{lineno}")),
                text=_question_text(item),
                gold_answer=str(item["answer"]).strip().upper(),
                answer_kind=AnswerKind.MULTIPLE_CHOICE,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: item {lineno}: {exc}") from exc

    try:
        with open(path, "r", encoding="utf-8") as handle:
            # An array when the first character that is not white space opens one.
            while (head := handle.read(WINDOW)).isspace():
                pass
            if not head.lstrip().startswith("["):
                return build_each(_jsonl_objects(path), question)
            handle.seek(0)
            stream = JSONStream(handle)
            if stream.peek() != "[":
                stream.value()  # white space json does not skip: "Expecting value"
            return build_each(enumerate(stream.items(), start=1), question)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: malformed JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc


def load_dataset(path: str, fmt: str) -> Dataset:
    """Normalize a dataset file in one of the ``--dataset-format`` formats into
    Question records, deterministic order; a scripted fixture is the
    ScriptedScenario the mock plays."""
    if fmt == SCRIPTED_JSON:
        return parse_scripted_file(path)
    if fmt == GSM8K_JSONL:
        questions, name = _load_gsm8k(path), "gsm8k"
    else:
        questions, name = _load_mathbench(path), "mathbench"
    seen: set[str] = set()
    for question in questions:
        if question.id in seen:
            raise DatasetError(f"{path}: duplicate question id {question.id!r}")
        seen.add(question.id)
    return Dataset(name=name, questions=questions)


def sample_dataset(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Seeded, order-stable subsample; identical across runs and platforms."""
    rng = random.Random(seed)
    keyed = sorted(range(len(dataset.questions)), key=lambda i: (rng.random(), i))
    chosen = sorted(keyed[:n])
    return Dataset(name=dataset.name, questions=[dataset.questions[i] for i in chosen])


# ---------------------------------------------------------------------------
# Method execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """One comparison arm: direct, vanilla, ep (with alpha), or fixed budget."""

    kind: str
    alpha: float = 1.0
    budget: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "ep" and self.alpha != 1.0:
            return f"ep(alpha={self.alpha:g})"
        if self.kind == "fixed":
            return f"fixed({self.budget})"
        return self.kind

    @property
    def slug(self) -> str:
        return self.label.replace("(", "_").replace(")", "").replace("=", "").replace(".", "p")


def parse_method(token: str, alpha: float) -> MethodSpec:
    token = token.strip()
    if token in ("direct", "vanilla", "ep"):
        return MethodSpec(kind=token, alpha=alpha if token == "ep" else 1.0)
    if token.startswith("fixed:"):
        budget = token.split(":", 1)[1]
        if not budget.isdecimal() or int(budget) < 1:
            raise ValueError(f"{token!r}: the budget of fixed:N must be an integer >= 1")
        return MethodSpec(kind="fixed", budget=int(budget))
    raise ValueError(f"unknown method {token!r} (expected direct|vanilla|ep|fixed:N)")


@dataclass
class SampleRecord:
    """Per-sample execution record; aggregates derive from these exactly."""

    question_id: str
    method: str
    correct: bool | None = None
    extracted: str | None = None
    output_tokens: int | None = None
    total_input_tokens: int | None = None
    total_output_tokens: int | None = None
    expense: float | None = None
    failed: bool = False
    error: str | None = None
    estimated_budget: int | None = None
    alpha: float | None = None
    budget_used: int | None = None
    used_fallback: bool = False
    usage_breakdown: dict | None = None

    @classmethod
    def read(cls, **line) -> SampleRecord:
        """A record line read back, as elasticity's --estimates does: each field
        of its JSON type, and an estimate as parse_estimate clamps it, >= 1.
        A run builds its own records of these types, so only a line read back
        is checked."""
        record = cls(**line)
        budget = record.estimated_budget
        if budget is not None and (budget.__class__ is not int or budget < 1):
            raise ValueError(f"estimated_budget must be null or an integer >= 1, got {budget!r}")
        vars(record).update(_typed(vars(record), "", _SAMPLE_NULLABLE, **_SAMPLE_TYPES))
        return record


# Each SampleRecord field's JSON type, named first in its annotation; a field
# that defaults to None also takes null.
_JSON_CLASSES = {kind.__name__: kind for kind in (bool, int, float, str, dict)}
_SAMPLE_TYPES = {f.name: _JSON_CLASSES[f.type.split(" | ")[0]] for f in fields(SampleRecord)}
_SAMPLE_NULLABLE = frozenset(f.name for f in fields(SampleRecord) if f.default is None)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate of one method over one cohort."""

    accuracy: float
    mean_output_tokens: float
    mean_expense: float
    sample_count: int
    failed_count: int = 0


def aggregate_records(records: list[SampleRecord]) -> EvalReport:
    """The aggregate of per-sample records (the only way it exists)."""
    graded = [r for r in records if not r.failed]
    failed = len(records) - len(graded)
    if not graded:
        return EvalReport(0.0, 0.0, 0.0, sample_count=0, failed_count=failed)
    return EvalReport(
        accuracy=sum(1 for r in graded if r.correct) / len(graded),
        mean_output_tokens=sum(r.output_tokens for r in graded) / len(graded),
        mean_expense=sum(r.expense for r in graded) / len(graded),
        sample_count=len(graded),
        failed_count=failed,
    )


_PROMPT_KINDS = {
    "direct": PromptKind.DIRECT_ANSWER,
    "vanilla": PromptKind.VANILLA_COT,
    "fixed": PromptKind.BUDGETED_COT,
}


def _pool_map(worker, items, concurrency: int, failed):
    """Run worker over a sequence of items on a bounded pool, results in input order.

    The harness's only scheduler, and its one per-question failure policy: a
    provider error that outlasted the retries (TransportError, RateLimitError
    among them, or ProtocolError) puts ``failed(item, error)`` in its item's
    place; any other error is fatal and propagates. ``min(concurrency,
    len(items))`` threads, one at concurrency 1, take the next index from one
    shared iterator, so an item costs no future or queue hand-off. A fatal
    error, or an interrupt while the caller waits, stops every thread from
    starting another item; it is raised once all of them have returned, so
    Ctrl-C waits for the items in flight.
    """
    results = [None] * len(items)
    indices = iter(range(len(items)))
    fatal: list[BaseException] = []
    finished = threading.Semaphore(0)

    def drain():
        try:
            for index in indices:
                if fatal:
                    return
                try:
                    results[index] = worker(items[index])
                except (TransportError, ProtocolError) as exc:
                    results[index] = failed(items[index], exc)
        except BaseException as exc:
            fatal.append(exc)
        finally:
            finished.release()

    threads = [threading.Thread(target=drain) for _ in range(min(concurrency, len(items)))]
    for thread in threads:
        thread.start()
    try:
        # Waiting on the semaphore, not in Thread.join: an interrupted join
        # marks its thread as stopped while it still runs.
        for _ in threads:
            finished.acquire()
    except BaseException as exc:
        fatal.append(exc)
        raise
    finally:
        for thread in threads:
            thread.join()
    if fatal:
        raise fatal[0]
    return results


def _run_sample(
    backend: CompletionBackend,
    question: Question,
    method: MethodSpec,
    pricing: ModelPricing,
    include_estimation_tokens: bool,
) -> SampleRecord:
    if method.kind == "ep":
        result = run_ep(backend, question, alpha=method.alpha)
        reported = result.answer_usage.output_tokens
        if include_estimation_tokens:
            reported += result.estimation_usage.output_tokens
        total = result.total_usage
        return SampleRecord(
            question_id=question.id,
            method=method.label,
            correct=result.verdict.correct,
            extracted=result.verdict.extracted,
            output_tokens=reported,
            total_input_tokens=total.input_tokens,
            total_output_tokens=total.output_tokens,
            expense=compute_expense(total, pricing),
            estimated_budget=result.estimate,
            alpha=method.alpha,
            budget_used=result.budget_used,
            used_fallback=result.used_fallback,
            usage_breakdown={
                "estimation": result.estimation_usage.to_dict(),
                "answer": result.answer_usage.to_dict(),
            },
        )

    outcome = backend.ask(question, _PROMPT_KINDS[method.kind], budget=method.budget)
    verdict = grade(outcome.text, question)
    return SampleRecord(
        question_id=question.id,
        method=method.label,
        correct=verdict.correct,
        extracted=verdict.extracted,
        output_tokens=outcome.usage.output_tokens,
        total_input_tokens=outcome.usage.input_tokens,
        total_output_tokens=outcome.usage.output_tokens,
        expense=compute_expense(outcome.usage, pricing),
        budget_used=method.budget,
    )


def run_method(
    backend: CompletionBackend,
    dataset: Dataset,
    method: MethodSpec,
    pricing: ModelPricing,
    concurrency: int,
    include_estimation_tokens: bool,
) -> list[SampleRecord]:
    """Execute one method over the cohort with bounded parallelism.

    A question that a provider error fails gets a failed record from
    _pool_map, excluded from the aggregate; any other error is fatal.
    Records come back in dataset order regardless of completion order, so
    outputs stay byte-stable.
    """
    return _pool_map(
        lambda question: _run_sample(backend, question, method, pricing, include_estimation_tokens),
        dataset.questions,
        concurrency,
        lambda question, error: SampleRecord(question.id, method.label, failed=True,
                                             error=str(error)),
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

TABLE_TEXT = "table_text"
CSV_FORMAT = "csv"
JSON_FORMAT = "json"

REPORT_COLUMNS = (
    "dataset",
    "method",
    "accuracy_pct",
    "output_tokens",
    "expense_1e5_usd",
    "samples",
    "failed",
    "token_reduction_pct",
)


def token_reduction(vanilla_tokens: float, method_tokens: float) -> float:
    """Percent reduction in mean output tokens relative to vanilla CoT."""
    return (1.0 - method_tokens / vanilla_tokens) * 100.0


def _report_rows(runs, dataset_name: str) -> list[dict]:
    reports = [(method, aggregate_records(records)) for method, records in runs]
    base = next((r.mean_output_tokens for m, r in reports if m.kind == "vanilla"), None)
    rows = []
    for method, report in reports:
        reduction = None
        if base and method.kind != "vanilla":
            reduction = token_reduction(base, report.mean_output_tokens)
        rows.append(
            {
                "dataset": dataset_name,
                "method": method.label,
                "accuracy_pct": round(report.accuracy * 100.0, 2),
                "output_tokens": round(report.mean_output_tokens, 2),
                "expense_1e5_usd": round(report.mean_expense, 2),
                "samples": report.sample_count,
                "failed": report.failed_count,
                "token_reduction_pct": round(reduction, 2) if reduction is not None else None,
            }
        )
    return rows


def render_report(
    runs: list[tuple[MethodSpec, list[SampleRecord]]],
    dataset_name: str,
    model_id: str,
    fmt: str,
    config_hash: str,
) -> str:
    """One row per (method, records) run over one dataset: accuracy, output
    tokens, expense, each aggregated here from the records.

    ``fmt`` is JSON_FORMAT, CSV_FORMAT or TABLE_TEXT, the ``--format``
    choices; CSV and JSON renderings are bit-stable for identical inputs.
    """
    rows = _report_rows(runs, dataset_name)
    if fmt == JSON_FORMAT:
        document = {
            "rows": rows,
            "model_id": model_id,
            "config_hash": config_hash,
        }
        chunks = []
        _write_document(document, chunks.append)
        return "".join(chunks)
    if fmt == CSV_FORMAT:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in REPORT_COLUMNS])
        return buffer.getvalue()
    header = (
        f"{'dataset':<16} {'method':<14} {'ACC':>8} {'Output Tokens':>14} "
        f"{'Expense':>10} {'Samples':>8} {'Failed':>7} {'Reduction':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        reduction = f"{row['token_reduction_pct']:.2f}%" if row["token_reduction_pct"] is not None else "-"
        lines.append(
            f"{row['dataset']:<16} {row['method']:<14} "
            f"{row['accuracy_pct']:>7.2f}% {row['output_tokens']:>14.2f} "
            f"{row['expense_1e5_usd']:>10.2f} {row['samples']:>8d} "
            f"{row['failed']:>7d} {reduction:>10}"
        )
    lines.append(f"config_hash: {config_hash}  model: {model_id}")
    return "\n".join(lines) + "\n"
