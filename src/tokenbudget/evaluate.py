"""Dataset ingestion, cohort execution, and report generation.

Aggregates are always recomputable from the persisted per-sample records;
failed samples are excluded from accuracy's denominator but surfaced as a
separate count so API hiccups never masquerade as wrong answers.
"""

from __future__ import annotations

import csv
import io
import json
import random
import threading
from dataclasses import dataclass, field

from .backend import CompletionBackend, parse_scripted_file
from .core import (
    AnswerKind,
    PricingTable,
    Question,
    TokenUsage,
    compute_expense,
)
from .ep import run_ep
from .errors import DatasetError, ProtocolError, TransportError
from .grading import grade
from .prompting import PromptKind

GSM8K_JSONL = "gsm8k_jsonl"
MATHBENCH_JSON = "mathbench_json"
SCRIPTED_JSON = "scripted_json"

GSM8K_ANSWER_MARKER = "#### "


@dataclass
class Dataset:
    """Named, ordered cohort of questions."""

    name: str
    questions: list[Question]

    def __len__(self) -> int:
        return len(self.questions)


def _jsonl_objects(path: str):
    """(line number, object) per non-blank line; any other line is a DatasetError."""
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


def read_jsonl(path: str, record_type=dict) -> list:
    """``record_type(**object)`` per JSONL line; a missing or unknown key, or
    a value the type rejects, is a DatasetError naming the line."""
    records = []
    for number, item in _jsonl_objects(path):
        try:
            records.append(record_type(**item))
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: line {number}: {exc}") from exc
    return records


def _load_gsm8k(path: str) -> list[Question]:
    questions = []
    for lineno, item in _jsonl_objects(path):
        answer_text = item.get("answer", "")
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
                    text=item["question"],
                    gold_answer=gold,
                    answer_kind=AnswerKind.NUMERIC,
                    source="gsm8k",
                )
            )
        except (KeyError, ValueError) as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return questions


def _load_mathbench(path: str) -> list[Question]:
    with open(path, "r", encoding="utf-8") as handle:
        content = handle.read()
    if content.lstrip().startswith("["):
        try:
            items = list(enumerate(json.loads(content), start=1))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: malformed JSON at line {exc.lineno}") from exc
    else:
        items = list(_jsonl_objects(path))

    questions = []
    for lineno, item in items:
        try:
            questions.append(
                Question(
                    id=str(item.get("id", f"mathbench-{lineno}")),
                    text=item["question"],
                    gold_answer=str(item["answer"]).strip().upper(),
                    answer_kind=AnswerKind.MULTIPLE_CHOICE,
                    source="mathbench",
                )
            )
        except (KeyError, ValueError) as exc:
            raise DatasetError(f"{path}: item {lineno}: {exc}") from exc
    return questions


def load_dataset(path: str, fmt: str) -> Dataset:
    """Normalize a dataset file into Question records, deterministic order."""
    if fmt == GSM8K_JSONL:
        questions, name = _load_gsm8k(path), "gsm8k"
    elif fmt == MATHBENCH_JSON:
        questions, name = _load_mathbench(path), "mathbench"
    elif fmt == SCRIPTED_JSON:
        scenario = parse_scripted_file(path)
        questions, name = scenario.questions, scenario.name
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    seen: set[str] = set()
    for question in questions:
        if question.id in seen:
            raise DatasetError(f"{path}: duplicate question id {question.id!r}")
        seen.add(question.id)
    return Dataset(name=name, questions=questions)


def sample_dataset(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Seeded, order-stable subsample; identical across runs and platforms."""
    if n > len(dataset.questions):
        raise ValueError(f"cannot sample {n} questions from {len(dataset.questions)}")
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


def parse_method(token: str, alpha: float = 1.0) -> MethodSpec:
    token = token.strip()
    if token in ("direct", "vanilla", "ep"):
        return MethodSpec(kind=token, alpha=alpha if token == "ep" else 1.0)
    if token.startswith("fixed:"):
        return MethodSpec(kind="fixed", budget=int(token.split(":", 1)[1]))
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


@dataclass(frozen=True)
class EvalReport:
    """Aggregate of one method over one cohort."""

    accuracy: float
    mean_output_tokens: float
    mean_expense: float
    sample_count: int
    failed_count: int = 0


@dataclass
class MethodRun:
    """One method's per-sample records plus the aggregate report."""

    method: MethodSpec
    dataset_name: str
    model_id: str
    records: list[SampleRecord] = field(default_factory=list)
    report: EvalReport | None = None


def aggregate_records(records: list[SampleRecord]) -> EvalReport:
    """Recompute the aggregate from per-sample records (the only way it exists)."""
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


def _pool_map(worker, items, concurrency: int):
    """Run worker over a sequence of items on a bounded pool, results in input order.

    The harness's only scheduler, and its one per-question failure policy: a
    provider error that outlasted the retries (TransportError, RateLimitError
    among them, or ProtocolError) is returned in its item's place; any other
    error is fatal and propagates. At concurrency 1 the items run inline.
    Otherwise ``min(concurrency, len(items))`` threads take the next index
    from one shared iterator, so an item costs no future or queue hand-off.
    A fatal error, or an interrupt while the caller waits, stops every thread
    from starting another item; it is raised once all of them have returned.
    """

    def guarded(item):
        try:
            return worker(item)
        except (TransportError, ProtocolError) as exc:
            return exc

    if concurrency == 1:
        return [guarded(item) for item in items]
    results = [None] * len(items)
    indices = iter(range(len(items)))
    fatal: list[BaseException] = []
    finished = threading.Semaphore(0)

    def drain():
        try:
            for index in indices:
                if fatal:
                    return
                results[index] = guarded(items[index])
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
    pricing: PricingTable,
    include_estimation_tokens: bool,
) -> SampleRecord:
    def expense_of(usage: TokenUsage) -> float:
        return compute_expense(usage, pricing.for_model(backend.model_id))

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
            expense=expense_of(total),
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
        expense=expense_of(outcome.usage),
        budget_used=method.budget,
    )


def run_method(
    backend: CompletionBackend,
    dataset: Dataset,
    method: MethodSpec,
    pricing: PricingTable,
    concurrency: int = 4,
    include_estimation_tokens: bool = False,
) -> MethodRun:
    """Execute one method over the cohort with bounded parallelism.

    A provider error that _pool_map returns in a question's place becomes a
    failed record, excluded from the aggregate; any other error is fatal.
    Records come back in dataset order regardless of completion order, so
    outputs stay byte-stable.
    """
    if not dataset.questions:
        raise ValueError("cannot run a method over an empty cohort")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")

    results = _pool_map(
        lambda question: _run_sample(backend, question, method, pricing, include_estimation_tokens),
        dataset.questions,
        concurrency,
    )
    records = [
        SampleRecord(question_id=question.id, method=method.label, failed=True, error=str(result))
        if isinstance(result, Exception) else result
        for question, result in zip(dataset.questions, results)
    ]
    return MethodRun(
        method=method,
        dataset_name=dataset.name,
        model_id=backend.model_id,
        records=records,
        report=aggregate_records(records),
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
    if vanilla_tokens <= 0:
        raise ValueError("vanilla token mean must be positive")
    return (1.0 - method_tokens / vanilla_tokens) * 100.0


def _report_rows(runs: list[MethodRun]) -> list[dict]:
    vanilla_tokens: dict[str, float] = {}
    for run in runs:
        if run.method.kind == "vanilla":
            vanilla_tokens[run.dataset_name] = run.report.mean_output_tokens
    rows = []
    for run in runs:
        report = run.report
        reduction = None
        base = vanilla_tokens.get(run.dataset_name)
        if base and run.method.kind != "vanilla":
            reduction = token_reduction(base, report.mean_output_tokens)
        rows.append(
            {
                "dataset": run.dataset_name,
                "method": run.method.label,
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
    runs: list[MethodRun],
    fmt: str = TABLE_TEXT,
    config_hash: str = "",
) -> str:
    """One row per (dataset, method): accuracy, output tokens, expense.

    CSV and JSON renderings are bit-stable for identical inputs.
    """
    if not runs:
        raise ValueError("render_report needs at least one run")
    rows = _report_rows(runs)
    if fmt == JSON_FORMAT:
        document = {
            "rows": rows,
            "model_id": runs[0].model_id,
            "config_hash": config_hash,
        }
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    if fmt == CSV_FORMAT:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in REPORT_COLUMNS])
        return buffer.getvalue()
    if fmt == TABLE_TEXT:
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
        if config_hash:
            lines.append(f"config_hash: {config_hash}  model: {runs[0].model_id}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
