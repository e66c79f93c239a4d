"""Command-line entry point wiring config, backends, and pipelines.

Verbs: eval | search | elasticity | ptdata | audit. The cohort verbs fan
their per-question tasks out through the only scheduler, evaluate._pool_map
(a bounded worker pool, results in input order); everything under it runs
sequentially per question. All outputs land under --out-dir next to a run
manifest, and re-running with an intact cache issues no upstream calls and
reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from .backend import (
    CompletionBackend,
    LiveBackend,
    ResponseCache,
    RetryPolicy,
    SamplingParams,
    TokenBucket,
    parse_scripted_file,
)
from .core import PricingTable, Question
from .errors import ConfigError, HarnessError
from .evaluate import (
    Dataset,
    JSON_FORMAT,
    TABLE_TEXT,
    CSV_FORMAT,
    _pool_map,
    load_dataset,
    parse_method,
    render_report,
    run_method,
    sample_dataset,
)
from .prompting import PromptTemplates
from .ptdata import (
    DPO_FORMAT,
    SFT_FORMAT,
    Skip,
    build_preference_pair,
    export_corpus,
    generate_target,
)
from .search import (
    elasticity_rows,
    estimator_quality,
    ideal_budget_range,
    monotonicity_audit,
    monotonic_fraction,
    search_optimal_budget,
    search_record,
    trace_from_record,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

# Reference numbers observed on live GPT-4o-mini runs; annotation only,
# desk-scale scripted runs are not expected to reproduce them.
ESTIMATOR_LIVE_REFERENCE = {
    "in_range_accuracy_pct": 60.61,
    "out_of_range_distance_tokens": 109.64,
    "note": "live GPT-4o-mini reference; annotation, not a target",
}
AUDIT_LIVE_REFERENCE = {
    "multipliers_of_upper_bound": [0.03125, 0.0625, 0.25, 1.0],
    "accuracy_pct": [69.23, 75.82, 75.82, 76.92],
    "note": "live-API reference at fractions of the vanilla cost; annotation, not a target",
}


@dataclass
class HarnessConfig:
    """Validated harness configuration loaded from one JSON file."""

    backend_kind: str
    model_id: str
    endpoint: str | None
    credential_env: str | None
    script_path: str | None
    pricing: PricingTable
    sampling: SamplingParams
    templates: PromptTemplates
    retry: RetryPolicy
    rate_limit: dict | None
    concurrency: int
    cache_path: str | None
    out_dir: str
    seed: int
    config_hash: str
    raw: dict = field(repr=False, default_factory=dict)


def load_config(path: str) -> HarnessConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc

    backend = raw.get("backend")
    if not isinstance(backend, dict) or "kind" not in backend:
        raise ConfigError(f"{path}: config needs a backend section with a kind")
    kind = backend["kind"]
    if kind not in ("live", "scripted"):
        raise ConfigError(f"{path}: backend kind must be 'live' or 'scripted', got {kind!r}")
    if kind == "live":
        for key in ("endpoint", "credential_env", "model_id"):
            if not backend.get(key):
                raise ConfigError(f"{path}: live backend requires backend.{key}")

    concurrency = int(raw.get("concurrency", 4))
    if concurrency < 1:
        raise ConfigError(f"{path}: concurrency must be >= 1")

    sampling_cfg = raw.get("sampling", {})
    try:
        sampling = SamplingParams(
            temperature=float(sampling_cfg.get("temperature", 0.1)),
            seed=int(sampling_cfg.get("seed", 1024)),
            max_candidates=int(sampling_cfg.get("max_candidates", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: sampling: {exc}") from exc
    retry_cfg = raw.get("retry", {})
    retry = RetryPolicy(
        max_attempts=int(retry_cfg.get("max_attempts", 5)),
        initial_backoff=float(retry_cfg.get("initial_backoff", 1.0)),
        multiplier=float(retry_cfg.get("multiplier", 2.0)),
        jitter=float(retry_cfg.get("jitter", 0.1)),
    )
    try:
        templates = PromptTemplates.from_config(raw.get("templates"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    canonical = json.dumps(raw, sort_keys=True, ensure_ascii=True)
    return HarnessConfig(
        backend_kind=kind,
        model_id=backend.get("model_id", "scripted-v1"),
        endpoint=backend.get("endpoint"),
        credential_env=backend.get("credential_env"),
        script_path=backend.get("script_path"),
        pricing=PricingTable.from_config(raw.get("pricing", [])),
        sampling=sampling,
        templates=templates,
        retry=retry,
        rate_limit=raw.get("rate_limit"),
        concurrency=concurrency,
        cache_path=raw.get("cache_path"),
        out_dir=raw.get("out_dir", "runs"),
        seed=int(raw.get("seed", 1024)),
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16],
        raw=raw,
    )


def build_backend(config: HarnessConfig, out_dir: str, dataset_path: str | None = None):
    cache_path = config.cache_path or os.path.join(out_dir, "cache.jsonl")
    cache = ResponseCache(cache_path)
    if config.backend_kind == "scripted":
        script_path = config.script_path or dataset_path
        if not script_path:
            raise ConfigError("scripted backend needs backend.script_path or --dataset")
        scenario = parse_scripted_file(script_path)
        return scenario.build_backend(
            model_id=config.model_id,
            cache=cache,
            templates=config.templates,
        )
    api_key = os.environ.get(config.credential_env)
    if not api_key:
        raise ConfigError(
            f"credential environment variable {config.credential_env!r} is not set"
        )
    limiter = None
    if config.rate_limit:
        limiter = TokenBucket(
            rate=float(config.rate_limit.get("rate", 8.0)),
            burst=int(config.rate_limit.get("burst", 8)),
        )
    return LiveBackend(
        endpoint=config.endpoint,
        model_id=config.model_id,
        api_key=api_key,
        retry=config.retry,
        limiter=limiter,
        cache=cache,
    )


def _resolve_seed(args, config: HarnessConfig) -> int:
    return args.seed if args.seed is not None else config.seed


def _open_verb(args) -> tuple[HarnessConfig, Dataset, CompletionBackend, int]:
    """Shared preamble of the cohort verbs: config, cohort, out-dir, backend, concurrency."""
    config = load_config(args.config)
    if not args.dataset:
        raise ConfigError("this command requires --dataset")
    dataset = load_dataset(args.dataset, args.dataset_format)
    if args.sample_n is not None:
        dataset = sample_dataset(dataset, args.sample_n, _resolve_seed(args, config))
    os.makedirs(args.out_dir, exist_ok=True)
    backend = build_backend(config, args.out_dir, args.dataset)
    concurrency = args.concurrency if args.concurrency is not None else config.concurrency
    if concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    return config, dataset, backend, concurrency


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_manifest(out_dir: str, verb: str, config: HarnessConfig, details: dict) -> None:
    # Deliberately no wall-clock timestamp: reruns must be byte-identical.
    manifest = {
        "verb": verb,
        "config_hash": config.config_hash,
        "model_id": config.model_id,
        "backend_kind": config.backend_kind,
        "seed": details.get("seed", config.seed),
    }
    manifest.update(details)
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    config, dataset, backend, concurrency = _open_verb(args)
    out_dir = args.out_dir

    methods = [parse_method(token, alpha=args.alpha) for token in args.methods.split(",")]
    runs = []
    for method in methods:
        run = run_method(
            backend,
            dataset,
            method,
            config.pricing,
            params=config.sampling,
            templates=config.templates,
            concurrency=concurrency,
            include_estimation_tokens=args.include_estimation_tokens,
        )
        records_path = os.path.join(out_dir, f"records_{method.slug}.jsonl")
        with open(records_path, "w", encoding="utf-8") as sink:
            for record in run.records:
                sink.write(json.dumps(vars(record), sort_keys=True) + "\n")
        runs.append(run)
    any_failed = any(run.report.failed_count > 0 for run in runs)

    report_text = render_report(runs, TABLE_TEXT, config_hash=config.config_hash)
    print(report_text, end="")
    extension = {TABLE_TEXT: "txt", CSV_FORMAT: "csv", JSON_FORMAT: "json"}[args.format]
    report_path = os.path.join(out_dir, f"report.{extension}")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(render_report(runs, args.format, config_hash=config.config_hash))

    _write_manifest(
        out_dir,
        "eval",
        config,
        {
            "dataset": dataset.name,
            "dataset_path": args.dataset,
            "methods": [m.label for m in methods],
            "alpha": args.alpha,
            "sample_n": args.sample_n,
            "seed": _resolve_seed(args, config),
            "report": os.path.basename(report_path),
        },
    )
    return EXIT_PARTIAL if any_failed else EXIT_OK


def cmd_search(args) -> int:
    config, dataset, backend, concurrency = _open_verb(args)
    out_dir = args.out_dir

    def worker(question: Question):
        try:
            return search_optimal_budget(
                backend,
                question,
                params=config.sampling,
                baseline=args.baseline,
                templates=config.templates,
            )
        except HarnessError as exc:
            return exc

    results = _pool_map(worker, dataset.questions, concurrency)

    any_failed = False
    results_path = os.path.join(out_dir, "search_results.jsonl")
    csv_path = os.path.join(out_dir, "elasticity.csv")
    with open(results_path, "w", encoding="utf-8") as handle, \
            open(csv_path, "w", encoding="utf-8", newline="") as csv_handle:
        writer = csv.writer(csv_handle, lineterminator="\n")
        writer.writerow(["question_id", "iteration", "budget", "output_tokens", "correct"])
        for question, result in zip(dataset.questions, results):
            if isinstance(result, HarnessError):
                any_failed = True
                handle.write(
                    json.dumps(
                        {"question_id": question.id, "status": "error", "error": str(result)},
                        sort_keys=True,
                    )
                    + "\n"
                )
                continue
            handle.write(json.dumps(search_record(question, result), sort_keys=True) + "\n")
            for row in elasticity_rows(question.id, result):
                writer.writerow(row)

    _write_manifest(
        out_dir,
        "search",
        config,
        {
            "dataset": dataset.name,
            "dataset_path": args.dataset,
            "baseline": args.baseline,
            "sample_n": args.sample_n,
            "seed": _resolve_seed(args, config),
            "results": os.path.basename(results_path),
        },
    )
    return EXIT_PARTIAL if any_failed else EXIT_OK


def _load_search_records(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _load_estimates(path: str) -> dict[str, int]:
    estimates: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            value = record.get("estimated_budget")
            if value is not None:
                estimates[record["question_id"]] = int(value)
    return estimates


def cmd_elasticity(args) -> int:
    config = load_config(args.config)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    records = _load_search_records(args.search_output)

    k = args.k if args.k == "auto" else int(args.k)
    ranges = {}
    range_rows = []
    skipped = []
    for record in records:
        question_id = record["question_id"]
        if record.get("status") != "found":
            skipped.append({"question_id": question_id, "reason": record.get("status", "error")})
            continue
        trace = trace_from_record(record)
        try:
            window = ideal_budget_range(trace, k)
        except ValueError as exc:
            skipped.append({"question_id": question_id, "reason": str(exc)})
            continue
        ranges[question_id] = window
        range_rows.append(
            {
                "question_id": question_id,
                "k": window.window_size,
                "window_budgets": list(window.budgets),
                "low": window.low,
                "high": window.high,
                "total_cost": window.total_cost,
            }
        )

    quality_block = None
    if args.estimates:
        estimates = _load_estimates(args.estimates)
        paired = [
            (estimates[qid], window) for qid, window in ranges.items() if qid in estimates
        ]
        if paired:
            quality = estimator_quality(paired)
            quality_block = {
                "in_range_accuracy": quality.in_range_accuracy,
                "in_range_accuracy_pct": round(quality.in_range_accuracy * 100.0, 2),
                "out_of_range_distance": quality.out_of_range_distance,
                "sample_count": quality.sample_count,
                "out_of_range_count": quality.out_of_range_count,
            }

    document = {
        "k": args.k,
        "ranges": range_rows,
        "skipped": skipped,
        "estimator_quality": quality_block,
        "live_reference": ESTIMATOR_LIVE_REFERENCE,
    }
    report_path = os.path.join(out_dir, "elasticity_report.json")
    _write_json(report_path, document)

    print(f"ideal budget ranges: {len(range_rows)} (skipped {len(skipped)})")
    if quality_block:
        distance = quality_block["out_of_range_distance"]
        distance_text = f"{distance:.2f}" if distance is not None else "n/a"
        print(
            f"estimator quality: in-range {quality_block['in_range_accuracy_pct']:.2f}%, "
            f"out-of-range distance {distance_text}"
        )
    _write_manifest(
        out_dir,
        "elasticity",
        config,
        {"search_output": args.search_output, "k": args.k, "estimates": args.estimates},
    )
    return EXIT_OK


def cmd_ptdata(args) -> int:
    config, dataset, backend, concurrency = _open_verb(args)
    out_dir = args.out_dir

    def worker(question: Question):
        builder = generate_target if args.format == SFT_FORMAT else build_preference_pair
        try:
            return builder(
                backend,
                question,
                params=config.sampling,
                baseline=args.baseline,
                input_style=args.pt_input,
                templates=config.templates,
            )
        except HarnessError as exc:
            return Skip(question_id=question.id, reason=f"backend_error: {exc}")

    outcomes = _pool_map(worker, dataset.questions, concurrency)
    any_failed = any(
        isinstance(o, Skip) and o.reason.startswith("backend_error") for o in outcomes
    )

    corpus_path = os.path.join(out_dir, f"corpus_{args.format}.jsonl")
    manifest = export_corpus(
        outcomes,
        args.format,
        corpus_path,
        dataset_name=dataset.name,
        model_id=config.model_id,
        config_hash=config.config_hash,
        questions=dataset.questions,
    )
    print(
        f"{args.format} corpus: {manifest.succeeded}/{manifest.attempted} records "
        f"-> {corpus_path}"
    )
    _write_manifest(
        out_dir,
        "ptdata",
        config,
        {
            "dataset": dataset.name,
            "dataset_path": args.dataset,
            "format": args.format,
            "baseline": args.baseline,
            "pt_input": args.pt_input,
            "sample_n": args.sample_n,
            "seed": _resolve_seed(args, config),
            "corpus": os.path.basename(corpus_path),
        },
    )
    return EXIT_PARTIAL if any_failed else EXIT_OK


def cmd_audit(args) -> int:
    config, dataset, backend, concurrency = _open_verb(args)
    out_dir = args.out_dir
    multipliers = [float(token) for token in args.multipliers.split(",")]

    questions = {q.id: q for q in dataset.questions}
    records = _load_search_records(args.search_output)

    skipped = []
    auditable = []
    for record in records:
        question = questions.get(record["question_id"])
        if record.get("status") != "found" or question is None:
            skipped.append(
                {"question_id": record["question_id"], "reason": record.get("status", "unknown")}
            )
            continue
        auditable.append((question, record["optimal_budget"]))

    def worker(item):
        question, optimal = item
        try:
            return monotonicity_audit(
                backend,
                question,
                optimal,
                multipliers=multipliers,
                params=config.sampling,
                templates=config.templates,
            )
        except HarnessError as exc:
            return Skip(question_id=question.id, reason=f"backend_error: {exc}")

    outcomes = _pool_map(worker, auditable, concurrency)
    audits = []
    for outcome in outcomes:
        if isinstance(outcome, Skip):
            skipped.append({"question_id": outcome.question_id, "reason": outcome.reason})
        else:
            audits.append(outcome)

    per_multiplier = []
    for index, multiplier in enumerate(multipliers):
        checks = [audit.checks[index] for audit in audits]
        if checks:
            per_multiplier.append(
                {
                    "multiplier": multiplier,
                    "accuracy_pct": round(
                        100.0 * sum(1 for c in checks if c.correct) / len(checks), 2
                    ),
                    "mean_output_tokens": round(
                        sum(c.output_tokens for c in checks) / len(checks), 2
                    ),
                }
            )

    fraction = monotonic_fraction(audits) if audits else None
    document = {
        "multipliers": multipliers,
        "audited": len(audits),
        "skipped": skipped,
        "monotonic_fraction_pct": round(fraction * 100.0, 2) if fraction is not None else None,
        "per_multiplier": per_multiplier,
        "per_question": [
            {
                "question_id": audit.question_id,
                "optimal_budget": audit.optimal_budget,
                "is_monotonic": audit.is_monotonic,
                "checks": [vars(check) for check in audit.checks],
            }
            for audit in audits
        ],
        "live_reference": AUDIT_LIVE_REFERENCE,
    }
    report_path = os.path.join(out_dir, "audit_report.json")
    _write_json(report_path, document)
    if fraction is not None:
        print(f"monotonic samples: {round(fraction * 100.0, 2):.2f}% of {len(audits)}")
    else:
        print("monotonic samples: none audited")
    _write_manifest(
        out_dir,
        "audit",
        config,
        {
            "dataset": dataset.name,
            "search_output": args.search_output,
            "multipliers": multipliers,
            "seed": _resolve_seed(args, config),
        },
    )
    return EXIT_PARTIAL if any(s["reason"].startswith("backend_error") for s in skipped) else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="harness config JSON file")
    shared.add_argument("--dataset", help="dataset file path")
    shared.add_argument(
        "--dataset-format",
        choices=["gsm8k_jsonl", "mathbench_json", "scripted_json"],
        default="scripted_json",
        help="dataset file format (default: scripted_json)",
    )
    shared.add_argument("--out-dir", default="runs", help="output directory (default: runs)")
    shared.add_argument("--seed", type=int, default=None, help="RNG seed (default from config, 1024)")
    shared.add_argument("--sample-n", type=int, default=None, help="seeded subsample size")
    shared.add_argument("--concurrency", type=int, default=None, help="worker pool size (default 4)")
    shared.add_argument(
        "--baseline",
        choices=["probe", "vanilla"],
        default="probe",
        help="first-iteration cost baseline for the budget search (default: probe)",
    )
    shared.add_argument("--alpha", type=float, default=1.0, help="budget scale factor for ep (default 1)")
    shared.add_argument("--k", default="auto", help="ideal-range window size or 'auto' (N//3)")
    shared.add_argument(
        "--multipliers",
        default="0.25,0.5,1,2,4",
        help="comma-separated budget multipliers for the audit (default: 0.25,0.5,1,2,4)",
    )

    parser = argparse.ArgumentParser(
        prog="tokenbudget",
        description="Token-budget-aware reasoning harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="run comparison methods over a dataset")
    p_eval.add_argument(
        "--methods",
        default="direct,vanilla,ep",
        help="comma-separated methods: direct|vanilla|ep|fixed:N (default: direct,vanilla,ep)",
    )
    p_eval.add_argument(
        "--format",
        choices=[TABLE_TEXT, CSV_FORMAT, JSON_FORMAT],
        default=TABLE_TEXT,
        help="report file format (default: table_text)",
    )
    p_eval.add_argument(
        "--include-estimation-tokens",
        action="store_true",
        help="count estimation-call output tokens in the ep output-token column",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_search = sub.add_parser("search", parents=[shared], help="optimal-budget search per question")
    p_search.add_argument("--format", default="jsonl", help="output format (jsonl + csv)")
    p_search.set_defaults(func=cmd_search)

    p_elastic = sub.add_parser(
        "elasticity", parents=[shared], help="ideal budget ranges and estimator quality"
    )
    p_elastic.add_argument("--search-output", required=True, help="search_results.jsonl path")
    p_elastic.add_argument(
        "--estimates",
        default=None,
        help="per-sample ep records JSONL supplying estimated budgets",
    )
    p_elastic.add_argument("--format", default="json", help="report format (json)")
    p_elastic.set_defaults(func=cmd_elasticity)

    p_ptdata = sub.add_parser(
        "ptdata", parents=[shared], help="export fine-tuning corpora from budget search"
    )
    p_ptdata.add_argument(
        "--format", choices=[SFT_FORMAT, DPO_FORMAT], default=SFT_FORMAT,
        help="corpus format (default: sft)",
    )
    p_ptdata.add_argument(
        "--pt-input",
        choices=["vanilla", "budgeted"],
        default="vanilla",
        help="training input style: budget-free vanilla instruction (default) or budgeted",
    )
    p_ptdata.set_defaults(func=cmd_ptdata)

    p_audit = sub.add_parser(
        "audit", parents=[shared], help="monotonicity audit around searched budgets"
    )
    p_audit.add_argument("--search-output", required=True, help="search_results.jsonl path")
    p_audit.add_argument("--format", default="json", help="report format (json)")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
