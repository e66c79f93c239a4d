"""Command-line entry point wiring config, backends, and pipelines.

Verbs: eval | search | elasticity | ptdata | audit. Each verb opens one
VerbContext (config and seed; for the cohort verbs also the dataset, backend
and pool size) with no side effect, and the out-dir appears at the first
write; so a bad flag, config, dataset, credential, pricing or input file exits
1 before any output or request. Per-question tasks fan out through the only
scheduler, evaluate._pool_map, which also holds the one failure policy: a
provider error that outlasted the retries becomes its question's failure
record (exit 2), any other error is fatal (exit 1). Re-running with an
intact cache issues no upstream calls and reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import urllib.parse
from dataclasses import dataclass, fields

from .backend import (
    LiveBackend,
    ResponseCache,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    ScriptedScenario,
    backend_tag,
    parse_scripted_file,
)
from .core import PricingTable, _typed
from .errors import ConfigError, DatasetError, EncodingError, HarnessError
from .evaluate import (
    JSON_FORMAT,
    TABLE_TEXT,
    CSV_FORMAT,
    SCRIPTED_JSON,
    SampleRecord,
    _pool_map,
    atomic_open,
    encode_record,
    load_dataset,
    parse_method,
    read_jsonl,
    render_report,
    run_method,
    sample_dataset,
    write_json,
)
from .jsonstream import not_utf8
from .prompting import PromptTemplates
from .ptdata import (
    DPO_FORMAT,
    SFT_FORMAT,
    Skip,
    build_preference_pair,
    export_corpus,
    generate_target,
    stale_targets,
)
from .search import (
    SearchRecord,
    estimator_quality,
    ideal_budget_range,
    monotonicity_audit,
    monotonic_fraction,
    search_optimal_budget,
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
    pricing: PricingTable
    sampling: SamplingParams
    templates: PromptTemplates
    retry: RetryPolicy
    concurrency: int
    cache_path: str | None
    seed: int
    config_hash: str


def load_config(path: str) -> HarnessConfig:
    """Check one config file: an unknown key is a ConfigError, a key left out takes its default."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config: {not_utf8(path, exc)}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc

    try:
        top = _typed(raw, "", backend=dict, pricing=list, sampling=dict, templates=dict,
                     retry=dict, concurrency=int, cache_path=str, seed=int)
        backend = _typed(top.get("backend", {}), "backend", kind=str, model_id=str,
                         endpoint=str, credential_env=str)
        sampling = SamplingParams(**_typed(
            top.get("sampling", {}), "sampling", temperature=float, seed=int, max_candidates=int
        ))
        retry = RetryPolicy(**_typed(
            top.get("retry", {}), "retry",
            max_attempts=int, initial_backoff=float, multiplier=float, jitter=float,
        ))
        templates = PromptTemplates(**_typed(
            top.get("templates", {}), "templates",
            **{template.name: str for template in fields(PromptTemplates)},
        ))
        pricing = PricingTable.from_config(top.get("pricing", []))
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    concurrency = top.get("concurrency", 4)
    if concurrency < 1:
        raise ConfigError(f"{path}: concurrency must be >= 1, got {concurrency}")
    kind = backend.get("kind")
    if kind not in ("live", "scripted"):
        raise ConfigError(f"{path}: backend.kind must be 'live' or 'scripted', got {kind!r}")
    if kind == "live":
        for key in ("endpoint", "credential_env", "model_id"):
            if not backend.get(key):
                raise ConfigError(f"{path}: live backend requires backend.{key}")
        try:
            url = urllib.parse.urlsplit(backend["endpoint"])
            if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
                raise ValueError("not an http or https URL with a host")
        except ValueError as exc:
            raise ConfigError(f"{path}: backend.endpoint {backend['endpoint']!r}: {exc}") from exc

    canonical = json.dumps(raw, sort_keys=True, ensure_ascii=True)
    return HarnessConfig(
        backend_kind=kind,
        model_id=backend.get("model_id", "scripted-v1"),
        endpoint=backend.get("endpoint"),
        credential_env=backend.get("credential_env"),
        pricing=pricing,
        sampling=sampling,
        templates=templates,
        retry=retry,
        concurrency=concurrency,
        cache_path=top.get("cache_path"),
        seed=top.get("seed", 1024),
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16],
    )


def build_backend(config: HarnessConfig, out_dir: str, dataset_path: str,
                  scenario: ScriptedScenario | None = None):
    """The configured backend; the scripted mock plays ``scenario``, or else the
    fixture at ``dataset_path``, parsed here."""
    cache_path = config.cache_path or os.path.join(out_dir, "cache.jsonl")
    live = config.backend_kind == "live"
    tag = backend_tag(config.backend_kind, config.model_id, config.endpoint if live else None)
    settings = dict(model_id=config.model_id, cache=ResponseCache(cache_path, tag),
                    params=config.sampling, templates=config.templates)
    if not live:
        return ScriptedBackend(scenario or parse_scripted_file(dataset_path), **settings)
    api_key = os.environ.get(config.credential_env)
    if not api_key:
        raise ConfigError(f"backend.credential_env: {config.credential_env!r} is not set")
    return LiveBackend(endpoint=config.endpoint, api_key=api_key, retry=config.retry, **settings)


class VerbContext:
    """One verb's set-up, per-question fan-out, manifest and exit code.

    Reads the config and seed, and for a cohort verb the dataset, its seeded
    subsample, the backend and the pool size. Every dataset format loads
    through load_dataset, once: the mock plays the whole ScriptedScenario it
    returns, and the verb runs the subsample. None of it has a side effect:
    the cache only reads, a live backend connects at its first request, and
    the out-dir is made by the first output `path`. So a refusal before a
    verb's first request leaves nothing behind.
    """

    def __init__(self, args, verb: str, cohort: bool = True):
        self.args, self.verb = args, verb
        self.config = load_config(args.config)
        self.seed = args.seed if args.seed is not None else self.config.seed
        self.failed = False
        self.dataset = None
        if not cohort:
            return
        if not args.dataset:
            raise ConfigError("this command requires --dataset")
        if args.concurrency is not None and args.concurrency < 1:
            raise ConfigError(f"--concurrency must be >= 1, got {args.concurrency}")
        try:
            self.dataset = load_dataset(args.dataset, args.dataset_format)
        except (OSError, EncodingError) as exc:
            raise DatasetError(f"--dataset: {exc}") from exc
        scenario = self.dataset if isinstance(self.dataset, ScriptedScenario) else None
        if scenario is None and self.config.backend_kind == "scripted":
            raise ConfigError(f"--dataset-format {args.dataset_format}: the scripted "
                              f"backend needs a {SCRIPTED_JSON} fixture")
        size = len(self.dataset)
        if size == 0:
            raise DatasetError(f"{args.dataset}: the dataset holds no questions")
        if args.sample_n is not None:
            if not 1 <= args.sample_n <= size:
                raise ConfigError(f"--sample-n must be from 1 to {size}, got {args.sample_n}")
            self.dataset = sample_dataset(self.dataset, args.sample_n, self.seed)
        self.backend = build_backend(self.config, args.out_dir, args.dataset, scenario)
        self.concurrency = args.concurrency or self.config.concurrency

    def path(self, name: str) -> str:
        """Where output ``name`` goes; the out-dir is made here, at the first output."""
        os.makedirs(self.args.out_dir, exist_ok=True)
        return os.path.join(self.args.out_dir, name)

    def map(self, worker, items, failed) -> list:
        """Worker results in input order; a provider error puts ``failed(item,
        error)`` in its item's place and marks the run failed (exit 2)."""
        def failure(item, error):
            self.failed = True
            return failed(item, error)
        return _pool_map(worker, items, self.concurrency, failure)

    def finish(self, **details) -> int:
        # Deliberately no wall-clock timestamp: reruns must be byte-identical.
        manifest = {
            "verb": self.verb,
            "config_hash": self.config.config_hash,
            "model_id": self.config.model_id,
            "backend_kind": self.config.backend_kind,
            "seed": self.seed,
        }
        if self.dataset is not None:
            manifest.update(
                dataset=self.dataset.name,
                dataset_path=self.args.dataset,
                sample_n=self.args.sample_n,
            )
        manifest.update(details)
        write_json(self.path("run_manifest.json"), manifest)
        return EXIT_PARTIAL if self.failed else EXIT_OK


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _read_input(flag: str, path: str, record_type) -> list:
    try:
        return read_jsonl(path, record_type)
    except (OSError, DatasetError) as exc:
        raise DatasetError(f"{flag}: {exc}") from exc


def _positive_finite(flag: str, value: float) -> float:
    if not 0 < value < math.inf:
        raise ConfigError(f"{flag} must be finite and > 0, got {value!r}")
    return value


def cmd_eval(args) -> int:
    alpha = _positive_finite("--alpha", args.alpha)
    try:
        methods = [parse_method(token, alpha=alpha) for token in args.methods.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--methods: {exc}") from exc
    if repeated := [m.label for index, m in enumerate(methods) if m in methods[:index]]:
        raise ConfigError(f"--methods: {repeated[0]!r} is named twice")
    ctx = VerbContext(args, "eval")
    config = ctx.config
    pricing = config.pricing.for_model(config.model_id)

    runs = [(method, run_method(ctx.backend, ctx.dataset, method, pricing,
                                concurrency=ctx.concurrency,
                                include_estimation_tokens=args.include_estimation_tokens))
            for method in methods]
    # Written only once every method has run, so a fatal error in a later
    # method leaves the out-dir as it was.
    for method, records in runs:
        with atomic_open(ctx.path(f"records_{method.slug}.jsonl")) as sink:
            for record in records:
                sink.write(encode_record(vars(record)) + "\n")
        ctx.failed = ctx.failed or any(record.failed for record in records)

    def report(fmt: str) -> str:
        return render_report(runs, ctx.dataset.name, config.model_id, fmt, config.config_hash)

    print(report(TABLE_TEXT), end="")
    extension = {TABLE_TEXT: "txt", CSV_FORMAT: "csv", JSON_FORMAT: "json"}[args.format]
    report_name = f"report.{extension}"
    with atomic_open(ctx.path(report_name)) as handle:
        handle.write(report(args.format))

    return ctx.finish(methods=[m.label for m in methods], alpha=args.alpha, report=report_name)


def cmd_search(args) -> int:
    ctx = VerbContext(args, "search")
    records = ctx.map(
        lambda question: search_optimal_budget(ctx.backend, question, baseline=args.baseline),
        ctx.dataset.questions,
        lambda question, error: SearchRecord(question.id, "error",
                                             error=str(error) or type(error).__name__),
    )

    with atomic_open(ctx.path("search_results.jsonl")) as handle, \
            atomic_open(ctx.path("elasticity.csv")) as csv_handle:
        writer = csv.writer(csv_handle, lineterminator="\n")
        writer.writerow(["question_id", "iteration", "budget", "output_tokens", "correct"])
        for record in records:
            handle.write(record.line() + "\n")
            writer.writerows(record.elasticity_rows())

    return ctx.finish(baseline=args.baseline, results="search_results.jsonl")


def cmd_elasticity(args) -> int:
    k = args.k
    if k != "auto":
        if not k.isdecimal() or int(k) < 1:
            raise ConfigError(f"--k must be 'auto' or an integer >= 1, got {k!r}")
        k = int(k)
    ctx = VerbContext(args, "elasticity", cohort=False)

    ranges = {}
    skipped = []
    for record in _read_input("--search-output", args.search_output, SearchRecord):
        if record.status != "found":
            skipped.append({"question_id": record.question_id, "reason": record.status})
            continue
        try:
            window = ideal_budget_range(record.trace, k)
        except ValueError as exc:
            skipped.append({"question_id": record.question_id, "reason": str(exc)})
            continue
        ranges[record.question_id] = window

    quality_block = None
    if args.estimates:
        estimates = {
            record.question_id: record.estimated_budget
            for record in _read_input("--estimates", args.estimates, SampleRecord.read)
            if record.estimated_budget is not None
        }
        paired = [
            (estimates[qid], window) for qid, window in ranges.items() if qid in estimates
        ]
        if paired:
            quality = estimator_quality(paired)
            quality_block = dict(
                vars(quality),
                in_range_accuracy_pct=round(quality.in_range_accuracy * 100.0, 2),
            )

    document = {
        "k": args.k,
        "ranges": [
            {
                "question_id": question_id,
                "k": window.window_size,
                "window_budgets": list(window.budgets),
                "low": window.low,
                "high": window.high,
                "total_cost": window.total_cost,
            }
            for question_id, window in ranges.items()
        ],
        "skipped": skipped,
        "estimator_quality": quality_block,
        "live_reference": ESTIMATOR_LIVE_REFERENCE,
    }
    write_json(ctx.path("elasticity_report.json"), document)

    print(f"ideal budget ranges: {len(ranges)} (skipped {len(skipped)})")
    if quality_block:
        distance = quality_block["out_of_range_distance"]
        distance_text = f"{distance:.2f}" if distance is not None else "n/a"
        print(
            f"estimator quality: in-range {quality_block['in_range_accuracy_pct']:.2f}%, "
            f"out-of-range distance {distance_text}"
        )
    return ctx.finish(search_output=args.search_output, k=args.k, estimates=args.estimates)


def cmd_ptdata(args) -> int:
    ctx = VerbContext(args, "ptdata")
    config, dataset = ctx.config, ctx.dataset
    results = os.path.join(args.out_dir, "search_results.jsonl")
    records = {r.question_id: r for r in _read_input("--out-dir", results, SearchRecord)}
    if missing := [q.id for q in dataset.questions if q.id not in records]:
        raise DatasetError(f"--out-dir: {results}: no search record for {missing[0]!r}")
    if stale := stale_targets(records, dataset.questions):
        raise DatasetError(f"--out-dir: {results}: the target of {stale[0]!r} "
                           "no longer grades correct")
    builder = generate_target if args.format == SFT_FORMAT else build_preference_pair
    outcomes = ctx.map(lambda q: builder(ctx.backend, q, records[q.id], args.pt_input),
                       dataset.questions, lambda q, error: Skip(q.id, f"backend_error: {error}"))
    ctx.failed = ctx.failed or any(records[q.id].status == "error" for q in dataset.questions)

    corpus_path = ctx.path(f"corpus_{args.format}.jsonl")
    manifest = export_corpus(
        outcomes,
        args.format,
        corpus_path,
        dataset_name=dataset.name,
        model_id=config.model_id,
        config_hash=config.config_hash,
    )
    counts = manifest["counts"]
    print(f"{args.format} corpus: {counts['succeeded']}/{counts['attempted']} records "
          f"-> {corpus_path}")
    return ctx.finish(format=args.format, pt_input=args.pt_input,
                      corpus=os.path.basename(corpus_path))


def cmd_audit(args) -> int:
    try:
        multipliers = [float(token) for token in args.multipliers.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--multipliers: {exc}") from exc
    for multiplier in multipliers:
        _positive_finite("--multipliers", multiplier)
    ctx = VerbContext(args, "audit")

    questions = {q.id: q for q in ctx.dataset.questions}
    skipped = []
    auditable = []
    for record in _read_input("--search-output", args.search_output, SearchRecord):
        question = questions.get(record.question_id)
        reason = record.status
        if reason == "found" and question is None:
            reason = "not_in_cohort"
        if reason != "found":
            skipped.append({"question_id": record.question_id, "reason": reason})
            continue
        auditable.append((question, record.optimal_budget))

    outcomes = ctx.map(
        lambda item: monotonicity_audit(ctx.backend, *item, multipliers=multipliers),
        auditable,
        lambda item, error: {"question_id": item[0].id, "reason": f"backend_error: {error}"},
    )
    skipped += [outcome for outcome in outcomes if isinstance(outcome, dict)]
    audits = [outcome for outcome in outcomes if not isinstance(outcome, dict)]

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
            dict(vars(audit), checks=[vars(check) for check in audit.checks])
            for audit in audits
        ],
        "live_reference": AUDIT_LIVE_REFERENCE,
    }
    write_json(ctx.path("audit_report.json"), document)
    if fraction is not None:
        print(f"monotonic samples: {round(fraction * 100.0, 2):.2f}% of {len(audits)}")
    else:
        print("monotonic samples: none audited")
    return ctx.finish(search_output=args.search_output, multipliers=multipliers)


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
    p_search.add_argument("--format", choices=["jsonl"], default="jsonl",
                          help="output format (jsonl + csv)")
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
    p_elastic.add_argument("--format", choices=["json"], default="json", help="report format (json)")
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
    p_audit.add_argument("--format", choices=["json"], default="json", help="report format (json)")
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
