"""The repository benchmark: run one workload through the CLI verbs and report.

    python3 bench/run.py --workload scripted_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the harness from ``src/``.
It generates the workload's cohort from the seed, runs the verb sequence in
a fresh worker process (``worker.py``), checks every output against the
oracle in ``cohort.py``, prints a table of every metric and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced pass, plus the
tracing overhead. It exits 1 when a correctness gate fails and 2 when the
harness source is missing. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, "_work")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import cohort  # noqa: E402

CONCURRENCY = 2
SCRIPTED_VERBS = ["search", "eval", "ptdata", "audit", "elasticity"]
LIVE_LATENCY_S = 0.020
CREDENTIAL_ENV = "TOKENBUDGET_BENCH_KEY"

# Why each workload exists is in README.md.
WORKLOADS = {
    "scripted_cold": {"n": 2000, "live": False, "warm": False, "min_passes": 2,
                      "verbs": SCRIPTED_VERBS, "methods": "direct,vanilla,ep"},
    "scripted_warm": {"n": 2000, "live": False, "warm": True, "min_passes": 1,
                      "verbs": SCRIPTED_VERBS, "methods": "direct,vanilla,ep"},
    "live_http": {"n": 200, "live": True, "warm": False, "min_passes": 1,
                  "verbs": ["search", "eval"], "methods": "vanilla,ep"},
}

# Printed for every workload but not gated. The wall times move with the
# time the host takes from this VM (README.md, "Noise and bounds"); the
# others are 0 on some workload.
EXTRA_END_TO_END = (
    ("questions_per_s", "1/s"), ("search_s", "s"), ("eval_s", "s"),
    ("ptdata_s", "s"), ("audit_s", "s"),
    ("upstream_calls_per_question", "calls"), ("output_tokens_per_question", "tokens"),
    ("expense_per_question_1e5usd", "1e-5USD"), ("failed_share", "ratio"),
)


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    """(name, unit) of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {kind: [(m["name"], m["unit"]) for m in declared[kind]]
            for kind in ("end_to_end", "per_layer")}


def scripted_config(path: str) -> None:
    cohort.write_json(path, {
        "backend": {"kind": "scripted", "model_id": cohort.MODEL_ID},
        "pricing": [{"model_id": cohort.MODEL_ID, "input_price": cohort.INPUT_PRICE,
                     "output_price": cohort.OUTPUT_PRICE}],
        "sampling": {"temperature": 0.1, "seed": 1024, "max_candidates": 1},
        "concurrency": CONCURRENCY,
        "seed": 1024,
    })


def live_config(path: str, endpoint: str) -> None:
    cohort.write_json(path, {
        "backend": {"kind": "live", "endpoint": endpoint, "model_id": cohort.MODEL_ID,
                    "credential_env": CREDENTIAL_ENV},
        "pricing": [{"model_id": cohort.MODEL_ID, "input_price": cohort.INPUT_PRICE,
                     "output_price": cohort.OUTPUT_PRICE}],
        "sampling": {"temperature": 0.1, "seed": 1024, "max_candidates": 1},
        "retry": {"max_attempts": 3, "initial_backoff": 0.05, "multiplier": 2.0, "jitter": 0.1},
        "concurrency": CONCURRENCY,
        "seed": 1024,
    })


def run_worker(spec: dict, work: str, name: str) -> dict:
    spec_path = os.path.join(work, f"{name}.spec.json")
    result_path = os.path.join(work, f"{name}.result.json")
    cohort.write_json(spec_path, spec)
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path],
        cwd=ROOT, timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {completed.returncode}")
    return checks.read_json(result_path)


class FakeProcess:
    """The localhost upstream, in a child process for the lifetime of a run."""

    def __init__(self, cohort_path: str, seed: int):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "fake_upstream.py"),
             "--cohort", cohort_path, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self.process.stdout.readline().strip()
        if not port:
            self.close()
            raise RuntimeError("fake upstream did not start")
        self.base = f"http://127.0.0.1:{port}"

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def verify_pass(done: dict, oracle: cohort.Oracle, workload: dict,
                faulted: frozenset = frozenset()) -> list[str]:
    out_dir = done["out_dir"]
    methods = workload["methods"].split(",")
    problems = checks.check_search(out_dir, oracle, faulted)
    problems += checks.check_eval(out_dir, oracle, methods, faulted)
    if "ptdata" in workload["verbs"]:
        problems += checks.check_ptdata(out_dir, oracle)
    if "audit" in workload["verbs"]:
        problems += checks.check_audit(out_dir, oracle)
    if "elasticity" in workload["verbs"]:
        problems += checks.check_elasticity(out_dir, oracle)
    return problems


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(result: dict, n: int, outcomes: dict) -> dict:
    passes = result["passes"]
    spend = passes[0]["spend"]
    return {
        "setup_s": median(result["setup_s"]),
        "cpu_ms_per_question": median(1000.0 * p["cpu_s"] / n for p in passes),
        "search_cpu_s": median(p["verbs_cpu"]["search"] for p in passes),
        "eval_cpu_s": median(p["verbs_cpu"]["eval"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "questions_per_s": median(n / p["wall_s"] for p in passes),
        "search_s": median(p["verbs"]["search"] for p in passes),
        "eval_s": median(p["verbs"]["eval"] for p in passes),
        "ptdata_s": median(p["verbs"].get("ptdata", 0.0) for p in passes),
        "audit_s": median(p["verbs"].get("audit", 0.0) for p in passes),
        "upstream_calls_per_question": spend["calls"] / n,
        "output_tokens_per_question": spend["output_tokens"] / n,
        "expense_per_question_1e5usd": spend["expense"] / n,
        "failed_share": outcomes["failed"] / outcomes["attempted"],
    }


def per_layer(result: dict, n: int, e2e: dict) -> dict:
    spans = result["spans"]
    traced = result["traced"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    gets = span("backend.cache.get", "calls")
    requests = span("backend.scripted.request", "calls") + span("backend.live.request", "calls")
    fake = traced["fake"] or {}
    status = fake.get("status", {})
    live_requests = fake.get("requests", 0)
    overhead_ms = 0.0
    if live_requests:
        overhead_ms = 1000.0 * (span("backend.complete", "busy_s")
                                - live_requests * LIVE_LATENCY_S) / live_requests
    out_dir = traced["out_dir"]
    search = checks.read_jsonl(os.path.join(out_dir, "search_results.jsonl"))
    ep = checks.read_jsonl(os.path.join(out_dir, "records_ep.jsonl"))
    metrics = {
        "prompting.build_prompt.calls": span("prompting.build_prompt", "calls"),
        "prompting.build_prompt.busy_s": span("prompting.build_prompt", "busy_s"),
        "grading.grade.calls": span("grading.grade", "calls"),
        "grading.grade.busy_s": span("grading.grade", "busy_s"),
        "backend.fingerprint.calls": span("backend.fingerprint", "calls"),
        "backend.fingerprint.busy_s": span("backend.fingerprint", "busy_s"),
        "backend.cache.get.calls": gets,
        "backend.cache.hit_ratio": 1.0 - requests / gets if gets else 0.0,
        "backend.cache.load_s": span("backend.cache.load", "busy_s"),
        "backend.cache.entries_loaded": result["counts"].get("backend.cache.entries_loaded", 0),
        "backend.scripted.parse.calls": span("backend.scripted.parse", "calls"),
        "backend.scripted.parse.busy_s": span("backend.scripted.parse", "busy_s"),
        "backend.cache.put.calls": span("backend.cache.put", "calls"),
        "backend.cache.put.busy_s": span("backend.cache.put", "busy_s"),
        "backend.scripted.request.calls": span("backend.scripted.request", "calls"),
        "backend.scripted.request.self_s": span("backend.scripted.request", "self_s"),
        "backend.live.requests": live_requests,
        "backend.live.retries": fake.get("retries", 0),
        "backend.live.status_429": status.get("429", 0),
        "backend.live.status_5xx": sum(v for k, v in status.items() if k.startswith("5")),
        "backend.live.overhead_ms_per_call": overhead_ms,
        "backend.upstream_calls_per_question": e2e["upstream_calls_per_question"],
        "backend.output_tokens_per_question": e2e["output_tokens_per_question"],
        "backend.expense_per_question_1e5usd": e2e["expense_per_question_1e5usd"],
        "search.search_optimal_budget.self_s": span("search.search_optimal_budget", "self_s"),
        "search.probes_per_question": sum(len(r.get("trace", [])) for r in search) / n,
        "search.monotonicity_audit.self_s": span("search.monotonicity_audit", "self_s"),
        "search.ideal_budget_range.busy_s": span("search.ideal_budget_range", "busy_s"),
        "ep.run_ep.self_s": span("ep.run_ep", "self_s"),
        "ep.fallback_share": sum(1 for r in ep if r["used_fallback"]) / n,
        "ptdata.generate_target.calls": span("ptdata.generate_target", "calls"),
        "ptdata.export_corpus.busy_s": span("ptdata.export_corpus", "busy_s"),
        "evaluate.load_dataset.busy_s": span("evaluate.load_dataset", "busy_s"),
        "evaluate.run_method.self_s": span("evaluate.run_method", "self_s"),
        "evaluate.render_report.busy_s": span("evaluate.render_report", "busy_s"),
        "cli.load_config.busy_s": span("cli.load_config", "busy_s"),
        "cli.build_backend.busy_s": span("cli.build_backend", "busy_s"),
        "cli.pool.idle_share": result["idle_share"],
        "cli.failed_share": e2e["failed_share"],
        "trace.overhead_s": traced["cpu_s"] - median(p["cpu_s"] for p in result["passes"]),
        "wall.questions_per_s": e2e["questions_per_s"],
        "wall.search_s": e2e["search_s"],
        "wall.eval_s": e2e["eval_s"],
    }
    for verb in ("search", "eval", "ptdata", "audit", "elasticity"):
        metrics[f"cli.{verb}.self_s"] = span(f"cli.{verb}", "self_s")
    return metrics


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "tokenbudget", "cli.py")):
        print(f"error: harness source not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: dict, work: str) -> int:
    n = workload["n"]
    document = cohort.generate(args.seed, n)
    dataset = os.path.join(work, "cohort.json")
    cohort.write_json(dataset, document)
    oracle = cohort.Oracle(document)
    config = os.path.join(work, "config.json")
    scripted_config(config)
    spec = {
        "src": SRC, "work": work, "workload": args.workload, "config": config,
        "dataset": dataset, "verbs": workload["verbs"], "methods": workload["methods"],
        "concurrency": CONCURRENCY, "seconds": args.seconds, "setup": True,
        "min_passes": workload["min_passes"], "trace": bool(args.trace),
        "trace_dir": WORK_ROOT, "model_id": cohort.MODEL_ID,
    }
    problems, defects = [], []
    fill = None
    fake = FakeProcess(dataset, args.seed) if workload["live"] else None
    try:
        if fake is not None:
            live = os.path.join(work, "live_config.json")
            live_config(live, fake.base + "/v1/chat/completions")
            spec.update(config=live, fake=fake.base, reference={"config": config},
                        env={CREDENTIAL_ENV: "bench-key", "NO_PROXY": "127.0.0.1,localhost"})
        if workload["warm"]:
            # The untimed cold pass that fills the cache the timed passes start from.
            fill = run_worker(dict(spec, setup=False, trace=False, seconds=0, prefix="fill"),
                              work, "fill")["passes"][0]
            # Timed passes start from the filled cache alone, so every other
            # output they are compared on is written afresh.
            seed_dir = os.path.join(work, "warm-seed")
            os.makedirs(seed_dir)
            shutil.copy(os.path.join(fill["out_dir"], "cache.jsonl"), seed_dir)
            spec["seed_dir"] = seed_dir
        result = run_worker(spec, work, "measure")
    finally:
        if fake is not None:
            fake.close()

    passes = result["passes"] + ([result["traced"]] if args.trace else [])
    try:
        problems += gate(workload, oracle, result, passes, fill, defects)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"outputs missing or unreadable: {exc!r}")
    # Per-sample outcomes are counted on an out-dir the oracle checked.
    counted = fill or passes[0]
    try:
        outcomes = checks.outcome_counts(counted["out_dir"], workload["verbs"],
                                         workload["methods"].split(","))
    except (OSError, KeyError, ValueError):
        outcomes = {"attempted": n, "failed": n}
    e2e = end_to_end(result, n, outcomes)
    report(args, n, e2e, result, problems, sorted(set(defects)), outcomes, passes)
    return 1 if problems else 0


def gate(workload: dict, oracle: cohort.Oracle, result: dict, passes: list[dict],
         fill: dict | None, defects: list[str]) -> list[str]:
    """Problems of every pass of a run; known defects are appended to ``defects``."""
    problems = []
    if workload["live"]:
        problems += checks.check_codes(result["reference"])
        for done in passes:
            faulted = frozenset(done["fake"]["faulted_questions"])
            problems += checks.check_codes(done, faulted)
            problems += verify_pass(done, oracle, workload, faulted)
        return problems + compare_live(result, passes)
    # The fill pass (warm) or the first pass (cold) is checked against the
    # oracle; every other pass must exit 0 and reproduce its bytes.
    reference = fill or passes[0]
    for done in ([fill] if fill else []) + passes:
        problems += checks.check_codes(done)
    problems += verify_pass(reference, oracle, workload)
    for done in passes:
        if done is not reference:
            found, known = checks.compare_trees(reference["out_dir"], done["out_dir"])
            problems += found
            defects += known
    if workload["warm"]:
        expected_spend = {"calls": 0, "output_tokens": 0, "expense": 0.0}
    else:
        expected_spend = oracle.spend(workload["verbs"], workload["methods"].split(","))
    for done in passes:
        problems += checks.check_spend(done["spend"], expected_spend)
    return problems


def compare_live(result: dict, passes: list[dict]) -> list[str]:
    """Live search records must equal the scripted run's for every question that did not fail."""
    reference = {r["question_id"]: r for r in checks.read_jsonl(
        os.path.join(result["reference"]["out_dir"], "search_results.jsonl"))}
    problems = []
    for done in passes:
        matched = 0
        for record in checks.read_jsonl(os.path.join(done["out_dir"], "search_results.jsonl")):
            if record["status"] == "error":
                continue
            if record != reference[record["question_id"]]:
                problems.append(f"live search {record['question_id']} differs from the scripted run")
            matched += 1
        done["matched"] = matched
    return problems


def _series(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def report(args, n, e2e, result, problems, defects, outcomes, passes) -> None:
    declared = declared_metrics()
    timed = result["passes"]
    setup = result["setup_s"]
    print(f"workload {args.workload}: seed {args.seed}, {n} questions, concurrency "
          f"{CONCURRENCY}, {len(timed)} timed pass(es)")
    print(f"  pass wall times (s): {_series(p['wall_s'] for p in timed)}")
    print(f"  pass CPU times (s): {_series(p['cpu_s'] for p in timed)}")
    print(f"  set-up samples (CPU s per set-up): {len(setup)}, min {min(setup):.4f}, "
          f"max {max(setup):.4f}")
    for name, unit in declared["end_to_end"] + list(EXTRA_END_TO_END):
        print(f"  {name:<40} {e2e[name]:>14.6g} {unit}")
    if args.workload == "live_http":
        for done in passes:
            print(f"  live search records equal to the scripted run: {done['matched']}; "
                  f"questions hit by injected 500s: {len(done['fake']['faulted_questions'])}")
    for line in defects:
        print(f"  {line}")
    for line in problems[:20]:
        print(f"  FAIL {line}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more failures")
    if args.trace:
        layers = per_layer(result, n, e2e)
        for name, unit in declared["per_layer"]:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit}")
        chosen = {name: {"value": layers[name], "unit": unit}
                  for name, unit in declared["per_layer"]}
    else:
        chosen = {name: {"value": e2e[name], "unit": unit}
                  for name, unit in declared["end_to_end"]}
    # attempted: per-sample outcomes the gates checked; failed: gate violations.
    attempted = outcomes["attempted"] * len(passes)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": min(len(problems), attempted), "metrics": chosen}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tokenbudget repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
