"""Correctness gates: every output a pass writes, against the oracle.

Each check returns a list of problems; an empty list means the outputs are
what the scripted curves say they must be. `compare_trees` holds two
out-dirs to byte identity, except for the two defects ROADMAP open item 5
names, which it reports by name instead of failing.
"""

from __future__ import annotations

import csv
import json
import os

from cohort import Oracle

EXPENSE_TOLERANCE = 1e-6
EVAL_FIELDS = ("correct", "output_tokens", "total_input_tokens", "total_output_tokens",
               "estimated_budget", "budget_used", "used_fallback")

KNOWN_DEFECT_MANIFEST = (
    "known defect: corpus_dpo.manifest.json differs only in created_at "
    "(ROADMAP open item 5)"
)
KNOWN_DEFECT_CACHE_ORDER = (
    "known defect: cache.jsonl holds the same lines in another order at "
    "concurrency 2 (ROADMAP open item 5)"
)


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _search_view(record: dict) -> dict:
    view = {k: record.get(k) for k in
            ("question_id", "status", "optimal_budget", "upper_bound", "target_output")}
    view["trace"] = [{k: p[k] for k in ("budget", "output_tokens", "correct")}
                     for p in record.get("trace", [])]
    return view


def check_search(out_dir: str, oracle: Oracle, faulted: frozenset = frozenset()) -> list[str]:
    problems = []
    records = read_jsonl(os.path.join(out_dir, "search_results.jsonl"))
    if [r["question_id"] for r in records] != [q["id"] for q in oracle.questions]:
        return ["search_results.jsonl: question ids or order differ from the cohort"]
    probes = 0
    for record in records:
        qid = record["question_id"]
        if record["status"] == "error":
            if qid not in faulted:
                problems.append(f"search {qid}: unexpected error {record.get('error')!r}")
            continue
        expected = oracle.search_record(qid)
        if _search_view(record) != _search_view(expected):
            problems.append(f"search {qid}: {_search_view(record)} != {_search_view(expected)}")
        for point in record["trace"]:
            fingerprint = point["response_fingerprint"]
            if not (isinstance(fingerprint, str) and len(fingerprint) == 64):
                problems.append(f"search {qid}: bad response fingerprint {fingerprint!r}")
        probes += len(record["trace"])
    with open(os.path.join(out_dir, "elasticity.csv"), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != probes + 1:
        problems.append(f"elasticity.csv: {len(rows) - 1} rows for {probes} probes")
    return problems


def check_eval(out_dir: str, oracle: Oracle, methods: list[str],
               faulted: frozenset = frozenset()) -> list[str]:
    problems = []
    any_failed = False
    for method in methods:
        records = read_jsonl(os.path.join(out_dir, f"records_{method}.jsonl"))
        if [r["question_id"] for r in records] != [q["id"] for q in oracle.questions]:
            problems.append(f"records_{method}.jsonl: question ids or order differ")
            continue
        for record, question in zip(records, oracle.questions):
            if record["failed"]:
                any_failed = True
                if question["id"] not in faulted:
                    problems.append(f"eval {method} {question['id']}: unexpected failure")
                continue
            expected = oracle.eval_record(question, method)
            got = {k: record[k] for k in EVAL_FIELDS}
            want = {k: expected[k] for k in EVAL_FIELDS}
            if got != want or abs(record["expense"] - expected["expense"]) > EXPENSE_TOLERANCE:
                problems.append(f"eval {method} {question['id']}: {record} != {expected}")
    if not any_failed:
        report = read_json(os.path.join(out_dir, "report.json"))
        for got, want in zip(report["rows"], oracle.eval_report_rows(methods)):
            for key, value in want.items():
                if got.get(key) != value:
                    problems.append(f"report.json {want['method']} {key}: {got.get(key)} != {value}")
    return problems


def check_ptdata(out_dir: str, oracle: Oracle) -> list[str]:
    problems = []
    expected, skipped = [], {}
    for question in oracle.questions:
        outcome = oracle.dpo_outcome(question)
        if "skip" in outcome:
            skipped[outcome["skip"]] = skipped.get(outcome["skip"], 0) + 1
        else:
            expected.append(outcome)
    corpus = read_jsonl(os.path.join(out_dir, "corpus_dpo.jsonl"))
    if corpus != expected:
        problems.append(f"corpus_dpo.jsonl: {len(corpus)} records differ from the "
                        f"{len(expected)} expected")
    manifest = read_json(os.path.join(out_dir, "corpus_dpo.manifest.json"))
    counts = {"attempted": len(oracle.questions), "succeeded": len(expected),
              "skipped": dict(sorted(skipped.items()))}
    if manifest["counts"] != counts:
        problems.append(f"corpus_dpo.manifest.json counts {manifest['counts']} != {counts}")
    return problems


def check_audit(out_dir: str, oracle: Oracle) -> list[str]:
    report = read_json(os.path.join(out_dir, "audit_report.json"))
    expected = [a for a in (oracle.audit(q) for q in oracle.questions) if a is not None]
    problems = []
    if report["per_question"] != expected:
        problems.append(f"audit_report.json: per-question checks differ "
                        f"({len(report['per_question'])} vs {len(expected)} audited)")
    fraction = round(100.0 * sum(a["is_monotonic"] for a in expected) / len(expected), 2)
    if report["monotonic_fraction_pct"] != fraction:
        problems.append(f"audit monotonic_fraction_pct {report['monotonic_fraction_pct']} != {fraction}")
    return problems


def check_elasticity(out_dir: str, oracle: Oracle) -> list[str]:
    report = read_json(os.path.join(out_dir, "elasticity_report.json"))
    ranges = [r for r in (oracle.ideal_range(q["id"]) for q in oracle.questions) if r]
    problems = []
    if report["ranges"] != ranges:
        problems.append(f"elasticity_report.json: {len(report['ranges'])} ranges differ "
                        f"from the {len(ranges)} expected")
    estimates = {q["id"]: oracle.eval_record(q, "ep")["estimated_budget"] for q in oracle.questions}
    paired = [(estimates[r["question_id"]], r) for r in ranges
              if estimates[r["question_id"]] is not None]
    misses = [r for value, r in paired if not r["low"] <= value <= r["high"]]
    quality = report["estimator_quality"]
    want = {"sample_count": len(paired), "out_of_range_count": len(misses)}
    got = {k: quality[k] for k in want} if quality else None
    if got != want:
        problems.append(f"estimator quality {got} != {want}")
    return problems


def check_codes(done: dict, faulted: frozenset = frozenset()) -> list[str]:
    """Every verb of a pass must exit 0. Exit code 2 means per-sample
    failures, which only the fake's injected faults may cause."""
    allowed = (0, 2) if faulted else (0,)
    name = os.path.basename(done["out_dir"])
    return [f"{name}: {verb} exited {code}" for verb, code in done["codes"].items()
            if code not in allowed]


def check_spend(spend: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("calls", "output_tokens"):
        if spend[key] != expected[key]:
            problems.append(f"upstream {key}: {spend[key]} != expected {expected[key]}")
    if abs(spend["expense"] - expected["expense"]) > EXPENSE_TOLERANCE * max(1, expected["calls"]):
        problems.append(f"upstream expense: {spend['expense']} != expected {expected['expense']}")
    return problems


def compare_trees(reference: str, candidate: str) -> tuple[list[str], list[str]]:
    """(problems, known defects) between two out-dirs that should be identical."""
    problems, defects = [], []
    names = sorted(set(os.listdir(reference)) | set(os.listdir(candidate)))
    for name in names:
        a, b = os.path.join(reference, name), os.path.join(candidate, name)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            problems.append(f"{name}: present in only one out-dir")
            continue
        with open(a, "rb") as left, open(b, "rb") as right:
            first, second = left.read(), right.read()
        if first == second:
            continue
        if name.endswith(".manifest.json"):
            x, y = json.loads(first), json.loads(second)
            x.pop("created_at", None)
            y.pop("created_at", None)
            if x == y:
                defects.append(KNOWN_DEFECT_MANIFEST)
                continue
        if name == "cache.jsonl" and sorted(first.splitlines()) == sorted(second.splitlines()):
            defects.append(KNOWN_DEFECT_CACHE_ORDER)
            continue
        problems.append(f"{name}: bytes differ")
    return problems, defects


def outcome_counts(out_dir: str, verbs: list[str], methods: list[str]) -> dict:
    """Per-sample attempts and failures over the verbs' outputs."""
    attempted = failed = 0
    if "search" in verbs:
        records = read_jsonl(os.path.join(out_dir, "search_results.jsonl"))
        attempted += len(records)
        failed += sum(1 for r in records if r["status"] == "error")
    if "eval" in verbs:
        for method in methods:
            records = read_jsonl(os.path.join(out_dir, f"records_{method}.jsonl"))
            attempted += len(records)
            failed += sum(1 for r in records if r["failed"])
    if "ptdata" in verbs:
        counts = read_json(os.path.join(out_dir, "corpus_dpo.manifest.json"))["counts"]
        attempted += counts["attempted"]
        failed += sum(n for reason, n in counts["skipped"].items()
                      if reason.startswith("backend_error"))
    if "audit" in verbs:
        report = read_json(os.path.join(out_dir, "audit_report.json"))
        errors = sum(1 for s in report["skipped"] if s["reason"].startswith("backend_error"))
        attempted += report["audited"] + errors
        failed += errors
    return {"attempted": attempted, "failed": failed}
