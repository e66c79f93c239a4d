"""Tests of the benchmark's own parts: generator, oracle, fake, tracer, gates.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import cohort  # noqa: E402
from fake_upstream import FakeUpstream  # noqa: E402
from tracing import Tracer, pool_idle_share, summarize  # noqa: E402
from worker import sequence  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert cohort.generate(5, 120) == cohort.generate(5, 120)
    assert cohort.generate(5, 120) != cohort.generate(6, 120)


def test_generator_shares_are_exact():
    document = cohort.generate(9, 200)
    questions = document["questions"]
    wrong = [q for q in questions if not q["behavior"]["vanilla"]["correct"]]
    unparsable = [q for q in questions
                  if cohort.first_integer(q["behavior"]["estimate"]["text"]) is None]
    assert len(wrong) == 20
    assert len(unparsable) == 10
    assert len({q["text"] for q in questions}) == len(questions)


def test_oracle_reproduces_the_readme_demo():
    with open(os.path.join(ROOT, "demo", "dataset.json"), encoding="utf-8") as handle:
        oracle = cohort.Oracle(json.load(handle))
    rebound = oracle.search_record("rebound")
    assert rebound["status"] == "found"
    assert rebound["optimal_budget"] == 64
    assert [(p["budget"], p["output_tokens"]) for p in rebound["trace"]] == [
        (256, 130), (128, 120), (64, 70), (32, 90)]
    assert oracle.search_record("wrong")["status"] == "vanilla_incorrect"


def test_oracle_agrees_with_the_harness_on_every_output(tmp_path):
    from tokenbudget.cli import main

    document = cohort.generate(3, 60)
    oracle = cohort.Oracle(document)
    dataset = str(tmp_path / "cohort.json")
    cohort.write_json(dataset, document)
    config = str(tmp_path / "config.json")
    cohort.write_json(config, {
        "backend": {"kind": "scripted", "model_id": cohort.MODEL_ID},
        "pricing": [{"model_id": cohort.MODEL_ID, "input_price": cohort.INPUT_PRICE,
                     "output_price": cohort.OUTPUT_PRICE}],
    })
    out_dir = str(tmp_path / "out")
    spec = {"config": config, "dataset": dataset, "concurrency": 2,
            "methods": "direct,vanilla,ep",
            "verbs": ["search", "eval", "ptdata", "audit", "elasticity"]}
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for _, argv in sequence(spec, out_dir)]
    assert codes == [0] * 5
    problems = (checks.check_search(out_dir, oracle)
                + checks.check_eval(out_dir, oracle, ["direct", "vanilla", "ep"])
                + checks.check_ptdata(out_dir, oracle)
                + checks.check_audit(out_dir, oracle)
                + checks.check_elasticity(out_dir, oracle))
    assert problems == []
    spend = oracle.spend(spec["verbs"], ["direct", "vanilla", "ep"])
    assert spend["calls"] == len(checks.read_jsonl(os.path.join(out_dir, "cache.jsonl")))


def _chat(question: dict, kind: str, budget=None) -> dict:
    return {"messages": [{"role": "system", "content": cohort.SYSTEM},
                         {"role": "user", "content": cohort.user_text(question, kind, budget)}]}


def test_fake_upstream_answers_from_the_script_with_seeded_faults():
    document = cohort.generate(4, 300)
    oracle = cohort.Oracle(document)
    fake = FakeUpstream(document, seed=4)
    statuses = []
    for question in document["questions"]:
        status, body = fake.answer(_chat(question, "vanilla"))
        if status == 200:
            assert body["choices"][0]["message"]["content"] == \
                oracle.response(question, "vanilla")["text"]
            assert body["usage"]["completion_tokens"] == \
                question["behavior"]["vanilla"]["output_tokens"]
        statuses.append(status)
    assert {429, 503} & set(statuses)
    assert statuses.count(200) > 0.9 * len(statuses)
    fake.reset()
    again = [fake.answer(_chat(q, "vanilla"))[0] for q in document["questions"]]
    assert again == statuses
    retried = [fake.answer(_chat(q, "vanilla"))[0] for q in document["questions"]]
    assert all(s in (200, 500) for s in retried)
    assert fake.snapshot()["retries"] == len(document["questions"])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, None, None),
        (2, "child", 1.0, 3.0, 1, "q1"),
        (3, "child", 2.0, 5.0, 1, "q2"),
        (4, "grandchild", 2.0, 2.5, 3, "q2"),
    ]
    summary = summarize(spans)
    assert summary["parent"]["self_s"] == 6.0
    assert summary["child"]["busy_s"] == 5.0
    assert summary["child"]["self_s"] == 4.5


def test_pool_idle_share_counts_per_question_busy_time():
    spans = [
        (1, "cli.pool", 0.0, 10.0, None, None),
        (2, "search.search_optimal_budget", 0.0, 10.0, 1, "q1"),
        (3, "search.search_optimal_budget", 0.0, 5.0, 1, "q2"),
    ]
    assert pool_idle_share(spans, workers=2) == 0.25


def test_tracer_patches_every_import_site_and_restores_them():
    from tokenbudget import evaluate, grading, ptdata, search

    original = grading.grade
    tracer = Tracer()
    tracer.install()
    try:
        for module in (grading, search, evaluate, ptdata):
            assert module.grade is not original
            assert module.grade.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert all(m.grade is original for m in (grading, search, evaluate, ptdata))


def test_check_codes_allows_exit_2_only_for_injected_faults():
    done = {"out_dir": "/tmp/pass3", "codes": {"search": 0, "eval": 2, "audit": 3}}
    assert checks.check_codes(done) == ["pass3: eval exited 2", "pass3: audit exited 3"]
    assert checks.check_codes(done, frozenset({"q1"})) == ["pass3: audit exited 3"]


def test_compare_trees_names_the_known_defects(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for directory, stamp, lines in ((first, "t1", "x\ny\n"), (second, "t2", "y\nx\n")):
        directory.mkdir()
        (directory / "corpus_dpo.manifest.json").write_text(
            json.dumps({"created_at": stamp, "counts": {}}))
        (directory / "cache.jsonl").write_text(lines)
        (directory / "report.json").write_text("{}")
    problems, defects = checks.compare_trees(str(first), str(second))
    assert problems == []
    assert defects == [checks.KNOWN_DEFECT_CACHE_ORDER, checks.KNOWN_DEFECT_MANIFEST]
    (second / "report.json").write_text("{\"changed\": 1}")
    problems, _ = checks.compare_trees(str(first), str(second))
    assert problems == ["report.json: bytes differ"]
