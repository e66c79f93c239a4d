"""CLI verbs: exit codes, output files, and flag surface."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil

import pytest

import tokenbudget.cli as cli
from tokenbudget.cli import main
from tokenbudget.errors import TransportError

from conftest import DEMO_CONFIG, DEMO_SCENARIO, completion_payload, write_demo_files


@pytest.fixture
def demo(tmp_path):
    config_path, dataset_path = write_demo_files(tmp_path)
    return config_path, dataset_path, tmp_path


def _read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_writes_records_and_report(demo, capsys):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    code = main(
        ["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--methods", "direct,vanilla,ep"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "vanilla" in stdout and "ACC" in stdout

    for slug in ("direct", "vanilla", "ep"):
        records = _read_jsonl(os.path.join(out, f"records_{slug}.jsonl"))
        assert [r["question_id"] for r in records] == ["rebound", "mono", "wrong"]
    assert os.path.exists(os.path.join(out, "report.txt"))
    manifest = _read_json(os.path.join(out, "run_manifest.json"))
    assert manifest["verb"] == "eval"
    assert manifest["seed"] == 1024
    assert "config_hash" in manifest


def test_eval_json_report_and_alpha(demo):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    code = main(
        ["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--methods", "vanilla,ep", "--alpha", "2", "--format", "json"]
    )
    assert code == 0
    document = _read_json(os.path.join(out, "report.json"))
    methods = {row["method"] for row in document["rows"]}
    assert methods == {"vanilla", "ep(alpha=2)"}
    # alpha=2 doubles the rebound question's estimate: 50 -> budget 100,
    # which is off-curve and served by the default entry.
    records = _read_jsonl(os.path.join(out, "records_ep_alpha2.jsonl"))
    assert records[0]["budget_used"] == 100


def test_eval_sample_n_subsets_deterministically(demo):
    config, dataset, tmp = demo
    out_a, out_b = str(tmp / "a"), str(tmp / "b")
    for out in (out_a, out_b):
        assert main(
            ["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
             "--methods", "vanilla", "--sample-n", "2", "--seed", "7"]
        ) == 0
    ids_a = [r["question_id"] for r in _read_jsonl(os.path.join(out_a, "records_vanilla.jsonl"))]
    ids_b = [r["question_id"] for r in _read_jsonl(os.path.join(out_b, "records_vanilla.jsonl"))]
    assert ids_a == ids_b and len(ids_a) == 2


def test_eval_missing_dataset_is_fatal(demo):
    config, _, tmp = demo
    code = main(["eval", "--config", config, "--dataset", str(tmp / "nope.json"),
                 "--out-dir", str(tmp / "out")])
    assert code == 1


def test_eval_bad_config_is_fatal(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"backend\": {}}")
    assert main(["eval", "--config", str(bad), "--dataset", "x"]) == 1


def test_eval_partial_sample_failures_exit_2(demo, monkeypatch):
    from tokenbudget.evaluate import aggregate_records

    config, dataset, tmp = demo
    real = cli.run_method

    def flaky(backend, dataset_obj, method, pricing, **kwargs):
        run = real(backend, dataset_obj, method, pricing, **kwargs)
        run.records[0].failed = True
        run.records[0].error = "injected"
        run.report = aggregate_records(run.records)
        return run

    monkeypatch.setattr(cli, "run_method", flaky)
    code = main(["eval", "--config", config, "--dataset", dataset,
                 "--out-dir", str(tmp / "out"), "--methods", "vanilla"])
    assert code == 2


def test_live_config_requires_resolvable_credential(demo, monkeypatch, tmp_path):
    _, dataset, tmp = demo
    live_config = tmp_path / "live.json"
    live_config.write_text(json.dumps({
        "backend": {
            "kind": "live",
            "endpoint": "http://127.0.0.1:1/v1/chat/completions",
            "model_id": "gpt-4o-mini",
            "credential_env": "TOKENBUDGET_TEST_KEY",
        },
        "pricing": [],
    }))
    monkeypatch.delenv("TOKENBUDGET_TEST_KEY", raising=False)
    code = main(["eval", "--config", str(live_config), "--dataset", dataset,
                 "--out-dir", str(tmp / "out"), "--methods", "vanilla"])
    assert code == 1


def test_live_config_sends_its_settings_and_retries_each_question(
        demo, http_server, monkeypatch, tmp_path):
    """config -> build_backend -> LiveBackend -> HTTP, against a local endpoint."""
    _, dataset, tmp = demo
    answer = (200, completion_payload())
    # At concurrency 1 the vanilla calls go rebound, mono, wrong; mono is
    # answered 503 on both of its attempts.
    server = http_server([answer, (503, {}), (503, {}), answer])
    live_config = tmp_path / "live.json"
    live_config.write_text(json.dumps({
        "backend": {
            "kind": "live",
            "endpoint": server.endpoint,
            "model_id": "gpt-4o-mini",
            "credential_env": "TOKENBUDGET_TEST_KEY",
        },
        "pricing": [{"model_id": "gpt-4o-mini", "input_price": 0.15, "output_price": 0.60}],
        "sampling": {"temperature": 0.3, "seed": 7},
        "retry": {"max_attempts": 2, "initial_backoff": 0.01},
        "concurrency": 1,
    }))
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = str(tmp / "out")
    assert main(["eval", "--config", str(live_config), "--dataset", dataset,
                 "--out-dir", out, "--methods", "vanilla"]) == 2

    assert len(server.requests) == 4
    for sent in server.requests:
        assert sent["authorization"] == "Bearer sk-from-env"
        assert sent["body"]["model"] == "gpt-4o-mini"
        assert (sent["body"]["temperature"], sent["body"]["seed"]) == (0.3, 7)
    mono_text = DEMO_SCENARIO["questions"][1]["text"]
    assert [sent["body"]["messages"][1]["content"].startswith(mono_text)
            for sent in server.requests] == [False, True, True, False]
    records = _read_jsonl(os.path.join(out, "records_vanilla.jsonl"))
    assert [(r["question_id"], r["failed"]) for r in records] == [
        ("rebound", False), ("mono", True), ("wrong", False),
    ]


def _config(**changes) -> str:
    return json.dumps(dict(DEMO_CONFIG, **changes))


DEMO_DATASET = json.dumps(DEMO_SCENARIO)


@pytest.mark.parametrize("config, dataset, flags, problem", [
    pytest.param('{"backend": ', DEMO_DATASET, [], "invalid JSON", id="config-not-json"),
    pytest.param(_config(backend={"kind": "remote"}), DEMO_DATASET, [], "'remote'",
                 id="unknown-backend-kind"),
    pytest.param(_config(backend={"kind": "live", "model_id": "m", "credential_env": "KEY"}),
                 DEMO_DATASET, [], "backend.endpoint", id="live-without-endpoint"),
    pytest.param(_config(concurrency=0), DEMO_DATASET, [], "concurrency must be >= 1",
                 id="config-concurrency-0"),
    pytest.param(_config(), DEMO_DATASET, ["--concurrency", "0"], "concurrency must be >= 1",
                 id="flag-concurrency-0"),
    pytest.param(_config(), None, [], "requires --dataset", id="cohort-verb-without-dataset"),
    pytest.param(_config(sampling={"temperature": -1}), DEMO_DATASET, [],
                 "temperature must be >= 0", id="negative-temperature"),
    pytest.param(_config(sampling={"temperature": float("nan")}), DEMO_DATASET, [],
                 "temperature must be >= 0 and finite, got nan", id="nan-temperature"),
    pytest.param(_config(sampling={"temperature": float("inf")}), DEMO_DATASET, [],
                 "temperature must be >= 0 and finite, got inf", id="infinite-temperature"),
    pytest.param(_config(retry={"initial_backoff": float("nan")}), DEMO_DATASET, [],
                 "initial_backoff must be >= 0 and finite", id="nan-retry-backoff"),
    pytest.param(_config(backend={"kind": "live", "endpoint": "localhost:9/v1/chat/completions",
                                  "model_id": "m", "credential_env": "KEY"}),
                 DEMO_DATASET, [], "backend.endpoint", id="endpoint-without-scheme"),
    pytest.param(_config(), '{"questions": [', [], "invalid JSON", id="fixture-not-json"),
    pytest.param(_config(), json.dumps({"questions": [{"id": "q", "gold_answer": "1"}]}), [],
                 "'text'", id="fixture-question-without-text"),
    pytest.param(_config(), json.dumps({"questions": [{
        "id": "q", "text": "Q?", "gold_answer": "1", "behavior": {"vanilla": {"correct": True}},
    }]}), [], "'output_tokens'", id="fixture-entry-without-output-tokens"),
    pytest.param(_config(concurency=2), DEMO_DATASET, [], "unknown config key 'concurency'",
                 id="unknown-top-level-key"),
    pytest.param(_config(rate_limit={"rate": 8.0, "burst": 8}), DEMO_DATASET, [],
                 "unknown config key 'rate_limit'", id="removed-rate-limit"),
    pytest.param(_config(backend={"kind": "scripted", "script_path": "fixture.json"}),
                 DEMO_DATASET, [], "unknown config key 'backend.script_path'",
                 id="removed-script-path"),
    pytest.param(_config(sampling={"temprature": 0.2}), DEMO_DATASET, [],
                 "unknown config key 'sampling.temprature'", id="unknown-sampling-key"),
    pytest.param(_config(retry={"max_attemps": 2}), DEMO_DATASET, [],
                 "unknown config key 'retry.max_attemps'", id="unknown-retry-key"),
    pytest.param(_config(pricing=[{"model_id": "m", "input_price": 1, "output_price": 2,
                                   "currency": "usd"}]), DEMO_DATASET, [],
                 "unknown config key 'pricing[0].currency'", id="unknown-pricing-key"),
    pytest.param(_config(pricing=[{"model_id": "m", "input_price": 1}]), DEMO_DATASET, [],
                 "'output_price'", id="pricing-row-without-output-price"),
    pytest.param(_config(pricing=[{"model_id": "scripted-v1", "input_price": float("nan"),
                                   "output_price": 0.6}]), DEMO_DATASET, [],
                 "pricing[0]: input_price must be >= 0 and finite, got nan", id="nan-price"),
    pytest.param(_config(pricing=[{"model_id": "scripted-v1", "input_price": 0.15,
                                   "output_price": float("inf")}]), DEMO_DATASET, [],
                 "pricing[0]: output_price must be >= 0 and finite, got inf",
                 id="infinite-price"),
    pytest.param(_config(templates={"budgeted_suffix": "Use at most {tokens} tokens:"}),
                 DEMO_DATASET, [], "budgeted_suffix", id="suffix-with-another-field"),
    pytest.param(_config(templates={"budgeted_suffix": "Be brief:"}), DEMO_DATASET, [],
                 "budgeted_suffix", id="suffix-without-budget"),
    pytest.param(_config(templates={"nonsense": "x"}), DEMO_DATASET, [],
                 "unknown config key 'templates.nonsense'", id="unknown-template-key"),
    pytest.param(_config(templates={"system": 5}), DEMO_DATASET, [], "templates.system",
                 id="template-not-a-string"),
    pytest.param(_config(retry={"max_attempts": 0}), DEMO_DATASET, [],
                 "max_attempts must be >= 1", id="retry-without-attempts"),
    pytest.param(_config(retry={"jitter": -0.5}), DEMO_DATASET, [], "jitter must be >= 0",
                 id="negative-retry-jitter"),
])
def test_bad_input_is_fatal_and_names_the_problem(tmp_path, capsys, config, dataset, flags,
                                                  problem):
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    argv = ["search", "--config", str(config_path), "--out-dir", str(tmp_path / "out"), *flags]
    if dataset is not None:
        dataset_path = tmp_path / "dataset.json"
        dataset_path.write_text(dataset)
        argv += ["--dataset", str(dataset_path)]
    assert main(argv) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and problem in error, error


def test_config_template_overrides_flow_into_prompts(demo, tmp_path):
    config, dataset, tmp = demo
    import copy

    from conftest import DEMO_CONFIG

    overridden = copy.deepcopy(DEMO_CONFIG)
    overridden["templates"] = {
        "system": "Solve math problems.",
        "budgeted_suffix": "Think briefly, at most {budget} tokens:",
    }
    config_path = tmp_path / "override.json"
    config_path.write_text(json.dumps(overridden))
    out = str(tmp / "out")
    assert main(["search", "--config", str(config_path), "--dataset", dataset,
                 "--out-dir", out]) == 0
    default_out = str(tmp / "default")
    assert main(["search", "--config", config, "--dataset", dataset,
                 "--out-dir", default_out]) == 0

    # Only the requests differ: every probe is served the same scripted entry.
    def without_fingerprints(out_dir):
        records = _read_jsonl(os.path.join(out_dir, "search_results.jsonl"))
        fingerprints = set()
        for record in records:
            for row in record["trace"]:
                fingerprints.add(row.pop("response_fingerprint"))
        return records, fingerprints

    records, fingerprints = without_fingerprints(out)
    default_records, default_fingerprints = without_fingerprints(default_out)
    assert records == default_records
    assert any(record["trace"] for record in records)
    assert fingerprints.isdisjoint(default_fingerprints)

    bad = copy.deepcopy(DEMO_CONFIG)
    bad["templates"] = {"mystery": "x"}
    bad_path = tmp_path / "bad_templates.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["search", "--config", str(bad_path), "--dataset", dataset,
                 "--out-dir", out]) == 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_writes_results_and_elasticity_csv(demo):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    code = main(["search", "--config", config, "--dataset", dataset, "--out-dir", out])
    assert code == 0

    records = {r["question_id"]: r for r in _read_jsonl(os.path.join(out, "search_results.jsonl"))}
    assert records["rebound"]["optimal_budget"] == 64
    assert records["rebound"]["status"] == "found"
    assert records["mono"]["optimal_budget"] == 64
    assert records["wrong"]["status"] == "vanilla_incorrect"

    with open(os.path.join(out, "elasticity.csv")) as handle:
        rows = list(csv.DictReader(handle))
    rebound_rows = [r for r in rows if r["question_id"] == "rebound"]
    assert [int(r["budget"]) for r in rebound_rows] == [256, 128, 64, 32]
    assert [int(r["output_tokens"]) for r in rebound_rows] == [130, 120, 70, 90]


def test_search_partial_backend_failure_exits_2(demo, monkeypatch):
    config, dataset, tmp = demo
    real = cli.search_optimal_budget

    def flaky(backend, question, **kwargs):
        if question.id == "mono":
            raise TransportError("interrupted")
        return real(backend, question, **kwargs)

    monkeypatch.setattr(cli, "search_optimal_budget", flaky)
    out = str(tmp / "out")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", out]) == 2
    records = {r["question_id"]: r for r in _read_jsonl(os.path.join(out, "search_results.jsonl"))}
    assert records["mono"]["status"] == "error"
    assert "interrupted" in records["mono"]["error"]


# ---------------------------------------------------------------------------
# elasticity
# ---------------------------------------------------------------------------


def test_elasticity_report_with_estimates(demo):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out]) == 0
    eval_out = str(tmp / "eval")
    assert main(
        ["eval", "--config", config, "--dataset", dataset, "--out-dir", eval_out,
         "--methods", "ep"]
    ) == 0

    out = str(tmp / "elastic")
    code = main(
        ["elasticity", "--config", config, "--out-dir", out,
         "--search-output", os.path.join(search_out, "search_results.jsonl"),
         "--estimates", os.path.join(eval_out, "records_ep.jsonl")]
    )
    assert code == 0
    report = _read_json(os.path.join(out, "elasticity_report.json"))
    ranges = {r["question_id"]: r for r in report["ranges"]}
    # Auto k over the correct points (4 for rebound, 3 for mono) is 1; the
    # cheapest point sits at budget 64 for both.
    assert ranges["rebound"]["window_budgets"] == [64]
    assert ranges["mono"]["window_budgets"] == [64]
    quality = report["estimator_quality"]
    assert quality["sample_count"] == 2
    assert quality["in_range_accuracy"] == 0.5
    assert quality["out_of_range_distance"] == 14.0
    assert report["live_reference"]["in_range_accuracy_pct"] == 60.61


def test_elasticity_explicit_k(demo):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out])
    out = str(tmp / "elastic")
    assert main(
        ["elasticity", "--config", config, "--out-dir", out, "--k", "2",
         "--search-output", os.path.join(search_out, "search_results.jsonl")]
    ) == 0
    report = _read_json(os.path.join(out, "elasticity_report.json"))
    ranges = {r["question_id"]: r for r in report["ranges"]}
    assert ranges["rebound"]["window_budgets"] == [64, 32]  # 70 + 90 is minimal
    assert ranges["rebound"]["total_cost"] == 160


def test_elasticity_missing_input_is_fatal(demo):
    config, _, tmp = demo
    assert main(
        ["elasticity", "--config", config, "--out-dir", str(tmp / "o"),
         "--search-output", str(tmp / "missing.jsonl")]
    ) == 1


def test_malformed_search_results_name_the_file_and_the_line(demo, capsys):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out]) == 0
    with open(os.path.join(search_out, "search_results.jsonl")) as handle:
        lines = handle.readlines()

    torn = tmp / "torn.jsonl"  # an append cut short inside its last line
    torn.write_text("".join(lines[:-1]) + lines[-1][:25])
    capsys.readouterr()
    assert main(["elasticity", "--config", config, "--out-dir", str(tmp / "e"),
                 "--search-output", str(torn)]) == 1
    assert f"error: {torn}: line 3: " in capsys.readouterr().err

    records = [json.loads(line) for line in lines]
    assert records[0]["status"] == "found"
    del records[0]["optimal_budget"]
    incomplete = tmp / "incomplete.jsonl"
    incomplete.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["audit", "--config", config, "--dataset", dataset, "--out-dir", str(tmp / "a"),
                 "--search-output", str(incomplete)]) == 1
    error = capsys.readouterr().err
    assert str(incomplete) in error and "optimal_budget" in error


@pytest.mark.parametrize("verb, flag, line, problem", [
    pytest.param("elasticity", "--search-output", {"status": "found", "optimal_budget": 4},
                 "'question_id'", id="elasticity-result-without-question-id"),
    pytest.param("audit", "--search-output", {"status": "vanilla_incorrect"},
                 "'question_id'", id="audit-result-without-question-id"),
    pytest.param("elasticity", "--search-output",
                 {"question_id": "rebound", "status": "found", "optimal_budget": 4,
                  "trace": [{"budget": 4, "correct": True}]},
                 "'output_tokens'", id="trace-row-without-output-tokens"),
    pytest.param("elasticity", "--estimates", {"method": "ep", "estimated_budget": 50},
                 "'question_id'", id="ep-record-without-question-id"),
])
def test_read_back_records_are_checked(demo, capsys, verb, flag, line, problem):
    config, dataset, tmp = demo
    good = {"question_id": "mono", "status": "vanilla_incorrect"}
    search_output = tmp / "search_results.jsonl"
    search_output.write_text(json.dumps(good) + "\n")
    if flag == "--estimates":
        good = {"question_id": "mono", "method": "ep"}
    bad = tmp / "bad.jsonl"
    bad.write_text(f"{json.dumps(good)}\n{json.dumps(line)}\n")
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", str(tmp / "out")]
    if flag == "--estimates":
        argv += ["--search-output", str(search_output)]
    capsys.readouterr()
    assert main([*argv, flag, str(bad)]) == 1
    error = capsys.readouterr().err
    assert error.startswith(f"error: {bad}: line 2: ") and problem in error, error


@pytest.mark.parametrize("k", ["0", "-1", "two"])
def test_elasticity_rejects_a_bad_k_before_reading(demo, capsys, k):
    config, _, tmp = demo
    out = tmp / "out"
    assert main(["elasticity", "--config", config, "--out-dir", str(out), "--k", k,
                 "--search-output", str(tmp / "missing.jsonl")]) == 1
    assert "--k" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ptdata
# ---------------------------------------------------------------------------


def test_ptdata_sft_corpus(demo):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    code = main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "sft"])
    assert code == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_sft.jsonl"))
    assert {r["meta"]["question_id"] for r in corpus} == {"rebound", "mono"}
    manifest = _read_json(os.path.join(out, "corpus_sft.manifest.json"))
    assert manifest["counts"] == {
        "attempted": 3,
        "succeeded": 2,
        "skipped": {"vanilla_incorrect": 1},
    }


def test_ptdata_dpo_corpus(demo):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "dpo"]) == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_dpo.jsonl"))
    for record in corpus:
        assert record["meta"]["positive_tokens"] < record["meta"]["negative_tokens"]


def test_ptdata_budgeted_input_flag(demo):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "sft", "--pt-input", "budgeted"]) == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_sft.jsonl"))
    assert all("use less than" in r["input"] for r in corpus)


def test_ptdata_backend_failure_is_a_skip_and_exits_2(demo, monkeypatch):
    config, dataset, tmp = demo
    real = cli.generate_target

    def flaky(backend, question, **kwargs):
        if question.id == "mono":
            raise TransportError("interrupted")
        return real(backend, question, **kwargs)

    monkeypatch.setattr(cli, "generate_target", flaky)
    out = str(tmp / "out")
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "sft"]) == 2
    manifest = _read_json(os.path.join(out, "corpus_sft.manifest.json"))
    assert manifest["counts"]["skipped"] == {
        "backend_error: interrupted": 1,
        "vanilla_incorrect": 1,
    }


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_report(demo):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out])
    out = str(tmp / "audit")
    code = main(
        ["audit", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--search-output", os.path.join(search_out, "search_results.jsonl")]
    )
    assert code == 0
    report = _read_json(os.path.join(out, "audit_report.json"))
    per_question = {q["question_id"]: q for q in report["per_question"]}
    # mono has the clean F,F,T,T,T threshold; rebound stays correct at 32.
    assert per_question["mono"]["is_monotonic"] is True
    assert [c["correct"] for c in per_question["mono"]["checks"]] == [
        False, False, True, True, True,
    ]
    assert per_question["rebound"]["is_monotonic"] is False
    assert report["monotonic_fraction_pct"] == 50.0
    assert report["audited"] == 2
    assert {s["question_id"] for s in report["skipped"]} == {"wrong"}
    assert report["live_reference"]["accuracy_pct"] == [69.23, 75.82, 75.82, 76.92]


def test_audit_custom_multipliers(demo):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out])
    out = str(tmp / "audit")
    assert main(
        ["audit", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--search-output", os.path.join(search_out, "search_results.jsonl"),
         "--multipliers", "0.5,1,2"]
    ) == 0
    report = _read_json(os.path.join(out, "audit_report.json"))
    assert report["multipliers"] == [0.5, 1.0, 2.0]
    assert len(report["per_multiplier"]) == 3


def test_audit_backend_failure_is_a_skip_and_exits_2(demo, monkeypatch):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out])
    real = cli.monotonicity_audit

    def flaky(backend, question, optimal, **kwargs):
        if question.id == "mono":
            raise TransportError("interrupted")
        return real(backend, question, optimal, **kwargs)

    monkeypatch.setattr(cli, "monotonicity_audit", flaky)
    out = str(tmp / "audit")
    assert main(
        ["audit", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--search-output", os.path.join(search_out, "search_results.jsonl")]
    ) == 2
    report = _read_json(os.path.join(out, "audit_report.json"))
    assert report["audited"] == 1
    assert {"question_id": "mono", "reason": "backend_error: interrupted"} in report["skipped"]


def test_audit_skips_found_questions_outside_its_cohort(demo):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out])
    out = str(tmp / "audit")
    # --sample-n 1 --seed 3 draws the cohort {rebound}; mono was found by the
    # search but is not in it.
    assert main(
        ["audit", "--config", config, "--dataset", dataset, "--out-dir", out,
         "--search-output", os.path.join(search_out, "search_results.jsonl"),
         "--sample-n", "1", "--seed", "3"]
    ) == 0
    report = _read_json(os.path.join(out, "audit_report.json"))
    assert [q["question_id"] for q in report["per_question"]] == ["rebound"]
    assert report["skipped"] == [
        {"question_id": "mono", "reason": "not_in_cohort"},
        {"question_id": "wrong", "reason": "vanilla_incorrect"},
    ]
    manifest = _read_json(os.path.join(out, "run_manifest.json"))
    assert manifest["verb"] == "audit"
    assert manifest["dataset_path"] == dataset
    assert manifest["sample_n"] == 1
    assert manifest["seed"] == 3


# ---------------------------------------------------------------------------
# Failure policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("verb", ["search", "eval", "ptdata", "audit"])
def test_per_question_config_error_is_fatal_in_every_cohort_verb(demo, verb, capsys):
    """A question the script cannot serve is a config error, not a sample failure."""
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out]) == 0

    unscripted = json.loads(json.dumps(DEMO_SCENARIO))
    del unscripted["default_behavior"]
    del unscripted["questions"][1]["behavior"]  # mono
    unscripted_path = tmp / "unscripted.json"
    unscripted_path.write_text(json.dumps(unscripted))
    argv = [verb, "--config", config, "--dataset", str(unscripted_path),
            "--out-dir", str(tmp / "out")]
    if verb == "audit":
        argv += ["--search-output", os.path.join(search_out, "search_results.jsonl")]
    capsys.readouterr()
    assert main(argv) == 1
    assert "scripted behavior" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Concurrency independence
# ---------------------------------------------------------------------------


def test_demo_outputs_do_not_depend_on_concurrency(demo, capsys):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    results = os.path.join(out, "search_results.jsonl")
    cohort = ["--config", config, "--dataset", dataset, "--out-dir", out]

    def run_demo(concurrency):
        shared = ["--concurrency", str(concurrency)]
        argvs = [
            ["search", *cohort],
            ["eval", *cohort, "--methods", "direct,vanilla,ep,fixed:64"],
            ["elasticity", "--config", config, "--out-dir", out, "--search-output", results,
             "--estimates", os.path.join(out, "records_ep.jsonl")],
            ["ptdata", *cohort, "--format", "dpo"],
            ["ptdata", *cohort, "--format", "sft"],
            ["audit", *cohort, "--search-output", results],
        ]
        assert [main(argv + shared) for argv in argvs] == [0] * len(argvs)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
        # cache.jsonl is appended in completion order, so only its set of
        # lines is concurrency-independent today (ROADMAP open item 5).
        files["cache.jsonl"] = sorted(files["cache.jsonl"].splitlines())
        shutil.rmtree(out)
        return files, capsys.readouterr().out

    # Both runs use the same out-dir path, which the run manifests record.
    sequential = run_demo(1)
    assert "corpus_sft.manifest.json" in sequential[0]
    assert run_demo(4) == sequential


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demo")
DEMO_HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo_outputs.sha256")


def readme_demo_hashes() -> str:
    """Run the README demo sequence in the working directory; sha256sum lines.

    Relative paths and concurrency 1 keep every output byte, cache.jsonl and
    the recorded paths included, independent of where and how fast it runs.
    To re-record, from an empty directory with src/ and tests/ on PYTHONPATH:
    python -c "import test_cli; print(test_cli.readme_demo_hashes(), end='')"
    > <repo>/tests/demo_outputs.sha256
    """
    shutil.copytree(DEMO_DIR, "demo")
    cohort = ["--config", "demo/config.json", "--dataset", "demo/dataset.json",
              "--out-dir", "runs", "--concurrency", "1"]
    argvs = [
        ["search", *cohort],
        ["eval", *cohort, "--methods", "direct,vanilla,ep,fixed:64"],
        ["elasticity", "--config", "demo/config.json", "--out-dir", "runs",
         "--search-output", "runs/search_results.jsonl",
         "--estimates", "runs/records_ep.jsonl"],
        ["ptdata", *cohort, "--format", "dpo"],
        ["ptdata", *cohort, "--format", "sft"],
        ["audit", *cohort, "--search-output", "runs/search_results.jsonl"],
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert [main(argv) for argv in argvs] == [0] * len(argvs)
    outputs = {"<stdout>": stdout.getvalue().encode()}
    for name in sorted(os.listdir("runs")):
        with open(os.path.join("runs", name), "rb") as handle:
            outputs[f"runs/{name}"] = handle.read()
    return "".join(
        f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in outputs.items()
    )


def test_readme_demo_outputs_match_recorded_hashes(tmp_path, monkeypatch):
    """Every demo output, stdout included, is byte-identical to the recorded run.

    A change that alters an output on purpose updates demo_outputs.sha256
    and says why.
    """
    monkeypatch.chdir(tmp_path)
    with open(DEMO_HASHES) as handle:
        recorded = handle.read()
    assert readme_demo_hashes() == recorded


# ---------------------------------------------------------------------------
# Flag surface
# ---------------------------------------------------------------------------

SPEC_FLAGS = (
    "--config", "--dataset", "--out-dir", "--seed", "--sample-n", "--concurrency",
    "--baseline", "--alpha", "--k", "--multipliers", "--format",
)


@pytest.mark.parametrize("verb", ["eval", "search", "elasticity", "ptdata", "audit"])
def test_every_shared_flag_is_in_help(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for flag in SPEC_FLAGS:
        assert flag in text, f"{verb} --help is missing {flag}"


def test_top_level_help_lists_all_verbs(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for verb in ("eval", "search", "elasticity", "ptdata", "audit"):
        assert verb in text
