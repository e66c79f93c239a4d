"""CLI verbs: exit codes, output files, and flag surface."""

from __future__ import annotations

import csv
import json
import os
import shutil

import pytest

import tokenbudget.cli as cli
from tokenbudget.cli import main
from tokenbudget.errors import TransportError

from conftest import DEMO_SCENARIO, write_demo_files


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
