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

import tokenbudget.backend as backend
import tokenbudget.cli as cli
import tokenbudget.evaluate as evaluate
from tokenbudget.cli import main
from tokenbudget.errors import TransportError
from tokenbudget.prompting import Prompt, PromptKind
from tokenbudget.search import SearchRecord, search_optimal_budget

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_report_cells_are_the_aggregates_of_the_records(demo, monkeypatch, fmt):
    config, dataset, tmp = demo
    lost = DEMO_SCENARIO["questions"][1]["text"]
    request = backend.ScriptedBackend._request

    def flaky(self, prompt):
        if lost in prompt.user:
            raise TransportError("connection reset")
        return request(self, prompt)

    monkeypatch.setattr(backend.ScriptedBackend, "_request", flaky)
    out = str(tmp / "out")
    assert main(["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--methods", "direct,vanilla,ep,fixed:64", "--format", fmt]) == 2
    manifest = _read_json(os.path.join(out, "run_manifest.json"))
    by_method = {}
    for name in sorted(os.listdir(out)):
        if name.startswith("records_"):
            for record in _read_jsonl(os.path.join(out, name)):
                by_method.setdefault(record["method"], []).append(record)
    assert list(by_method) != [] and set(by_method) == set(manifest["methods"])

    def mean(records, key):
        return sum(r[key] for r in records) / len(records)

    graded = {method: [r for r in records if not r["failed"]]
              for method, records in by_method.items()}
    vanilla = mean(graded["vanilla"], "output_tokens")
    expected = [{
        "dataset": DEMO_SCENARIO["name"],
        "method": method,
        "accuracy_pct": round(100.0 * sum(r["correct"] for r in graded[method])
                              / len(graded[method]), 2),
        "output_tokens": round(mean(graded[method], "output_tokens"), 2),
        "expense_1e5_usd": round(mean(graded[method], "expense"), 2),
        "samples": len(graded[method]),
        "failed": len(by_method[method]) - len(graded[method]),
        "token_reduction_pct": None if method == "vanilla" else round(
            (1.0 - mean(graded[method], "output_tokens") / vanilla) * 100.0, 2),
    } for method in manifest["methods"]]
    assert [row["failed"] for row in expected] == [1, 1, 1, 1]

    if fmt == "json":
        document = _read_json(os.path.join(out, "report.json"))
        assert document == {"rows": expected, "model_id": manifest["model_id"],
                            "config_hash": manifest["config_hash"]}
    else:
        with open(os.path.join(out, "report.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [{key: "" if value is None else str(value) for key, value in row.items()}
                        for row in expected]


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


LIVE_CONFIG = {
    "backend": {
        "kind": "live",
        "endpoint": "http://127.0.0.1:1/v1/chat/completions",
        "model_id": "gpt-4o-mini",
        "credential_env": "TOKENBUDGET_TEST_KEY",
    },
    "pricing": [{"model_id": "gpt-4o-mini", "input_price": 0.15, "output_price": 0.60}],
}


def _live_config(directory, endpoint=LIVE_CONFIG["backend"]["endpoint"], **settings):
    """Write a live-backend config whose key is read from TOKENBUDGET_TEST_KEY; its path."""
    path = directory / "live.json"
    backend_section = dict(LIVE_CONFIG["backend"], endpoint=endpoint)
    path.write_text(json.dumps(dict(LIVE_CONFIG, backend=backend_section, **settings)))
    return str(path)


def test_live_payload_of_the_wrong_shape_fails_its_question(
        demo, http_server, monkeypatch, tmp_path):
    _, dataset, tmp = demo
    wrong = {"choices": [{"message": {"content": "The answer is 18."}}], "usage": "x"}
    server = http_server([(200, completion_payload()), (200, wrong), (200, completion_payload())])
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = str(tmp / "out")
    assert main(["eval", "--config", _live_config(tmp_path, server.endpoint, concurrency=1),
                 "--dataset", dataset, "--out-dir", out, "--methods", "vanilla"]) == 2
    records = _read_jsonl(os.path.join(out, "records_vanilla.jsonl"))
    assert [(r["question_id"], r["failed"]) for r in records] == [
        ("rebound", False), ("mono", True), ("wrong", False),
    ]


def test_live_config_sends_its_settings_and_retries_each_question(
        demo, http_server, monkeypatch, tmp_path):
    """config -> build_backend -> LiveBackend -> HTTP, against a local endpoint."""
    _, dataset, tmp = demo
    answer = (200, completion_payload())
    # At concurrency 1 the vanilla calls go rebound, mono, wrong; mono is
    # answered 503 on both of its attempts.
    server = http_server([answer, (503, {}), (503, {}), answer])
    live_config = _live_config(
        tmp_path, server.endpoint,
        sampling={"temperature": 0.3, "seed": 7},
        retry={"max_attempts": 2, "initial_backoff": 0.01},
        concurrency=1,
    )
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = str(tmp / "out")
    assert main(["eval", "--config", live_config, "--dataset", dataset,
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


# A reader verb's search results: those of a real search of the demo, the
# lines given, or (None) no file at all.
_DEMO_SEARCH = "demo"


DEMO_DATASET = json.dumps(DEMO_SCENARIO)


def _refusal(id, problem, config=None, dataset=DEMO_DATASET, flags=(), verb="search",
             api_key=None, search=_DEMO_SEARCH):
    return pytest.param(verb, config or _config(), dataset, list(flags), api_key, search, problem,
                        id=id)


def _config_refusal(id, problem, **changes):
    return _refusal(id, f"config.json: {problem}", config=_config(**changes))


def _flag_refusal(verb, flag, value, problem):
    return _refusal(f"{verb}-{flag}-{value}", f"{flag}{problem}", verb=verb, flags=[flag, value])


_LIVE = json.dumps(LIVE_CONFIG)
_LIVE_NO_ENDPOINT = {"kind": "live", "model_id": "m", "credential_env": "KEY"}
_FIXED_N = ": the budget of fixed:N must be an integer >= 1"
_NOT_POSITIVE = " must be finite and > 0, got "
_OVER_THREE = " must be from 1 to 3, got "
_NO_FILE = ": [Errno 2] No such file or directory: 'nope.jsonl'"
_NO_QUESTIONS = "dataset.json: the dataset holds no questions"
_SEARCH_LINES = [json.dumps({"question_id": qid, "status": "vanilla_incorrect", "upper_bound": 80})
                 + "\n" for qid in ("rebound", "mono")]
_FOUND = {"question_id": "rebound", "status": "found", "target_output": "The answer is 18.",
          "trace": [{"budget": 256, "output_tokens": 130, "correct": True},
                    {"budget": 128, "output_tokens": 120, "correct": True}]}
# (id, search_results.jsonl, problem) of a record that a reader verb refuses.
_BAD_SEARCH_RECORDS = [
    ("found-record-with-a-budget-it-lacks",
     json.dumps(dict(_FOUND, optimal_budget=100, upper_bound=256)) + "\n",
     "found record 'rebound' has optimal_budget 100, not its upper_bound or a trace budget"),
    ("upper-bound-not-an-integer",
     json.dumps(dict(_FOUND, optimal_budget=256, upper_bound=256.0)) + "\n",
     "upper_bound must be an integer, got 256.0"),
    ("found-record-without-a-target",
     json.dumps(dict(_FOUND, optimal_budget=256, upper_bound=256, target_output=None)) + "\n",
     "found record 'rebound' has target_output None, not a non-empty string"),
]


# Every refusal that main can reach before a request: each exits 1 with an
# error that opens by naming the file, flag or config key at fault, leaves
# the out-dir as it was (absent, or holding only the search ptdata reads)
# and sends nothing upstream.
@pytest.mark.parametrize("verb, config, dataset, flags, api_key, search, problem", [
    # The config.
    _refusal("config-file-missing", "--config: [Errno 2] No such file or directory: 'nope.json'",
             flags=["--config", "nope.json"]),
    _refusal("config-not-json", "config.json: invalid JSON", config='{"backend": '),
    _config_refusal("unknown-backend-kind",
                    "backend.kind must be 'live' or 'scripted', got 'remote'",
                    backend={"kind": "remote"}),
    _config_refusal("live-without-endpoint", "live backend requires backend.endpoint",
                    backend=_LIVE_NO_ENDPOINT),
    _config_refusal("endpoint-without-scheme",
                    "backend.endpoint 'localhost:9/v1/chat/completions': not an http",
                    backend=dict(_LIVE_NO_ENDPOINT, endpoint="localhost:9/v1/chat/completions")),
    _config_refusal("config-concurrency-0", "concurrency must be >= 1, got 0", concurrency=0),
    _config_refusal("config-concurrency-a-float", "concurrency must be an integer, got 2.9",
                    concurrency=2.9),
    _config_refusal("config-seed-a-string", 'seed must be an integer, got "7"', seed="7"),
    _config_refusal("sampling-seed-a-bool", "sampling.seed must be an integer, got true",
                    sampling={"seed": True}),
    _config_refusal("negative-temperature", "temperature must be >= 0 and finite, got -1.0",
                    sampling={"temperature": -1}),
    _config_refusal("temperature-beyond-a-float",
                    "sampling.temperature: int too large to convert to float",
                    sampling={"temperature": 10 ** 400}),
    _config_refusal("nan-temperature", "temperature must be >= 0 and finite, got nan",
                    sampling={"temperature": float("nan")}),
    _config_refusal("infinite-temperature", "temperature must be >= 0 and finite, got inf",
                    sampling={"temperature": float("inf")}),
    _config_refusal("nan-retry-backoff", "initial_backoff must be >= 0 and finite, got nan",
                    retry={"initial_backoff": float("nan")}),
    _config_refusal("retry-without-attempts", "max_attempts must be >= 1",
                    retry={"max_attempts": 0}),
    _config_refusal("negative-retry-jitter", "jitter must be >= 0 and finite, got -0.5",
                    retry={"jitter": -0.5}),
    _config_refusal("unknown-top-level-key", "unknown config key 'concurency'", concurency=2),
    _config_refusal("removed-rate-limit", "unknown config key 'rate_limit'",
                    rate_limit={"rate": 8.0, "burst": 8}),
    _config_refusal("removed-script-path", "unknown config key 'backend.script_path'",
                    backend={"kind": "scripted", "script_path": "fixture.json"}),
    _config_refusal("unknown-sampling-key", "unknown config key 'sampling.temprature'",
                    sampling={"temprature": 0.2}),
    _config_refusal("unknown-retry-key", "unknown config key 'retry.max_attemps'",
                    retry={"max_attemps": 2}),
    _config_refusal("unknown-pricing-key", "unknown config key 'pricing[0].currency'",
                    pricing=[{"model_id": "m", "input_price": 1, "output_price": 2,
                              "currency": "usd"}]),
    _config_refusal("pricing-row-without-output-price",
                    "pricing[0]: ModelPricing.__init__() missing 1 required positional "
                    "argument: 'output_price'",
                    pricing=[{"model_id": "m", "input_price": 1}]),
    _config_refusal("nan-price", "pricing[0]: input_price must be >= 0 and finite, got nan",
                    pricing=[{"model_id": "scripted-v1", "input_price": float("nan"),
                              "output_price": 0.6}]),
    _config_refusal("infinite-price", "pricing[0]: output_price must be >= 0 and finite, got inf",
                    pricing=[{"model_id": "scripted-v1", "input_price": 0.15,
                              "output_price": float("inf")}]),
    _refusal("eval-without-pricing", "no pricing entry for model 'scripted-v1'",
             config=_config(pricing=[]), verb="eval"),
    _config_refusal("suffix-with-another-field", "budgeted_suffix needs exactly one replacement "
                    "field, {budget}, got 'Use at most {tokens} tokens:'",
                    templates={"budgeted_suffix": "Use at most {tokens} tokens:"}),
    _config_refusal("suffix-without-budget", "budgeted_suffix needs exactly one replacement "
                    "field, {budget}, got 'Be brief:'",
                    templates={"budgeted_suffix": "Be brief:"}),
    _config_refusal("unknown-template-key", "unknown config key 'templates.nonsense'",
                    templates={"nonsense": "x"}),
    _config_refusal("template-not-a-string", "templates.system must be a string, got 5",
                    templates={"system": 5}),
    # The credential of a live backend; a key is never echoed.
    _refusal("live-credential-unset", "backend.credential_env: 'TOKENBUDGET_TEST_KEY' is not set",
             config=_LIVE, verb="eval"),
    _refusal("live-api-key-with-a-line-break", "API key holds a control character",
             config=_LIVE, verb="eval", api_key="sk-secret\r\nX-Injected: 1"),
    # The dataset.
    _refusal("cohort-verb-without-dataset", "this command requires --dataset", dataset=None),
    _refusal("fixture-file-missing", "--dataset: [Errno 2] No such file or directory: 'nope.json'",
             dataset=None, flags=["--dataset", "nope.json"]),
    _refusal("gsm8k-file-missing", "--dataset: [Errno 2] No such file or directory: 'nope.json'",
             config=_LIVE, dataset=None, verb="eval", api_key="sk-from-env",
             flags=["--dataset", "nope.json", "--dataset-format", "gsm8k_jsonl"]),
    _refusal("fixture-not-json", "dataset.json: invalid JSON", dataset='{"questions": ['),
    _refusal("fixture-question-without-text", "bad question at dataset.json questions[0]: 'text'",
             dataset=json.dumps({"questions": [{"id": "q", "gold_answer": "1"}]})),
    _refusal("fixture-entry-without-output-tokens",
             "bad scripted entry at dataset.json questions[0].vanilla: 'output_tokens'",
             dataset=json.dumps({"questions": [{"id": "q", "text": "Q?", "gold_answer": "1",
                                                "behavior": {"vanilla": {"correct": True}}}]})),
    *[_refusal(f"{verb}-over-an-empty-fixture", _NO_QUESTIONS, verb=verb,
               dataset=json.dumps({"questions": []}))
      for verb in ("search", "eval", "ptdata", "audit")],
    _refusal("live-eval-over-an-empty-gsm8k-file", _NO_QUESTIONS, config=_LIVE, dataset="",
             flags=["--dataset-format", "gsm8k_jsonl"], verb="eval", api_key="sk-from-env"),
    # The flags.
    _refusal("flag-concurrency-0", "--concurrency must be >= 1, got 0",
             flags=["--concurrency", "0"]),
    _flag_refusal("eval", "--alpha", "0", f"{_NOT_POSITIVE}0.0"),
    _flag_refusal("eval", "--alpha", "-1", f"{_NOT_POSITIVE}-1.0"),
    _flag_refusal("eval", "--alpha", "nan", f"{_NOT_POSITIVE}nan"),
    _flag_refusal("eval", "--alpha", "inf", f"{_NOT_POSITIVE}inf"),
    _flag_refusal("eval", "--methods", "direct,fixed:0", f": 'fixed:0'{_FIXED_N}"),
    _flag_refusal("eval", "--methods", "direct,fixed:abc", f": 'fixed:abc'{_FIXED_N}"),
    _flag_refusal("eval", "--methods", "fixed:2.5", f": 'fixed:2.5'{_FIXED_N}"),
    _flag_refusal("audit", "--multipliers", "0.5,inf", f"{_NOT_POSITIVE}inf"),
    _flag_refusal("audit", "--multipliers", "nan", f"{_NOT_POSITIVE}nan"),
    _flag_refusal("audit", "--multipliers", "1,0", f"{_NOT_POSITIVE}0.0"),
    _flag_refusal("audit", "--multipliers", "1,two", ": could not convert string to float: 'two'"),
    _flag_refusal("search", "--sample-n", "0", f"{_OVER_THREE}0"),
    _flag_refusal("search", "--sample-n", "-1", f"{_OVER_THREE}-1"),
    _flag_refusal("eval", "--sample-n", "0", f"{_OVER_THREE}0"),
    _flag_refusal("search", "--sample-n", "9", f"{_OVER_THREE}9"),
    _flag_refusal("eval", "--sample-n", "4", f"{_OVER_THREE}4"),
    # The files a reader verb reads back: ptdata reads the search in its out-dir.
    _flag_refusal("audit", "--search-output", "nope.jsonl", _NO_FILE),
    _flag_refusal("elasticity", "--search-output", "nope.jsonl", _NO_FILE),
    _flag_refusal("elasticity", "--estimates", "nope.jsonl", _NO_FILE),
    _refusal("ptdata-without-a-search", "--out-dir: [Errno 2] No such file or directory: "
             "'out/search_results.jsonl'", verb="ptdata", search=None),
    _refusal("ptdata-over-a-torn-search", "--out-dir: out/search_results.jsonl: line 2: "
             "malformed JSON", verb="ptdata", search=_SEARCH_LINES[0] + '{"question_id": "mo'),
    _refusal("ptdata-search-without-a-cohort-question",
             "--out-dir: out/search_results.jsonl: no search record for 'wrong'",
             verb="ptdata", search=_SEARCH_LINES[0] + _SEARCH_LINES[1]),
    *[_refusal(f"{verb}-{name}", f"{where}: line 1: {problem}", verb=verb, search=line)
      for verb, where in (("audit", "--search-output: search/search_results.jsonl"),
                          ("elasticity", "--search-output: search/search_results.jsonl"),
                          ("ptdata", "--out-dir: out/search_results.jsonl"))
      for name, line, problem in _BAD_SEARCH_RECORDS],
])
def test_bad_input_is_fatal_and_names_the_problem(tmp_path, capsys, monkeypatch, verb, config,
                                                  dataset, flags, api_key, search, problem):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(config)
    argv = [verb, "--config", "config.json", "--out-dir", "out", *flags]
    if dataset is not None:
        (tmp_path / "dataset.json").write_text(dataset)
        argv += ["--dataset", "dataset.json"]
    if verb in ("audit", "elasticity", "ptdata") and "--search-output" not in flags:
        # Search results, by default real ones, so that a reader the flags do
        # not stop would send requests.
        where = "out" if verb == "ptdata" else "search"
        if search == _DEMO_SEARCH:
            (tmp_path / "demo").mkdir()
            demo_config, demo_dataset = write_demo_files(tmp_path / "demo")
            assert main(["search", "--config", demo_config, "--dataset", demo_dataset,
                         "--out-dir", where]) == 0
        elif search is not None:
            (tmp_path / where).mkdir()
            (tmp_path / where / "search_results.jsonl").write_text(search)
        if verb != "ptdata":
            argv += ["--search-output", f"{where}/search_results.jsonl"]
    before = _tree(tmp_path / "out")
    if api_key is None:
        monkeypatch.delenv("TOKENBUDGET_TEST_KEY", raising=False)
    else:
        monkeypatch.setenv("TOKENBUDGET_TEST_KEY", api_key)
    requests = []
    for backend_class in (backend.ScriptedBackend, backend.LiveBackend):
        monkeypatch.setattr(backend_class, "_request",
                            lambda self, *request: requests.append(request))
    capsys.readouterr()
    assert main(argv) == 1
    error = capsys.readouterr().err
    assert error.startswith(f"error: {problem}"), error
    assert "sk-secret" not in error
    assert _tree(tmp_path / "out") == before
    assert requests == []


def _tree(root):
    """Every file under root with its bytes; None when there is no root."""
    if not root.exists():
        return None
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_an_integral_temperature_keeps_the_fingerprint_of_its_float(tmp_path):
    fingerprints = []
    for temperature in (1, 1.0):
        path = tmp_path / f"config_{temperature!r}.json"
        path.write_text(_config(sampling={"temperature": temperature}))
        sampling = cli.load_config(str(path)).sampling
        assert type(sampling.temperature) is float
        fingerprints.append(backend.request_fingerprint(Prompt("system", "user"), sampling))
    assert fingerprints[0] == fingerprints[1]


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


def test_search_writes_the_records_the_search_returns(demo):
    config, dataset, tmp = demo
    out = tmp / "out"
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", str(out)]) == 0
    scenario = backend.parse_scripted_file(dataset)
    fresh = backend.ScriptedBackend(scenario)
    returned = [search_optimal_budget(fresh, question) for question in scenario.questions]
    assert evaluate.read_jsonl(str(out / "search_results.jsonl"), SearchRecord) == returned
    assert (out / "search_results.jsonl").read_text() == "".join(
        record.line() + "\n" for record in returned)


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
    assert f"error: --search-output: {torn}: line 3: " in capsys.readouterr().err

    records = [json.loads(line) for line in lines]
    assert records[0]["status"] == "found"
    del records[0]["optimal_budget"]
    incomplete = tmp / "incomplete.jsonl"
    incomplete.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert main(["audit", "--config", config, "--dataset", dataset, "--out-dir", str(tmp / "a"),
                 "--search-output", str(incomplete)]) == 1
    error = capsys.readouterr().err
    assert f"error: --search-output: {incomplete}: " in error and "optimal_budget" in error


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
    assert error.startswith(f"error: {flag}: {bad}: line 2: ") and problem in error, error


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


def _searched_out(config, dataset, tmp):
    """An out-dir holding the demo's search results, where ptdata reads them."""
    out = str(tmp / "out")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", out]) == 0
    return out


def test_ptdata_sft_corpus(demo):
    config, dataset, tmp = demo
    out = _searched_out(config, dataset, tmp)
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
    out = _searched_out(config, dataset, tmp)
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "dpo"]) == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_dpo.jsonl"))
    for record in corpus:
        assert record["meta"]["positive_tokens"] < record["meta"]["negative_tokens"]


def test_ptdata_budgeted_input_flag(demo):
    config, dataset, tmp = demo
    out = _searched_out(config, dataset, tmp)
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "sft", "--pt-input", "budgeted"]) == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_sft.jsonl"))
    assert all("use less than" in r["input"] for r in corpus)


def test_ptdata_after_search_sends_nothing_upstream(demo, monkeypatch):
    """SFT makes no backend call; the one DPO ask per question is a cache hit."""
    config, dataset, tmp = demo
    out = _searched_out(config, dataset, tmp)
    completions, requests = [], []
    real = backend.CompletionBackend.complete

    def complete(self, prompt):
        completions.append(prompt)
        return real(self, prompt)

    monkeypatch.setattr(backend.CompletionBackend, "complete", complete)
    monkeypatch.setattr(backend.ScriptedBackend, "_request",
                        lambda self, prompt: requests.append(prompt))
    cohort = ["--config", config, "--dataset", dataset, "--out-dir", out]
    assert main(["ptdata", *cohort, "--format", "sft"]) == 0
    assert completions == []
    assert main(["ptdata", *cohort, "--format", "dpo"]) == 0
    assert len(completions) == 2  # the vanilla asks of rebound and mono
    assert requests == []


def _tampered_search(config, dataset, tmp, monkeypatch, **changes):
    """The demo's search in out/, rebound's record changed; requests are refused from here on."""
    out = _searched_out(config, dataset, tmp)
    path = os.path.join(out, "search_results.jsonl")
    records = _read_jsonl(path)
    assert records[0]["question_id"] == "rebound" and records[0]["status"] == "found"
    records[0].update(changes)
    with open(path, "w") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)
    requests = []
    monkeypatch.setattr(backend.ScriptedBackend, "_request",
                        lambda self, prompt: requests.append(prompt))
    return out, path, requests


@pytest.mark.parametrize("fmt", ["sft", "dpo"])
def test_ptdata_refuses_a_found_record_without_a_target_before_asking(demo, monkeypatch,
                                                                      capsys, fmt):
    config, dataset, tmp = demo
    out, path, requests = _tampered_search(config, dataset, tmp, monkeypatch, target_output=None)
    capsys.readouterr()
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", fmt]) == 1
    assert capsys.readouterr().err == (
        f"error: --out-dir: {path}: line 1: found record 'rebound' has target_output None, "
        "not a non-empty string\n")
    assert requests == []
    assert not os.path.exists(os.path.join(out, f"corpus_{fmt}.jsonl"))


@pytest.mark.parametrize("fmt", ["sft", "dpo"])
def test_ptdata_names_the_question_whose_target_no_longer_grades(demo, monkeypatch, capsys, fmt):
    config, dataset, tmp = demo
    out, _, requests = _tampered_search(config, dataset, tmp, monkeypatch,
                                        target_output="The answer is 999.")
    capsys.readouterr()
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", fmt]) == 1
    assert capsys.readouterr().err == (
        "error: record 0 ('rebound') target no longer grades correct\n")
    assert requests == []
    assert not os.path.exists(os.path.join(out, f"corpus_{fmt}.jsonl"))


def test_ptdata_search_error_record_is_a_skip_and_exits_2(demo, monkeypatch):
    config, dataset, tmp = demo
    real = cli.search_optimal_budget

    def flaky(backend, question, **kwargs):
        if question.id == "mono":
            raise TransportError("interrupted")
        return real(backend, question, **kwargs)

    monkeypatch.setattr(cli, "search_optimal_budget", flaky)
    out = str(tmp / "out")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", out]) == 2
    for fmt in ("sft", "dpo"):
        assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                     "--format", fmt]) == 2
        manifest = _read_json(os.path.join(out, f"corpus_{fmt}.manifest.json"))
        assert manifest["counts"]["skipped"] == {
            "backend_error: interrupted": 1,
            "vanilla_incorrect": 1,
        }


def test_ptdata_backend_failure_is_a_skip_and_exits_2(demo, monkeypatch):
    config, dataset, tmp = demo
    out = _searched_out(config, dataset, tmp)
    real = cli.build_preference_pair

    def flaky(backend, question, *args):
        if question.id == "mono":
            raise TransportError("interrupted")
        return real(backend, question, *args)

    monkeypatch.setattr(cli, "build_preference_pair", flaky)
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "dpo"]) == 2
    manifest = _read_json(os.path.join(out, "corpus_dpo.manifest.json"))
    assert manifest["counts"]["skipped"] == {
        "backend_error: interrupted": 1,
        "vanilla_incorrect": 1,
    }


def test_ptdata_ignores_search_records_outside_its_cohort(demo):
    config, dataset, tmp = demo
    out = _searched_out(config, dataset, tmp)
    # --sample-n 1 --seed 3 draws the cohort {rebound}.
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "sft", "--sample-n", "1", "--seed", "3"]) == 0
    corpus = _read_jsonl(os.path.join(out, "corpus_sft.jsonl"))
    assert [r["meta"]["question_id"] for r in corpus] == ["rebound"]
    manifest = _read_json(os.path.join(out, "run_manifest.json"))
    assert "baseline" not in manifest and manifest["sample_n"] == 1


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
# Set-up and cache identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("verb", ["search", "eval", "ptdata", "audit"])
def test_each_cohort_verb_parses_the_fixture_once(demo, verb, monkeypatch):
    config, dataset, tmp = demo
    search_out = str(tmp / "search")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", search_out]) == 0

    parses = []
    real = backend.parse_scripted_file

    def counting(path):
        parses.append(path)
        return real(path)

    for module in (backend, cli, evaluate):
        monkeypatch.setattr(module, "parse_scripted_file", counting)
    # ptdata reads the search in its out-dir.
    out = search_out if verb == "ptdata" else str(tmp / "out")
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", out]
    if verb == "audit":
        argv += ["--search-output", os.path.join(search_out, "search_results.jsonl")]
    assert main(argv) == 0
    assert parses == [dataset]


def test_build_backend_parses_the_fixture_when_given_only_its_path(demo):
    config, dataset, tmp = demo
    scripted = cli.build_backend(cli.load_config(config), str(tmp / "out"), dataset)
    question = evaluate.load_dataset(dataset, "scripted_json").questions[0]
    assert scripted.ask(question, PromptKind.VANILLA_COT).usage.output_tokens == 256
    assert scripted.upstream_calls == 1
    assert len((tmp / "out" / "cache.jsonl").read_bytes().splitlines()) == 1


def test_a_changed_model_id_sends_every_request_upstream(demo, monkeypatch):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    requests = []
    real = backend.ScriptedBackend._request

    def counting(self, prompt):
        requests.append(self.model_id)
        return real(self, prompt)

    monkeypatch.setattr(backend.ScriptedBackend, "_request", counting)
    other = tmp / "other.json"
    other.write_text(_config(backend={"kind": "scripted", "model_id": "other-model"}))

    def search(config_path):
        assert main(["search", "--config", config_path, "--dataset", dataset,
                     "--out-dir", out]) == 0
        return _read_jsonl(os.path.join(out, "search_results.jsonl"))

    records = search(config)
    issued = len(requests)
    assert issued > 0
    assert search(config) == records and len(requests) == issued
    # The model is not part of the request fingerprint, so the records are
    # the same; every request went upstream to the other model all the same.
    assert search(str(other)) == records
    assert requests == ["scripted-v1"] * issued + ["other-model"] * issued
    assert search(str(other)) == records and len(requests) == 2 * issued
    lines = _read_jsonl(os.path.join(out, "cache.jsonl"))
    assert [line["outcome"]["model_id"] for line in lines] == requests
    assert len({line["backend"] for line in lines}) == 2


# ---------------------------------------------------------------------------
# Failure policy
_GOOD_QUESTION = {"id": "q0", "text": "Q?", "gold_answer": "1",
                  "behavior": {"vanilla": {"output_tokens": 5}}}


@pytest.mark.parametrize("fixture, item, problem", [
    pytest.param([_GOOD_QUESTION], None, "must be a JSON object, got list", id="top-level-list"),
    pytest.param({"questions": [_GOOD_QUESTION, ["q1", "Q?"]]}, "questions[1]",
                 "must be a JSON object, got list", id="question-a-list"),
    pytest.param({"questions": [dict(_GOOD_QUESTION, text=5)]}, "questions[0]",
                 "text must be a string, got 5", id="text-a-number"),
    pytest.param({"questions": [dict(_GOOD_QUESTION, behavior={
        "vanilla": {"output_tokens": 5}, "budgets": {"ten": {"output_tokens": 3}}})]},
                 "questions[0]", "invalid literal for int()", id="budget-key-not-a-number"),
    pytest.param({"questions": [dict(_GOOD_QUESTION, behavior=[{"output_tokens": 5}])]},
                 "questions[0]", "must be a JSON object, got list", id="behavior-a-list"),
    pytest.param({"questions": [dict(_GOOD_QUESTION, behavior={
        "vanilla": {"output_tokens": 5, "text": ["The answer is 1."]}})]},
                 "questions[0].vanilla", "text must be a string", id="entry-text-a-list"),
    pytest.param({"questions": [dict(_GOOD_QUESTION, behavior={
        "vanilla": {"output_tokens": float("inf")}})]},
                 "questions[0].vanilla", "cannot convert float infinity to integer",
                 id="entry-tokens-infinite"),
])
def test_fixture_of_the_wrong_shape_is_one_error_naming_the_file_and_item(
        tmp_path, capsys, fixture, item, problem):
    config_path, dataset_path = tmp_path / "config.json", tmp_path / "fixture.json"
    config_path.write_text(_config())
    dataset_path.write_text(json.dumps(fixture))
    assert main(["search", "--config", str(config_path), "--dataset", str(dataset_path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and error.count("\n") == 1, error
    assert str(dataset_path) in error and problem in error, error
    assert item is None or f"{dataset_path} {item}" in error, error
    assert "Traceback" not in error


@pytest.mark.parametrize("fmt, content, item, problem", [
    pytest.param("mathbench_json", json.dumps([{"question": "Pick: A. 1", "answer": "A"},
                                               ["q", "A"]]),
                 "item 2", "not a JSON object", id="mathbench-item-a-list"),
    pytest.param("mathbench_json", json.dumps([{"question": 5, "answer": "A"}]),
                 "item 1", "question must be a string, got 5", id="mathbench-question-a-number"),
    pytest.param("gsm8k_jsonl", json.dumps({"question": 5, "answer": "x #### 3"}) + "\n",
                 "line 1", "question must be a string, got 5", id="gsm8k-question-a-number"),
    pytest.param("gsm8k_jsonl", json.dumps({"question": "Q?", "answer": "x #### 3"}) + "\n"
                 + json.dumps({"question": "Q?", "answer": 5}) + "\n",
                 "line 2", "answer must be a string, got 5", id="gsm8k-answer-a-number"),
])
def test_dataset_item_of_the_wrong_shape_is_one_error_naming_the_file_and_item(
        tmp_path, capsys, fmt, content, item, problem):
    config_path, dataset_path = tmp_path / "config.json", tmp_path / "dataset"
    config_path.write_text(_config())
    dataset_path.write_text(content)
    assert main(["eval", "--config", str(config_path), "--dataset", str(dataset_path),
                 "--dataset-format", fmt, "--out-dir", str(tmp_path / "out")]) == 1
    error = capsys.readouterr().err
    assert error == f"error: {dataset_path}: {item}: {problem}\n", error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt, content", [
    pytest.param("gsm8k_jsonl", json.dumps({"question": "Q1?", "answer": "x #### 3"}) + "\n"
                 + json.dumps({"question": "Q2?", "answer": "y #### 4"}) + "\n", id="gsm8k"),
    pytest.param("mathbench_json", json.dumps([{"question": "Pick: A. 1", "answer": "A"}]),
                 id="mathbench"),
])
def test_scripted_backend_refuses_a_dataset_format_other_than_its_fixture(
        tmp_path, capsys, monkeypatch, fmt, content):
    requests = []
    monkeypatch.setattr(backend.ScriptedBackend, "_request",
                        lambda self, prompt: requests.append(prompt))
    config_path, dataset_path = tmp_path / "config.json", tmp_path / "dataset"
    config_path.write_text(_config())
    dataset_path.write_text(content)
    assert main(["eval", "--config", str(config_path), "--dataset", str(dataset_path),
                 "--dataset-format", fmt, "--out-dir", str(tmp_path / "out")]) == 1
    error = capsys.readouterr().err
    assert error == (f"error: --dataset-format {fmt}: the scripted backend needs a "
                     f"scripted_json fixture\n"), error
    assert not (tmp_path / "out").exists() and requests == []


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
    if verb == "ptdata":
        # The search's records without its cache: the DPO vanilla asks go upstream.
        (tmp / "out").mkdir()
        shutil.copy(os.path.join(search_out, "search_results.jsonl"), tmp / "out")
        argv += ["--format", "dpo"]
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


@pytest.mark.parametrize("verb, wrong", [("search", "csv"), ("elasticity", "csv"), ("audit", "yaml")])
def test_a_format_the_verb_does_not_write_is_a_usage_error(demo, capsys, verb, wrong):
    config, dataset, tmp = demo
    out = tmp / "out"
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", str(out)]
    if verb in ("elasticity", "audit"):
        argv += ["--search-output", str(tmp / "search_results.jsonl")]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--format", wrong])
    assert excinfo.value.code == 2
    assert f"argument --format: invalid choice: '{wrong}'" in capsys.readouterr().err
    assert not out.exists()


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
