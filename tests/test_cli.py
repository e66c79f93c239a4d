"""CLI verbs: exit codes, output files, and flag surface."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import socket

import pytest

import tokenbudget.backend as backend
import tokenbudget.cli as cli
import tokenbudget.evaluate as evaluate
import tokenbudget.ptdata as ptdata
from tokenbudget.cli import main
from tokenbudget.errors import TransportError
from tokenbudget.jsonstream import WINDOW
from tokenbudget.prompting import Prompt, PromptKind
from tokenbudget.search import SearchRecord, search_optimal_budget

from conftest import (
    DEMO_CONFIG,
    DEMO_SCENARIO,
    completion_payload,
    count_misses,
    main_refuses,
    make_backend,
    shuffle_completions,
    write_demo_files,
)


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_report_is_rebuilt_from_the_written_records(demo, capsys, fmt):
    config, dataset, tmp = demo
    out = str(tmp / "out")
    methods = "direct,vanilla,ep,fixed:64"
    assert main(["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--methods", methods, "--format", fmt]) == 0
    manifest = _read_json(os.path.join(out, "run_manifest.json"))
    runs = []
    for method in [evaluate.parse_method(token, 1.0) for token in methods.split(",")]:
        path = os.path.join(out, f"records_{method.slug}.jsonl")
        runs.append((method, evaluate.read_jsonl(path, evaluate.SampleRecord.read)))
    rebuilt = {form: evaluate.render_report(runs, DEMO_SCENARIO["name"], manifest["model_id"],
                                            form, manifest["config_hash"])
               for form in (fmt, "table_text")}
    with open(os.path.join(out, f"report.{fmt}"), encoding="utf-8") as handle:
        assert handle.read() == rebuilt[fmt]
    assert capsys.readouterr().out == rebuilt["table_text"]


def test_eval_partial_sample_failures_exit_2(demo, monkeypatch):
    config, dataset, tmp = demo
    real = cli.run_method

    def flaky(backend, dataset_obj, method, pricing, **kwargs):
        records = real(backend, dataset_obj, method, pricing, **kwargs)
        records[0].failed = True
        records[0].error = "injected"
        return records

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


@pytest.mark.parametrize("reply, failed, error", [
    pytest.param((200, "this is not json"), True, "malformed completion payload", id="not-json"),
    pytest.param((200, {"choices": [{"message": {"content": 123}}]}), True,
                 "choices[0].message.content must be a string or null", id="content-a-number"),
    pytest.param((200, {"choices": [{"message": {"content": "18"}}],
                        "usage": {"prompt_tokens": 1, "completion_tokens": -5}}), True,
                 "usage.completion_tokens must be a non-negative integer", id="count-negative"),
    pytest.param((400, {"error": "bad request"}), True, "unexpected HTTP 400", id="client-error"),
    pytest.param((429, {}), True, "rate limited (HTTP 429) after retries", id="rate-limited"),
    pytest.param((204, ""), True, "unexpected HTTP 204", id="no-content"),
    pytest.param((200, {"choices": [{"message": {"content": None}}], "usage": None}), False, None,
                 id="null-content-and-usage"),
])
def test_a_live_reply_the_client_cannot_use_fails_only_its_question(
        demo, http_server, monkeypatch, tmp_path, reply, failed, error):
    _, dataset, tmp = demo
    server = http_server([(200, completion_payload()), reply, (200, completion_payload())])
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = tmp / "out"
    config = _live_config(tmp_path, server.endpoint, concurrency=1, retry={"max_attempts": 1})
    assert main(["eval", "--config", config, "--dataset", dataset, "--out-dir", str(out),
                 "--methods", "vanilla"]) == (2 if failed else 0)
    records = _read_jsonl(out / "records_vanilla.jsonl")
    assert [r["failed"] for r in records] == [False, failed, False]
    if error is None:
        assert records[1]["error"] is None
    else:
        assert error in records[1]["error"]


def test_a_live_endpoint_that_refuses_connections_fails_every_question(
        demo, monkeypatch, tmp_path):
    _, dataset, tmp = demo
    with socket.socket() as listener:  # a port that nothing listens on once it closes
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = tmp / "out"
    config = _live_config(tmp_path, f"http://127.0.0.1:{port}/v1/chat/completions",
                          retry={"max_attempts": 1})
    assert main(["eval", "--config", config, "--dataset", dataset, "--out-dir", str(out),
                 "--methods", "vanilla", "--format", "json"]) == 2
    records = _read_jsonl(out / "records_vanilla.jsonl")
    assert all(r["failed"] and r["error"].startswith("request failed: ") for r in records)
    row, = _read_json(out / "report.json")["rows"]
    assert (row["samples"], row["failed"], row["accuracy_pct"], row["output_tokens"]) == (
        0, 3, 0.0, 0.0)


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_live_requests_go_through_the_proxy_of_the_environment(
        demo, http_server, monkeypatch, tmp_path, scheme):
    _, dataset, tmp = demo
    # A plain HTTP proxy is sent each request; an HTTPS one is asked for a
    # tunnel, which this one refuses (501), so every question fails.
    proxy = http_server([(200, completion_payload())] * 3)
    upstream = http_server([])
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    host, port = proxy.server.server_address
    monkeypatch.setenv(f"{scheme}_proxy", f"{host}:{port}")
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    endpoint = upstream.endpoint.replace("http://", f"{scheme}://")
    out = tmp / "out"
    config = _live_config(tmp_path, endpoint, concurrency=1, retry={"max_attempts": 1})
    code = main(["eval", "--config", config, "--dataset", dataset, "--out-dir", str(out),
                 "--methods", "vanilla"])
    records = _read_jsonl(out / "records_vanilla.jsonl")
    assert upstream.server.accepts == 0
    if scheme == "http":
        assert code == 0 and not any(r["failed"] for r in records)
        assert [sent["path"] for sent in proxy.requests] == [endpoint] * 3
    else:
        assert code == 2 and all("Tunnel connection failed" in r["error"] for r in records)
        assert proxy.requests == [] and proxy.server.accepts == 3


def test_live_ep_reads_every_reply_framing_and_counts_a_missing_usage(
        demo, raw_server, monkeypatch, tmp_path):
    _, dataset, tmp = demo
    answer = json.dumps(completion_payload()).encode()
    bare = json.dumps(completion_payload(usage=False)).encode()
    half = len(answer) // 2
    sized = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(answer), answer)
    # At concurrency 1 the replies go to rebound's estimate and answer, then
    # mono's, then wrong's.
    server = raw_server([
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x;name=value\r\n%s\r\n"
        b"%x\r\n%s\r\n0\r\nX-Trailer: yes\r\n\r\n"
        % (half, answer[:half], len(answer) - half, answer[half:]),
        (b"HTTP/1.0 200 OK\r\n\r\n" + bare, "close"),
        b"HTTP/1.1 200 OK\r\nContent-Length: %d, %d\r\n\r\n%s" % (len(bare), len(bare), bare),
        sized, sized, sized,
    ])
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-from-env")
    out = tmp / "out"
    assert main(["eval", "--config", _live_config(tmp_path, server.endpoint, concurrency=1),
                 "--dataset", dataset, "--out-dir", str(out), "--methods", "ep",
                 "--include-estimation-tokens"]) == 0
    assert server.posts == 6
    records = _read_jsonl(out / "records_ep.jsonl")
    sources = [(r["usage_breakdown"]["estimation"]["counting_source"],
                r["usage_breakdown"]["answer"]["counting_source"]) for r in records]
    assert sources == [("provider_reported", "local_approximation"),
                       ("local_approximation", "provider_reported"),
                       ("provider_reported", "provider_reported")]
    # Without usage, the answer's own text is counted: 4 words and a period.
    assert [r["usage_breakdown"]["answer"]["output_tokens"] for r in records] == [5, 86, 86]
    for record in records:
        breakdown = record["usage_breakdown"]
        assert record["output_tokens"] == (breakdown["estimation"]["output_tokens"]
                                           + breakdown["answer"]["output_tokens"])
        assert record["total_output_tokens"] == record["output_tokens"]


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
    ("status-misspelt", json.dumps(dict(_FOUND, status="fuond")) + "\n",
     "status must be one of found, vanilla_incorrect, no_feasible_budget, error, got 'fuond'"),
    ("trace-not-decreasing",
     json.dumps(dict(_FOUND, optimal_budget=128, upper_bound=256,
                     trace=_FOUND["trace"][::-1])) + "\n",
     "trace budgets must be strictly decreasing"),
    ("trace-row-correct-a-string",
     json.dumps(dict(_FOUND, optimal_budget=256, upper_bound=256,
                     trace=[_FOUND["trace"][0], dict(_FOUND["trace"][1], correct="no")])) + "\n",
     'trace[1].correct must be a boolean, got "no"'),
    ("record-not-an-object", "[]\n", "not a JSON object"),
]
_GOOD_QUESTION = {"id": "q0", "text": "Q?", "gold_answer": "1",
                  "behavior": {"vanilla": {"output_tokens": 5}}}


def _fixture_refusal(id, problem, *changes):
    """A fixture of one question per dict of ``changes`` to a good question."""
    questions = [dict(_GOOD_QUESTION, **change) for change in changes]
    return _refusal(id, problem, dataset=json.dumps({"questions": questions}))


def _dataset_refusal(id, problem, fmt, content):
    return _refusal(id, f"dataset.json: {problem}", dataset=content, verb="eval",
                    flags=["--dataset-format", fmt])


# Every refusal that main can reach before a request: each exits 1 with an
# error that opens by naming the file, flag or config key at fault, leaves
# the out-dir as it was (absent, or holding only the search ptdata reads)
# and sends nothing upstream.
@pytest.mark.parametrize("verb, config, dataset, flags, api_key, search, problem", [
    # The config.
    _refusal("config-file-missing", "--config: [Errno 2] No such file or directory: 'nope.json'",
             flags=["--config", "nope.json"]),
    _refusal("config-not-json", "config.json: invalid JSON", config='{"backend": '),
    _refusal("config-not-an-object", "config.json: config must be a JSON object", config="[]"),
    _refusal("config-not-utf8", "--config: config.json: line 2: not UTF-8: 'utf-8' codec can't "
             "decode byte 0xff in position 16: invalid start byte",
             config=b'{"seed": 1,\n "cache_path": "\xff"}'),
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
    _config_refusal("more-than-one-candidate", "max_candidates must be 1",
                    sampling={"max_candidates": 2}),
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
    _config_refusal("pricing-row-not-an-object", "pricing[0] must be a JSON object",
                    pricing=[5]),
    _config_refusal("pricing-row-twice", "duplicate pricing entry for model 'scripted-v1'",
                    pricing=DEMO_CONFIG["pricing"] * 2),
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
    _refusal("live-endpoint-with-a-space", "endpoint holds a space or a control character",
             config=json.dumps(dict(LIVE_CONFIG, backend=dict(
                 LIVE_CONFIG["backend"], endpoint="http://127.0.0.1:1/v1/chat completions"))),
             verb="eval", api_key="sk-from-env"),
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
    _refusal("fixture-questions-not-a-list", "dataset.json: questions must be a JSON list, got dict",
             dataset=json.dumps({"questions": {"q0": _GOOD_QUESTION}})),
    _fixture_refusal("fixture-question-with-empty-text",
                     "bad question at dataset.json questions[0]: question 'q0' has empty text",
                     {"text": ""}),
    _fixture_refusal("fixture-numeric-question-without-gold",
                     "bad question at dataset.json questions[0]: question 'q0' is missing its "
                     "gold answer", {"gold_answer": ""}),
    _fixture_refusal("fixture-unknown-answer-kind", "bad question at dataset.json questions[0]: "
                     "'essay' is not a valid AnswerKind", {"answer_kind": "essay"}),
    _fixture_refusal("fixture-question-id-twice",
                     "duplicate question id 'q0' at dataset.json questions[1]",
                     {}, {"text": "Another?"}),
    _fixture_refusal("fixture-behavior-without-vanilla",
                     "behavior at dataset.json questions[0] is missing its vanilla entry",
                     {"behavior": {"budgets": {}}}),
    _fixture_refusal("fixture-budgets-not-an-object",
                     "budgets at dataset.json questions[0] must be a JSON object, got list",
                     {"behavior": {"vanilla": {"output_tokens": 5}, "budgets": [5]}}),
    _fixture_refusal("fixture-negative-output-tokens", "bad scripted entry at dataset.json "
                     "questions[0].default: output_tokens must be >= 0, got -1",
                     {"behavior": {"vanilla": {"output_tokens": 5},
                                   "default": {"output_tokens": -1}}}),
    _refusal("fixture-with-a-repeated-questions-key", _NO_QUESTIONS,
             dataset='{"questions": [{"id": "q0"}], "questions": []}'),
    _refusal("fixture-questions-before-name-and-default",
             "bad question at dataset.json questions[0]: 'text'",
             dataset=json.dumps({"questions": [{"id": "q0"}], "name": "late",
                                 "default_behavior": {"output_tokens": -1}})),
    _refusal("fixture-default-before-questions",
             "bad question at dataset.json questions[0]: 'text'",
             dataset=json.dumps({"default_behavior": {"output_tokens": -1},
                                 "questions": [{"id": "q0"}]})),
    _refusal("fixture-syntax-error-after-a-bad-question", "dataset.json: invalid JSON at line 3",
             dataset='{"questions": [{"id": "q0"},\n' + json.dumps(_GOOD_QUESTION) + ',\n{"id": ]}'),
    _refusal("fixture-with-trailing-data", "dataset.json: invalid JSON at line 2",
             dataset=DEMO_DATASET + "\n]"),
    _refusal("fixture-with-a-byte-order-mark", "dataset.json: invalid JSON at line 1",
             dataset="\ufeff" + DEMO_DATASET),
    *[_refusal(f"fixture-{name}", f"dataset.json: invalid JSON at line {line}", dataset=text)
      for name, text, line in (
          ("string-unterminated", '{"questions": [{"id": "q0}]}', 1),
          ("key-not-a-string", '{"questions": [],\n 5: 1}', 2),
          ("key-without-colon", '{"name": "n",\n "questions" []}', 2),
          # Past the window, so that the rest of the file is read to find the error.
          ("comma-missing", '{"questions": []\n"name": "n"}' + " " * (WINDOW + 1), 2))],
    _refusal("fixture-an-empty-object", _NO_QUESTIONS, dataset="{}"),
    _refusal("fixture-not-utf8", "--dataset: dataset.json: line 2: not UTF-8: 'utf-8' codec "
             "can't decode byte 0xff in position 8: invalid start byte",
             dataset=b'{"questions": [\n{"id": "\xff"}]}'),
    _dataset_refusal("gsm8k-answer-without-marker", "line 1 has no '#### ' answer marker",
                     "gsm8k_jsonl", '{"question": "Q?", "answer": "3"}\n'),
    _dataset_refusal("gsm8k-empty-gold", "line 1 has an empty gold answer", "gsm8k_jsonl",
                     '{"question": "Q?", "answer": "x #### "}\n'),
    _dataset_refusal("gsm8k-question-id-twice", "duplicate question id 'a'", "gsm8k_jsonl",
                     '{"id": "a", "question": "Q?", "answer": "#### 1"}\n\n'
                     '{"id": "a", "question": "R?", "answer": "#### 2"}\n'),
    _dataset_refusal("mathbench-not-json", "malformed JSON at line 1", "mathbench_json",
                     '[{"question": '),
    _dataset_refusal("mathbench-array-past-a-window-of-white-space",
                     "item 1: question must be a string, got 5", "mathbench_json",
                     " " * (WINDOW + 1) + '[{"question": 5, "answer": "A"}]'),
    _dataset_refusal("mathbench-array-after-white-space-json-does-not-skip",
                     "malformed JSON at line 2", "mathbench_json",
                     '\n\u00a0[{"question": "Q?", "answer": "A"}]'),
    _dataset_refusal("mathbench-item-then-trailing-data", "malformed JSON at line 2",
                     "mathbench_json", '[{"question": 5, "answer": "A"}]\n]'),
    *[_refusal(f"{name}-not-utf8", "--dataset: dataset.json: line 2: not UTF-8: 'utf-8' codec "
               "can't decode byte 0xe9 in position 17: invalid continuation byte",
               dataset=content, verb="eval", flags=["--dataset-format", fmt])
      for name, fmt, content in (
          ("gsm8k", "gsm8k_jsonl",
           b'{"question": "Q?", "answer": "#### 1"}\n{"question": "Caf\xe9?"}\n'),
          ("mathbench-array", "mathbench_json",
           b'[{"question": "Q?", "answer": "A"},\n{"question": "Caf\xe9?"}]'),
          ("mathbench-lines", "mathbench_json",
           b'{"question": "Q?", "answer": "A"}\n{"question": "Caf\xe9?"}\n'))],
    _dataset_refusal("mathbench-jsonl-question-a-number",
                     "item 1: question must be a string, got 5", "mathbench_json",
                     '{"question": 5, "answer": "A"}\n'),
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
    _flag_refusal("eval", "--methods", "direct,best", ": unknown method 'best' "
                  "(expected direct|vanilla|ep|fixed:N)"),
    _flag_refusal("eval", "--methods", "vanilla,vanilla", ": 'vanilla' is named twice"),
    _flag_refusal("eval", "--methods", "direct,fixed:64,ep,fixed:064",
                  ": 'fixed(64)' is named twice"),
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
    _refusal("ptdata-search-with-a-question-twice",
             "--out-dir: out/search_results.jsonl: line 2: a second record of 'rebound'",
             verb="ptdata", search=_SEARCH_LINES[0] * 2),
    _refusal("ptdata-search-without-a-cohort-question",
             "--out-dir: out/search_results.jsonl: no search record for 'wrong'",
             verb="ptdata", search=_SEARCH_LINES[0] + _SEARCH_LINES[1]),
    *[_refusal(f"{verb}-search-not-utf8", f"{where}: line 2: not UTF-8: 'utf-8' codec can't "
               "decode byte 0xff in position 17: invalid start byte", verb=verb,
               search=_SEARCH_LINES[0].encode() + b'{"question_id": "\xff", "status": "error"}\n')
      for verb, where in (("audit", "--search-output: search/search_results.jsonl"),
                          ("elasticity", "--search-output: search/search_results.jsonl"),
                          ("ptdata", "--out-dir: out/search_results.jsonl"))],
    *[_refusal(f"{verb}-{name}", f"{where}: line 1: {problem}", verb=verb, search=line)
      for verb, where in (("audit", "--search-output: search/search_results.jsonl"),
                          ("elasticity", "--search-output: search/search_results.jsonl"),
                          ("ptdata", "--out-dir: out/search_results.jsonl"))
      for name, line, problem in _BAD_SEARCH_RECORDS],
])
def test_bad_input_is_fatal_and_names_the_problem(tmp_path, capsys, monkeypatch, verb, config,
                                                  dataset, flags, api_key, search, problem):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "config.json", config)
    argv = [verb, "--config", "config.json", "--out-dir", "out", *flags]
    if dataset is not None:
        _write(tmp_path / "dataset.json", dataset)
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
            _write(tmp_path / where / "search_results.jsonl", search)
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


def _write(path, content):
    """Text as UTF-8, bytes (a file that is not UTF-8) as they are."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


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


def test_search_vanilla_baseline_skips_the_probe_at_the_upper_bound(demo):
    config, dataset, tmp = demo
    out = tmp / "out"
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", str(out),
                 "--baseline", "vanilla"]) == 0
    records = {r["question_id"]: r for r in _read_jsonl(out / "search_results.jsonl")}
    # The vanilla cost, 256, is the first baseline: no probe at 256.
    assert [point["budget"] for point in records["rebound"]["trace"]] == [128, 64, 32]
    assert records["rebound"]["optimal_budget"] == 64
    assert _read_json(out / "run_manifest.json")["baseline"] == "vanilla"


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


def test_a_search_failure_without_a_message_is_recorded_by_its_type(demo, monkeypatch):
    # An error line needs a non-empty error text to read back.
    config, dataset, tmp = demo

    def silent(backend, question, **kwargs):
        raise TransportError()

    monkeypatch.setattr(cli, "search_optimal_budget", silent)
    out = str(tmp / "out")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", out]) == 2
    results = os.path.join(out, "search_results.jsonl")
    assert {r["error"] for r in _read_jsonl(results)} == {"TransportError"}
    assert main(["elasticity", "--config", config, "--out-dir", str(tmp / "e"),
                 "--search-output", results]) == 0


def test_search_writes_the_records_the_search_returns(demo):
    config, dataset, tmp = demo
    out = tmp / "out"
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", str(out)]) == 0
    scenario = backend.parse_scripted_file(dataset)
    fresh = make_backend(backend.ScriptedBackend, scenario)
    returned = [search_optimal_budget(fresh, question, "probe") for question in scenario.questions]
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


def test_elasticity_with_no_estimate_paired_to_a_range_reports_no_quality(demo):
    config, _, tmp = demo
    search_output = tmp / "search_results.jsonl"
    search_output.write_text("".join(_SEARCH_LINES))
    estimates = tmp / "records_ep.jsonl"
    estimates.write_text(json.dumps({"question_id": "rebound", "method": "ep",
                                     "estimated_budget": 50}) + "\n")
    out = tmp / "elastic"
    assert main(["elasticity", "--config", config, "--out-dir", str(out),
                 "--search-output", str(search_output), "--estimates", str(estimates)]) == 0
    report = _read_json(out / "elasticity_report.json")
    assert (report["ranges"], report["estimator_quality"]) == ([], None)


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

    # mono has 3 correct points, one short of a window of 4.
    assert main(
        ["elasticity", "--config", config, "--out-dir", out, "--k", "4",
         "--search-output", os.path.join(search_out, "search_results.jsonl")]
    ) == 0
    report = _read_json(os.path.join(out, "elasticity_report.json"))
    assert [r["question_id"] for r in report["ranges"]] == ["rebound"]
    assert {"question_id": "mono", "reason": "window size 4 out of range for a 3-point trace"} \
        in report["skipped"]


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
    *[pytest.param(verb, "--search-output",
                   dict(_FOUND, optimal_budget=256, upper_bound=256,
                        trace=[_FOUND["trace"][0], dict(_FOUND["trace"][1], **change)]),
                   problem, id=f"{verb}-trace-row-{name}")
      for verb in ("elasticity", "audit")
      for name, change, problem in (
          ("output-tokens-a-string", {"output_tokens": "90"},
           'trace[1].output_tokens must be an integer, got "90"'),
          ("output-tokens-negative", {"output_tokens": -1},
           "trace[1] needs budget >= 1 and output_tokens >= 0, got 128 and -1"),
          ("correct-a-string", {"correct": "no"}, 'trace[1].correct must be a boolean, got "no"'),
          ("budget-a-fraction", {"budget": 31.5}, "trace[1].budget must be an integer, got 31.5"),
          ("budget-0", {"budget": 0}, "trace[1] needs budget >= 1 and output_tokens >= 0, got 0"),
          ("fingerprint-a-number", {"response_fingerprint": 5},
           "trace[1].response_fingerprint must be a string or null, got 5"),
      )],
    # A row that is no JSON object, of any length.
    *[pytest.param(verb, flag, dict(_FOUND, optimal_budget=256, upper_bound=256, trace=[row]),
                   "trace[0] must be a JSON object", id=f"{verb}-trace-row-{name}")
      for verb, flag in (("audit", "--search-output"), ("elasticity", "--search-output"),
                         ("ptdata", "--out-dir"))
      for name, row in (("a-number", 5), ("a-string", "abcd"), ("a-list", [1, 2, 3, 4]),
                        ("null", None))],
    *[pytest.param(verb, flag, line, "a second record of 'mono'",
                   id=f"{verb}-{flag[2:]}-question-twice")
      for verb, flag, line in (
          ("elasticity", "--search-output", {"question_id": "mono", "status": "vanilla_incorrect"}),
          ("audit", "--search-output", {"question_id": "mono", "status": "vanilla_incorrect"}),
          ("elasticity", "--estimates", {"question_id": "mono", "method": "ep"}))],
    *[pytest.param(verb, "--search-output", {"question_id": ["mono"], "status": "vanilla_incorrect"},
                   "question_id must be a string, got ['mono']", id=f"{verb}-question-id-a-list")
      for verb in ("elasticity", "audit")],
    *[pytest.param(verb, flag, line, problem, id=f"{verb}-{name}")
      for verb, flag in (("audit", "--search-output"), ("elasticity", "--search-output"),
                         ("ptdata", "--out-dir"))
      for name, line, problem in (
          ("error-a-number", {"question_id": "rebound", "status": "error", "error": 5},
           "error record 'rebound' has error 5, not a non-empty string"),
          ("error-empty", {"question_id": "rebound", "status": "error", "error": ""},
           "error record 'rebound' has error '', not a non-empty string"),
          ("error-record-without-error", {"question_id": "rebound", "status": "error"},
           "error record 'rebound' has error None, not a non-empty string"),
          ("found-record-with-an-error",
           dict(_FOUND, optimal_budget=256, upper_bound=256, error="boom"),
           "found record 'rebound' carries an error: 'boom'"),
          # The search writes these as no_feasible_budget.
          ("found-record-with-budget-0", dict(_FOUND, optimal_budget=0, upper_bound=0, trace=[]),
           "found record 'rebound' has optimal_budget 0, not a budget >= 1"),
          ("upper-bound-negative",
           {"question_id": "rebound", "status": "vanilla_incorrect", "upper_bound": -5},
           "upper_bound must be >= 0, got -5"),
          # A search writes only the upper bound of these, and only the error of this.
          ("vanilla-incorrect-record-with-a-target",
           {"question_id": "wrong", "status": "vanilla_incorrect", "upper_bound": 128,
            "optimal_budget": 64, "target_output": "The answer is 3.",
            "trace": [{"budget": 64, "output_tokens": 60, "correct": True}]},
           "vanilla_incorrect record 'wrong' carries optimal_budget: 64"),
          ("no-feasible-record-with-a-trace",
           {"question_id": "wrong", "status": "no_feasible_budget", "upper_bound": 0,
            "trace": [{"budget": 64, "output_tokens": 60, "correct": True}]},
           "no_feasible_budget record 'wrong' carries trace: (TracePoint(budget=64"),
          ("no-feasible-record-with-an-object-trace",
           {"question_id": "wrong", "status": "no_feasible_budget", "upper_bound": 0, "trace": {}},
           "trace must be a JSON array, got {}"),
          ("no-feasible-record-with-a-target",
           {"question_id": "wrong", "status": "no_feasible_budget", "upper_bound": 0,
            "target_output": ""},
           "no_feasible_budget record 'wrong' carries target_output: ''"),
          ("error-record-with-an-upper-bound",
           {"question_id": "rebound", "status": "error", "error": "boom", "upper_bound": 0},
           "error record 'rebound' carries upper_bound: 0"))],
    pytest.param("elasticity", "--estimates", {"method": "ep", "estimated_budget": 50},
                 "'question_id'", id="ep-record-without-question-id"),
    *[pytest.param("elasticity", "--estimates",
                   {"question_id": "rebound", "method": "ep", "estimated_budget": estimate},
                   f"estimated_budget must be null or an integer >= 1, got {estimate!r}",
                   id=f"estimate-{estimate!r}")
      for estimate in ("abc", 12.7, True, 0)],
    *[pytest.param("elasticity", "--estimates", {"question_id": "rebound", "method": "ep", **field},
                   problem, id=f"ep-record-{name}")
      for name, field, problem in (
          ("question-id-a-number", {"question_id": 5}, "question_id must be a string, got 5"),
          ("failed-a-string", {"failed": "yes"}, 'failed must be a boolean, got "yes"'),
          ("failed-null", {"failed": None}, "failed must be a boolean, got null"),
          ("output-tokens-a-bool", {"output_tokens": True},
           "output_tokens must be an integer or null, got true"),
          ("expense-a-string", {"expense": "1.5"}, 'expense must be a number or null, got "1.5"'),
      )],
])
def test_read_back_records_are_checked(demo, capsys, verb, flag, line, problem):
    config, dataset, tmp = demo
    good = {"question_id": "mono", "status": "vanilla_incorrect"}
    search_output = tmp / "search_results.jsonl"
    search_output.write_text(json.dumps(good) + "\n")
    if flag == "--estimates":
        good = {"question_id": "mono", "method": "ep"}
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", str(tmp / "out")]
    if flag == "--out-dir":  # ptdata reads the search in its out-dir
        (tmp / "out").mkdir()
        bad = tmp / "out" / "search_results.jsonl"
    else:
        bad = tmp / "bad.jsonl"
        argv += [flag, str(bad)]
    bad.write_text(f"{json.dumps(good)}\n{json.dumps(line)}\n")
    if flag == "--estimates":
        argv += ["--search-output", str(search_output)]
    before = _tree(tmp / "out")
    capsys.readouterr()
    assert main(argv) == 1
    error = capsys.readouterr().err
    assert error.startswith(f"error: {flag}: {bad}: line 2: ") and problem in error, error
    assert _tree(tmp / "out") == before


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
    out, path, requests = _tampered_search(config, dataset, tmp, monkeypatch,
                                           target_output="The answer is 999.")
    capsys.readouterr()
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", fmt]) == 1
    assert capsys.readouterr().err == (
        f"error: --out-dir: {path}: the target of 'rebound' no longer grades correct\n")
    assert requests == []
    assert not os.path.exists(os.path.join(out, f"corpus_{fmt}.jsonl"))


def test_ptdata_refuses_a_stale_target_before_any_request_on_a_cold_cache(demo, monkeypatch,
                                                                         capsys):
    """A DPO export asks for each vanilla answer; with no cache, a refusal after
    the first ask would already have sent requests and written a cache."""
    config, dataset, tmp = demo
    request = backend.ScriptedBackend._request
    out, path, requests = _tampered_search(config, dataset, tmp, monkeypatch,
                                           target_output="The answer is 999.")
    # Requests are answered here, and counted.
    monkeypatch.setattr(backend.ScriptedBackend, "_request",
                        lambda self, prompt: requests.append(prompt) or request(self, prompt))
    os.remove(os.path.join(out, "cache.jsonl"))

    def snapshot():
        return {name: (tmp / "out" / name).read_bytes() for name in os.listdir(out)}

    before = snapshot()
    assert main(["ptdata", "--config", config, "--dataset", dataset, "--out-dir", out,
                 "--format", "dpo", "--concurrency", "1"]) == 1
    assert requests == []
    assert snapshot() == before and "cache.jsonl" not in before
    assert capsys.readouterr().err == (
        f"error: --out-dir: {path}: the target of 'rebound' no longer grades correct\n")


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


def test_audit_of_a_search_that_found_nothing_audits_nothing(demo, capsys):
    config, dataset, tmp = demo
    results = tmp / "search_results.jsonl"
    results.write_text("".join(_SEARCH_LINES))
    out = tmp / "audit"
    capsys.readouterr()
    assert main(["audit", "--config", config, "--dataset", dataset, "--out-dir", str(out),
                 "--search-output", str(results)]) == 0
    assert capsys.readouterr().out == "monotonic samples: none audited\n"
    report = _read_json(out / "audit_report.json")
    assert (report["audited"], report["monotonic_fraction_pct"], report["per_multiplier"]) == (
        0, None, [])
    assert [s["reason"] for s in report["skipped"]] == ["vanilla_incorrect"] * 2


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


# Each cohort verb parses the fixture once; elasticity reads no dataset.
@pytest.mark.parametrize("verb, parsed", [
    pytest.param(verb, int(verb != "elasticity"), id=verb)
    for verb in ("search", "eval", "ptdata", "audit", "elasticity")])
def test_each_cohort_verb_parses_the_fixture_once(demo, verb, parsed, monkeypatch):
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
    if verb in ("audit", "elasticity"):
        argv += ["--search-output", os.path.join(search_out, "search_results.jsonl")]
    assert main(argv) == 0
    assert parses == [dataset] * parsed


def test_load_dataset_returns_the_scenario_the_mock_plays(demo):
    _, dataset, _ = demo
    scenario = evaluate.load_dataset(dataset, "scripted_json")
    assert isinstance(scenario, backend.ScriptedScenario)
    assert scenario == backend.parse_scripted_file(dataset)


def test_build_backend_parses_the_fixture_when_given_only_its_path(demo):
    config, dataset, tmp = demo
    scripted = cli.build_backend(cli.load_config(config), str(tmp / "out"), dataset)
    misses = count_misses(scripted)
    question = evaluate.load_dataset(dataset, "scripted_json").questions[0]
    assert scripted.ask(question, PromptKind.VANILLA_COT).usage.output_tokens == 256
    assert misses() == 1
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
# Every answer kind and search outcome, end to end
# ---------------------------------------------------------------------------

# (id, answer kind, gold, the vanilla answer's text or None to let the mock
# write it, extracted, correct): every grading rule, as eval records it.
_GRADED = [
    ("mc-marker", "multiple_choice", "B", "So the answer is (b).", "B", True),
    ("mc-last-letter", "multiple_choice", "C", "Between A and C, C.", "C", True),
    ("mc-no-letter", "multiple_choice", "A", "I cannot tell.", None, False),
    ("free-text", "free_text", "Paris", None, "paris", True),
    ("free-text-blank", "free_text", "Paris", " \n ", None, False),
    ("gold-a-fraction", "numeric", "3/2", "It comes to 1.5", "1.5", True),
    ("gold-over-zero", "numeric", "1/0", "The answer is 2.", "2", False),
    ("gold-a-bad-fraction", "numeric", "1/x", "The answer is 2.", "2", False),
    ("gold-a-word", "numeric", "abc", "The answer is 2.", "2", False),
    ("gold-a-symbol", "numeric", "$", "The answer is 2.", "2", False),
]
_OUTCOMES_SCENARIO = {
    "name": "outcomes",
    "default_behavior": {"output_tokens": 40, "correct": False},
    "questions": [
        *[{"id": qid, "text": f"Question {qid}?", "gold_answer": gold, "answer_kind": kind,
           "behavior": {"vanilla": {"output_tokens": 5, "text": text}
                        if text is not None else {"output_tokens": 5}}}
          for qid, kind, gold, text, _, _ in _GRADED],
        # No behavior: the fixture's default entry answers every prompt.
        {"id": "unscripted", "text": "Question unscripted?", "gold_answer": "7"},
        # A correct vanilla answer that costs nothing leaves no budget to search.
        {"id": "no-feasible", "text": "Question no-feasible?", "gold_answer": "7",
         "behavior": {"vanilla": {"output_tokens": 0}}},
        # Every probe is wrong: the optimum is the vanilla answer at its own
        # cost, so its preference pair is no shorter than the rejected answer.
        {"id": "inverted", "text": "Question inverted?", "gold_answer": "7",
         "behavior": {"vanilla": {"output_tokens": 64},
                      "budgets": {"64": {"output_tokens": 60, "correct": False}},
                      "default": {"output_tokens": 50, "correct": False}}},
    ],
}


def test_every_answer_kind_and_search_outcome_through_main(tmp_path, capsys):
    config, dataset = tmp_path / "config.json", tmp_path / "outcomes.json"
    config.write_text(_config())
    dataset.write_text(json.dumps(_OUTCOMES_SCENARIO))
    out = tmp_path / "out"
    cohort = ["--config", str(config), "--dataset", str(dataset), "--out-dir", str(out)]
    assert main(["eval", *cohort, "--methods", "direct"]) == 0
    graded = {r["question_id"]: (r["extracted"], r["correct"])
              for r in _read_jsonl(out / "records_direct.jsonl")}
    assert graded == {
        **{qid: (extracted, correct) for qid, _, _, _, extracted, correct in _GRADED},
        "unscripted": (None, False), "no-feasible": ("7", True), "inverted": ("7", True),
    }

    assert main(["search", *cohort]) == 0
    searched = {r["question_id"]: r for r in _read_jsonl(out / "search_results.jsonl")}
    assert searched["no-feasible"]["status"] == "no_feasible_budget"
    assert searched["inverted"]["status"] == "found"
    assert searched["inverted"]["optimal_budget"] == searched["inverted"]["upper_bound"] == 64
    assert [(p["budget"], p["correct"]) for p in searched["inverted"]["trace"]] == [
        (64, False), (32, False)]

    assert main(["ptdata", *cohort, "--format", "dpo"]) == 0
    skipped = _read_json(out / "corpus_dpo.manifest.json")["counts"]["skipped"]
    assert skipped["no_feasible_budget"] == 1
    # Each found optimum here is the vanilla answer itself.
    found = [qid for qid, r in searched.items() if r["status"] == "found"]
    assert "inverted" in found and skipped["length_inversion"] == len(found)

    capsys.readouterr()
    assert main(["elasticity", "--config", str(config), "--out-dir", str(out / "elasticity"),
                 "--search-output", str(out / "search_results.jsonl")]) == 0
    report = _read_json(out / "elasticity" / "elasticity_report.json")
    assert {"question_id": "inverted", "reason": "trace has no correctness-preserving points"} \
        in report["skipped"]
    assert {"question_id": "no-feasible", "reason": "no_feasible_budget"} in report["skipped"]


# ---------------------------------------------------------------------------
# A damaged cache
# ---------------------------------------------------------------------------


def _second_line(lines, change):
    return b"".join([lines[0], change(lines[1]), *lines[2:]])


def _escape_fingerprint(line):
    """The line with its fingerprint's first character written as a JSON escape."""
    at = line.index(b'"fingerprint": "') + len(b'"fingerprint": "')
    return line[:at] + b"\\u%04x" % line[at] + line[at + 1:]


def _outcome_emptied(line):
    """The line with its outcome written as an empty object."""
    return line[:line.index(b'"outcome": ') + len(b'"outcome": ')] + b"{}}\n"


# (damage to the demo search's cache, verb run on it, exit code, the error at
# line 2 or None, requests sent): a torn append is cut back and asked again,
# any other damage is refused naming its line.
@pytest.mark.parametrize("damage, verb, code, error, requests", [
    pytest.param(lambda lines: b"".join(lines)[:-30], ["search"], 0, None, 1,
                 id="torn-last-line"),
    pytest.param(lambda lines: b"".join(lines) + b"  ", ["search"], 0, None, 0,
                 id="blank-torn-last-line"),
    pytest.param(lambda lines: b"".join(lines) + lines[-1][:-1] + b"x", ["search"], 0, None, 0,
                 id="torn-last-line-after-a-whole-record"),
    pytest.param(lambda lines: b"".join(lines)[:-1], ["eval", "--methods", "direct"], 0, None, 3,
                 id="whole-last-record-without-its-newline"),
    pytest.param(lambda lines: _second_line(lines, _escape_fingerprint), ["search"], 0, None, 0,
                 id="fingerprint-written-with-an-escape"),
    pytest.param(lambda lines: _second_line(lines, lambda line: b"garbage\n"), ["search"], 1,
                 "not a tokenbudget-cache/2 record", 0, id="middle-line-not-a-record"),
    pytest.param(lambda lines: _second_line(lines, _outcome_emptied), ["search"], 1,
                 "'usage'", 0, id="corrupt-outcome-behind-an-intact-prefix"),
    pytest.param(lambda lines: _second_line(lines, lambda line: _outcome_emptied(
        _escape_fingerprint(line))), ["search"], 1, "'usage'", 0,
                 id="corrupt-outcome-behind-an-escaped-fingerprint"),
    pytest.param(lambda lines: _second_line(lines, lambda line: line.replace(
        b'"input_tokens": ', b'"input_tokens": -')), ["search"], 1,
                 "token counts must be non-negative", 0, id="negative-token-count"),
])
def test_a_damaged_cache_is_cut_back_or_refused_naming_the_line(
        demo, monkeypatch, capsys, damage, verb, code, error, requests):
    config, dataset, tmp = demo
    out = tmp / "out"
    cohort = ["--config", config, "--dataset", dataset, "--out-dir", str(out)]
    assert main(["search", *cohort]) == 0
    cache = out / "cache.jsonl"
    whole = cache.read_bytes()
    cache.write_bytes(damage(whole.splitlines(keepends=True)))
    sent = []
    request = backend.ScriptedBackend._request
    monkeypatch.setattr(backend.ScriptedBackend, "_request",
                        lambda self, prompt: sent.append(prompt) or request(self, prompt))
    capsys.readouterr()
    assert main([verb[0], *cohort, *verb[1:]]) == code
    assert len(sent) == requests
    if error is not None:
        assert capsys.readouterr().err == (
            f"error: {cache}: corrupt cache record at line 2: {error}\n")
        return
    repaired = cache.read_bytes()
    if verb == ["search"]:
        # The same records as before the damage, each written once.
        assert [json.loads(line) for line in repaired.splitlines()] == [
            json.loads(line) for line in whole.splitlines()]
    else:
        assert repaired.startswith(whole)
        assert len(repaired.splitlines()) == len(whole.splitlines()) + requests
        assert all(json.loads(line) for line in repaired.splitlines())


def test_eval_writes_nothing_when_a_later_method_meets_a_corrupt_cache_line(demo, capsys):
    config, dataset, tmp = demo
    cohort = ["--config", config, "--dataset", dataset, "--concurrency", "1"]
    # At concurrency 1 the cache holds the vanilla answers in cohort order, then
    # the direct ones: line 2 is mono's vanilla answer.
    warm = tmp / "warm"
    assert main(["eval", *cohort, "--out-dir", str(warm), "--methods", "vanilla,direct"]) == 0
    out = tmp / "out"
    out.mkdir()
    cache = out / "cache.jsonl"
    lines = (warm / "cache.jsonl").read_bytes().splitlines(keepends=True)
    cache.write_bytes(_second_line(lines, _outcome_emptied))
    before = _tree(out)
    capsys.readouterr()
    # Every direct answer is a hit; vanilla stops at mono's.
    assert main(["eval", *cohort, "--out-dir", str(out), "--methods", "direct,vanilla"]) == 1
    assert capsys.readouterr().err == f"error: {cache}: corrupt cache record at line 2: 'usage'\n"
    assert _tree(out) == before


# ---------------------------------------------------------------------------
# Failure policy
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

# The seeds of the request schedules that the concurrency tests run under,
# each a 0-4 ms delay per prompt (conftest.shuffle_completions).
ORDER_SEEDS = (1, 2, 3)


def test_demo_outputs_do_not_depend_on_concurrency(demo, monkeypatch, capsys):
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
        # cache.jsonl is appended in completion order, which the schedules
        # change, so only its set of lines is concurrency-independent until
        # its appends follow input order (ROADMAP item 3).
        files["cache.jsonl"] = sorted(files["cache.jsonl"].splitlines())
        shutil.rmtree(out)
        return files, capsys.readouterr().out

    # Every run uses the same out-dir path, which the run manifests record.
    sequential = run_demo(1)
    assert "corpus_sft.manifest.json" in sequential[0]
    shuffled = []
    for seed in ORDER_SEEDS:
        with monkeypatch.context() as schedule:
            shuffled.append(shuffle_completions(schedule, backend.ScriptedBackend, seed))
            assert run_demo(4) == sequential
    assert any(out_of_order() for out_of_order in shuffled)


@pytest.mark.parametrize("verb, failures", [
    ("search", "search_results.jsonl"),
    ("eval", "records_vanilla.jsonl"),
    ("ptdata", "corpus_dpo.manifest.json"),
    ("audit", "audit_report.json"),
])
def test_a_provider_error_fails_only_its_question_at_any_concurrency(demo, monkeypatch, capsys,
                                                                     verb, failures):
    config, dataset, tmp = demo
    search_out = tmp / "search"
    assert main(["search", "--config", config, "--dataset", dataset,
                 "--out-dir", str(search_out)]) == 0
    mono = next(q["text"] for q in DEMO_SCENARIO["questions"] if q["id"] == "mono")
    real = backend.ScriptedBackend._request

    def request(self, prompt):
        if mono in prompt.user:
            raise TransportError("connection reset")
        return real(self, prompt)

    monkeypatch.setattr(backend.ScriptedBackend, "_request", request)
    out = tmp / "out"
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", str(out)]
    argv += {"eval": ["--methods", "direct,vanilla,ep,fixed:64"], "ptdata": ["--format", "dpo"],
             "audit": ["--search-output", str(search_out / "search_results.jsonl")]}.get(verb, [])

    def run(concurrency):
        if verb == "ptdata":
            # The search's records without its cache: the DPO vanilla asks go upstream.
            out.mkdir()
            shutil.copy(search_out / "search_results.jsonl", out)
        assert main([*argv, "--concurrency", str(concurrency)]) == 2
        files = _tree(out)
        # Appended in completion order until ROADMAP item 3: compared as a set of lines.
        files["cache.jsonl"] = sorted(files["cache.jsonl"].splitlines())
        shutil.rmtree(out)
        return files, capsys.readouterr().out

    sequential = run(1)
    assert b"connection reset" in sequential[0][failures]
    shuffled = []
    for seed in ORDER_SEEDS:
        with monkeypatch.context() as schedule:
            shuffled.append(shuffle_completions(schedule, backend.ScriptedBackend, seed))
            assert run(4) == sequential
    assert any(out_of_order() for out_of_order in shuffled)


# ---------------------------------------------------------------------------
# Atomic outputs
# ---------------------------------------------------------------------------


# (verb, output, the owner and name of the function that encodes its records)
_OUTPUT_ENCODERS = [
    ("eval", "records_direct.jsonl", cli, "encode_record"),
    ("eval", "report.json", cli, "render_report"),
    ("search", "search_results.jsonl", SearchRecord, "line"),
    ("search", "elasticity.csv", SearchRecord, "elasticity_rows"),
    ("ptdata", "corpus_sft.jsonl", ptdata, "encode_record"),
]


@pytest.mark.parametrize("verb, name, owner, encoder", _OUTPUT_ENCODERS,
                         ids=[case[1] for case in _OUTPUT_ENCODERS])
def test_a_write_that_fails_leaves_the_previous_output_whole(demo, monkeypatch, capsys,
                                                             verb, name, owner, encoder):
    config, dataset, tmp = demo
    out = tmp / "out"
    argv = [verb, "--config", config, "--dataset", dataset, "--out-dir", str(out)]
    argv += {"eval": ["--methods", "direct,vanilla", "--format", "json"]}.get(verb, [])
    if verb == "ptdata":
        assert main(["search", *argv[1:]]) == 0
    assert main(argv) == 0
    previous = (out / name).read_bytes()
    # The second record (for the report, its second rendering, after the
    # printed table) fails to encode.
    real, calls = getattr(owner, encoder), []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("cannot encode this record")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, encoder, failing)
    capsys.readouterr()
    assert main(argv) == 1
    assert "cannot encode this record" in capsys.readouterr().err
    assert (out / name).read_bytes() == previous
    assert not (out / f"{name}.tmp").exists()


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


# The other choice flags; the library code behind each takes only their choices.
@pytest.mark.parametrize("verb, flag, wrong", [
    ("eval", "--format", "yaml"), ("eval", "--dataset-format", "csv_rows"),
    ("ptdata", "--pt-input", "raw"),
])
def test_a_value_outside_a_flags_choices_is_a_usage_error(tmp_path, capsys, verb, flag, wrong):
    error = main_refuses(tmp_path, capsys, verb, flag, wrong, code=2)
    assert f"argument {flag}: invalid choice: '{wrong}'" in error


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
