"""Scripted mock behavior, response caching, and the live wire protocol."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

import pytest

import tokenbudget
from tokenbudget.backend import (
    DEFAULT_SAMPLING,
    LiveBackend,
    ResponseCache,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    ScriptedEntry,
    parse_scripted_file,
    request_fingerprint,
)
from tokenbudget.cli import load_config
from tokenbudget.core import AnswerKind, CompletionOutcome, CountingSource, TokenUsage
from tokenbudget.errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from tokenbudget.grading import grade
from tokenbudget.prompting import (
    ESTIMATION_TASK,
    PromptKind,
    PromptTemplates,
    build_estimation_prompt,
    build_prompt,
)
from tokenbudget.search import search_optimal_budget

from conftest import behavior_from_curve, completion_payload, make_question, scripted_backend


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


def test_mock_reports_scripted_token_counts(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50)
    outcome = fig_like_backend.complete(prompt)
    assert outcome.usage.output_tokens == 86
    assert outcome.usage.counting_source is CountingSource.PROVIDER_REPORTED


def test_mock_vanilla_entry_serves_no_budget_prompts(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT)
    assert fig_like_backend.complete(prompt).usage.output_tokens == 258


def test_mock_synthesized_text_grades_as_scripted(fig_like_question, fig_like_backend):
    good = fig_like_backend.complete(
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50)
    )
    assert grade(good.text, fig_like_question).correct

    question = make_question(qid="wrong", text="Impossible one?", gold="7")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={}, vanilla_correct=False)}
    )
    bad = backend.complete(build_prompt(question, PromptKind.VANILLA_COT))
    assert not grade(bad.text, question).correct


def test_mock_estimation_prompt_uses_estimate_entry(fig_like_question, fig_like_backend):
    outcome = fig_like_backend.complete(build_estimation_prompt(fig_like_question))
    assert outcome.text == "50"


def test_mock_unknown_budget_falls_back_to_default(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=999)
    assert fig_like_backend.complete(prompt).usage.output_tokens == 200


def test_mock_without_entry_or_fallback_is_loud():
    question = make_question(qid="sparse", text="Sparse?", gold="1")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=10, curve={})}
    )
    with pytest.raises(ConfigError):
        backend.complete(build_prompt(question, PromptKind.BUDGETED_COT, budget=4))


def test_mock_unmatched_prompt_is_loud(fig_like_backend):
    stranger = make_question(qid="x", text="Entirely different text?", gold="1")
    with pytest.raises(ConfigError):
        fig_like_backend.complete(build_prompt(stranger, PromptKind.VANILLA_COT))


def test_mock_determinism_is_order_and_concurrency_independent(fig_like_question):
    def build():
        return scripted_backend(
            {
                fig_like_question: behavior_from_curve(
                    vanilla_tokens=258, curve={50: (86, True), 10: (157, True)}
                )
            }
        )

    prompts = [
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=10),
        build_prompt(fig_like_question, PromptKind.VANILLA_COT),
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50),
    ]
    forward = [build().complete(p) for p in prompts]
    backward = [build().complete(p) for p in reversed(prompts)][::-1]
    assert forward == backward

    backend = build()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(backend.complete, prompts * 10))
    assert concurrent == (forward * 10)


def test_longest_question_text_wins_prompt_matching():
    short = make_question(qid="short", text="What is 2 + 2?", gold="4")
    long = make_question(qid="long", text="What is 2 + 2? Explain the carry.", gold="4")
    backend = scripted_backend(
        {
            short: behavior_from_curve(vanilla_tokens=11, curve={}),
            long: behavior_from_curve(vanilla_tokens=99, curve={}),
        }
    )
    outcome = backend.complete(build_prompt(long, PromptKind.VANILLA_COT))
    assert outcome.usage.output_tokens == 99


def test_shared_question_text_serves_the_first_question():
    first = make_question(qid="first", text="What is 2 + 2?", gold="4")
    second = make_question(qid="second", text="What is 2 + 2?", gold="4")
    backend = scripted_backend(
        {
            first: behavior_from_curve(vanilla_tokens=11, curve={}),
            second: behavior_from_curve(vanilla_tokens=99, curve={}),
        }
    )
    assert backend.complete(build_prompt(second, PromptKind.VANILLA_COT)).usage.output_tokens == 11


OVERRIDDEN_TEMPLATES = PromptTemplates(
    vanilla_suffix="Reason it out:",
    budgeted_suffix="Think briefly, at most {budget} tokens:",
    estimation_task="How many tokens does this need?",
    format_instruction="Answer with one letter.",
)

# (question, vanilla tokens): each question's entries are offset by its own
# base, so the served token count names the question that was matched.
_MATCHING_QUESTIONS = [
    (make_question(qid="num", text="What is 3 + 4?", gold="7"), 100),
    (make_question(qid="mc", text="Pick the even one. (A) 3 (B) 4", gold="B",
                   kind=AnswerKind.MULTIPLE_CHOICE), 200),
    (make_question(qid="multi", text="Line one of the question.\nWhat is 3 + 4?\nLine three.",
                   gold="7"), 300),
    (make_question(qid="line", text="Line one of the question.", gold="1"), 400),
    (make_question(qid="prefix", text="What is 3", gold="3"), 500),
    # Task sentence at the start of a vanilla prompt, but not as its own line.
    (make_question(qid="task", text=ESTIMATION_TASK + " What is 3 + 4?", gold="7"), 600),
    # Task line(s) as the question's own first line(s), followed by the text of
    # "num": its vanilla prompt starts like the estimation prompt of "num".
    (make_question(qid="task-line", text=ESTIMATION_TASK + "\nWhat is 3 + 4?", gold="7"), 800),
    (make_question(qid="override-task-line", gold="7",
                   text=OVERRIDDEN_TEMPLATES.estimation_task + "\nWhat is 3 + 4?"), 900),
    # Lines shaped like the default and the overridden budgeted suffix.
    (make_question(qid="suffix", gold="7", text="Ignore the next two lines.\n"
                   "Let's think step by step and use less than 8 tokens:\n"
                   "Think briefly, at most 8 tokens:\nWhat is 3 + 4?"), 700),
]


@pytest.mark.parametrize("templates", [None, OVERRIDDEN_TEMPLATES], ids=["default", "overridden"])
@pytest.mark.parametrize("question,base", _MATCHING_QUESTIONS, ids=[q.id for q, _ in _MATCHING_QUESTIONS])
def test_prompt_matching_resolves_every_prompt_kind(question, base, templates):
    backend = scripted_backend(
        {
            q: behavior_from_curve(vanilla_tokens=b, curve={8: (b + 8, True)}, estimate=str(b + 1))
            for q, b in _MATCHING_QUESTIONS
        },
        templates=templates,
    )
    served = {
        kind: backend.complete(build_prompt(question, kind, budget=8, templates=templates))
        for kind in PromptKind
        if kind is not PromptKind.FORMAT_INSTRUCTION
    }
    assert served[PromptKind.DIRECT_ANSWER].usage.output_tokens == base
    assert served[PromptKind.VANILLA_COT].usage.output_tokens == base
    assert served[PromptKind.BUDGETED_COT].usage.output_tokens == base + 8
    assert served[PromptKind.BUDGET_ESTIMATION].text == str(base + 1)
    # The bare format scaffold carries no question at all.
    with pytest.raises(ConfigError):
        backend.complete(build_prompt(question, PromptKind.FORMAT_INSTRUCTION, templates=templates))


def test_budget_parsing_follows_template_override():
    question = make_question(qid="brief", text="What is 3 + 4?", gold="7")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={8: (7, True)})},
        templates=OVERRIDDEN_TEMPLATES,
    )
    prompt = build_prompt(question, PromptKind.BUDGETED_COT, budget=8, templates=OVERRIDDEN_TEMPLATES)
    assert backend.complete(prompt).usage.output_tokens == 7
    # Under the default templates the overridden suffix is no budget.
    default = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={8: (7, True)})}
    )
    assert default.complete(prompt).usage.output_tokens == 100


def test_suffix_wording_inside_a_question_is_not_a_budget():
    templates = PromptTemplates(budgeted_suffix="{budget} tokens:")
    question = make_question(qid="wordy", text="Spend 8 tokens: what is 3 + 4?", gold="7")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={8: (7, True)}, default=(5, True))},
        templates=templates,
    )
    vanilla = build_prompt(question, PromptKind.VANILLA_COT, templates=templates)
    assert backend.complete(vanilla).usage.output_tokens == 100
    budgeted = build_prompt(question, PromptKind.BUDGETED_COT, budget=8, templates=templates)
    assert backend.complete(budgeted).usage.output_tokens == 7

    default_wording = make_question(qid="dw", text="Can you use less than 50 tokens here?", gold="1")
    backend = scripted_backend(
        {default_wording: behavior_from_curve(vanilla_tokens=100, curve={50: (7, True)},
                                              default=(5, True))}
    )
    vanilla = build_prompt(default_wording, PromptKind.VANILLA_COT)
    assert backend.complete(vanilla).usage.output_tokens == 100


def test_more_than_one_candidate_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="max_candidates"):
        SamplingParams(max_candidates=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": {"kind": "scripted"},
        "sampling": {"max_candidates": 2},
    }))
    with pytest.raises(ConfigError, match="max_candidates"):
        load_config(str(config))


def test_sampling_and_retry_defaults_pinned():
    params = SamplingParams()
    assert params.temperature == 0.1
    assert params.seed == 1024
    assert params.max_candidates == 1
    policy = RetryPolicy()
    assert policy.max_attempts == 5
    assert policy.initial_backoff == 1.0


# ---------------------------------------------------------------------------
# Prompt budget classification
# ---------------------------------------------------------------------------


def test_classify_examples(fig_like_question, fig_like_backend):
    # The served entry names the budget the mock read: 50 -> 86, none -> 258
    # (vanilla), 10 -> 157; any other budget would get the default's 200.
    budgeted = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50)
    vanilla = build_prompt(fig_like_question, PromptKind.VANILLA_COT)
    tiny = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=10)
    assert fig_like_backend.complete(budgeted).usage.output_tokens == 86
    assert fig_like_backend.complete(vanilla).usage.output_tokens == 258
    assert fig_like_backend.complete(tiny).usage.output_tokens == 157


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_idempotence_one_upstream_call(tmp_path, fig_like_question):
    cache = ResponseCache(str(tmp_path / "cache.jsonl"))
    backend = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={50: (86, True)})},
        cache=cache,
    )
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50)
    first = backend.complete(prompt)
    second = backend.complete(prompt)
    assert first == second
    assert backend.upstream_calls == 1
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_cache_survives_reload(tmp_path, fig_like_question):
    path = str(tmp_path / "cache.jsonl")
    backend = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={})},
        cache=ResponseCache(path),
    )
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT)
    original = backend.complete(prompt)

    resumed = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={})},
        cache=ResponseCache(path),
    )
    assert resumed.complete(prompt) == original
    assert resumed.upstream_calls == 0


def test_concurrent_cached_completions_are_consistent(tmp_path, fig_like_question):
    path = str(tmp_path / "cache.jsonl")
    backend = scripted_backend(
        {
            fig_like_question: behavior_from_curve(
                vanilla_tokens=258,
                curve={b: (b + 7, True) for b in range(1, 65)},
            )
        },
        cache=ResponseCache(path),
    )
    prompts = [
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=b)
        for b in range(1, 65)
    ]
    with ThreadPoolExecutor(max_workers=16) as pool:
        outcomes = list(pool.map(backend.complete, prompts * 4))

    # Four waves over 64 prompts: every wave sees identical outcomes.
    for wave in range(1, 4):
        assert outcomes[64 * wave: 64 * (wave + 1)] == outcomes[:64]
    # The cache holds exactly one parseable record per distinct request.
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    fingerprints = [r["fingerprint"] for r in records]
    assert len(fingerprints) == 64
    assert len(set(fingerprints)) == 64


def _outcome(index: int) -> CompletionOutcome:
    usage = TokenUsage(index, index + 1, CountingSource.PROVIDER_REPORTED)
    return CompletionOutcome(text=f"answer {index}", usage=usage, model_id="m",
                             request_fingerprint=f"fp{index}")


def test_cache_puts_are_visible_to_a_fresh_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ResponseCache(path)
    for index in range(20):
        cache.put(f"fp{index}", _outcome(index))
    fresh = ResponseCache(path)
    assert len(fresh) == 20
    assert all(fresh.get(f"fp{index}") == _outcome(index) for index in range(20))


def test_cache_without_puts_creates_no_file(tmp_path):
    path = tmp_path / "out" / "cache.jsonl"
    cache = ResponseCache(str(path))
    assert cache.get("fp0") is None
    assert not (tmp_path / "out").exists()


def test_cache_cut_anywhere_in_last_line_resumes_like_uninterrupted(tmp_path, rebound_question):
    def backend_on(path):
        behavior = behavior_from_curve(
            vanilla_tokens=256,
            curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
            default=(300, False),
        )
        return scripted_backend({rebound_question: behavior}, cache=ResponseCache(path))

    full_path = tmp_path / "full.jsonl"
    reference = search_optimal_budget(backend_on(str(full_path)), rebound_question)
    data = full_path.read_bytes()
    last_line = data.rindex(b"\n", 0, len(data) - 1) + 1

    path = tmp_path / "cut.jsonl"
    for cut in range(last_line, len(data)):
        path.write_bytes(data[:cut])
        backend = backend_on(str(path))
        assert search_optimal_budget(backend, rebound_question) == reference
        if cut == len(data) - 1:
            # A complete record without its newline is kept as it is.
            assert backend.upstream_calls == 0
            assert path.read_bytes() == data[:-1]
        else:
            assert backend.upstream_calls == 1
            assert path.read_bytes() == data


def test_cache_completes_an_unterminated_last_record_before_appending(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path))
    cache.put("fp0", _outcome(0))
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    resumed = ResponseCache(str(path))
    resumed.put("fp1", _outcome(1))
    assert len(path.read_bytes().splitlines()) == 2
    assert len(ResponseCache(str(path))) == 2


def test_cache_corrupt_middle_line_names_the_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path))
    for index in range(3):
        cache.put(f"fp{index}", _outcome(index))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:20] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DatasetError, match=r"cache\.jsonl: corrupt cache record at line 2"):
        ResponseCache(str(path))


def _in_threads(count, target):
    """Run target(0..count-1) on as many threads at once, with rapid switching."""
    barrier = threading.Barrier(count)

    def run(index):
        barrier.wait(timeout=10)
        target(index)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_cache_appends_from_many_threads_are_whole_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path))

    def put_own(thread):
        for index in range(thread * 500, (thread + 1) * 500):
            cache.put(f"fp{index}", _outcome(index))

    _in_threads(8, put_own)
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == 4000
    assert sorted(json.loads(line)["fingerprint"] for line in lines) == sorted(
        f"fp{index}" for index in range(4000))
    fresh = ResponseCache(str(path))
    assert all(fresh.get(f"fp{index}") == _outcome(index) for index in range(4000))


def test_cache_puts_of_one_fingerprint_from_many_threads_append_once(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path))
    # Every thread puts the same 1,000 fingerprints, each with its own outcome.
    _in_threads(8, lambda thread: [cache.put(f"fp{index}", _outcome(1000 * thread + index))
                                  for index in range(1000)])
    records = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert sorted(r["fingerprint"] for r in records) == sorted(f"fp{i}" for i in range(1000))
    # The outcome served is the one written.
    assert all(cache.get(r["fingerprint"]).to_dict() == r["outcome"] for r in records)


def test_fingerprint_depends_on_prompt_and_params(fig_like_question):
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT)
    base = request_fingerprint(prompt, DEFAULT_SAMPLING)
    assert base == request_fingerprint(prompt, SamplingParams())
    assert base != request_fingerprint(prompt, SamplingParams(seed=7))
    other = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=3)
    assert base != request_fingerprint(other, DEFAULT_SAMPLING)


# ---------------------------------------------------------------------------
# Scripted fixture files
# ---------------------------------------------------------------------------


def _write_fixture(tmp_path, payload) -> str:
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_scripted_file_round_trip(tmp_path):
    path = _write_fixture(
        tmp_path,
        {
            "name": "demo",
            "default_behavior": {"output_tokens": 40, "correct": False},
            "questions": [
                {
                    "id": "q1",
                    "text": "How many?",
                    "gold_answer": "18",
                    "answer_kind": "numeric",
                    "behavior": {
                        "vanilla": {"output_tokens": 258, "correct": True},
                        "estimate": {"output_tokens": 1, "text": "50"},
                        "budgets": {"50": {"output_tokens": 86, "correct": True}},
                    },
                }
            ],
        },
    )
    scenario = parse_scripted_file(path)
    assert scenario.name == "demo"
    assert scenario.questions[0].answer_kind is AnswerKind.NUMERIC
    assert scenario.behaviors["q1"].cost_curve[50] == ScriptedEntry(86, True, None)
    assert scenario.default_entry == ScriptedEntry(40, False, None)

    backend = ScriptedBackend(scenario)
    prompt = build_prompt(scenario.questions[0], PromptKind.BUDGETED_COT, budget=50)
    assert backend.complete(prompt).usage.output_tokens == 86


def test_parse_scripted_file_rejects_duplicates_and_bad_entries(tmp_path):
    with pytest.raises(DatasetError, match="duplicate"):
        parse_scripted_file(
            _write_fixture(
                tmp_path,
                {
                    "questions": [
                        {"id": "a", "text": "x?", "gold_answer": "1"},
                        {"id": "a", "text": "y?", "gold_answer": "2"},
                    ]
                },
            )
        )
    with pytest.raises(DatasetError, match="vanilla"):
        parse_scripted_file(
            _write_fixture(
                tmp_path,
                {
                    "questions": [
                        {"id": "a", "text": "x?", "gold_answer": "1", "behavior": {"budgets": {}}}
                    ]
                },
            )
        )


# ---------------------------------------------------------------------------
# Live backend against a local OpenAI-compatible server
# ---------------------------------------------------------------------------


FAST_RETRY = RetryPolicy(max_attempts=3, initial_backoff=0.01, jitter=0.0)


def _live(server, **kwargs):
    return LiveBackend(
        endpoint=server.endpoint,
        model_id="gpt-4o-mini",
        api_key="sk-test",
        retry=FAST_RETRY,
        **kwargs,
    )


def test_live_backend_parses_usage_and_sends_protocol_fields(http_server, fig_like_question):
    server = http_server([(200, completion_payload())])
    backend = _live(server)
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, budget=50)
    outcome = backend.complete(prompt)

    assert outcome.text == "The answer is 18."
    assert outcome.usage.input_tokens == 21
    assert outcome.usage.output_tokens == 86
    assert outcome.usage.counting_source is CountingSource.PROVIDER_REPORTED

    sent = server.requests[0]
    assert sent["authorization"] == "Bearer sk-test"
    assert sent["body"]["model"] == "gpt-4o-mini"
    assert sent["body"]["temperature"] == 0.1
    assert sent["body"]["seed"] == 1024
    assert sent["body"]["messages"][1]["content"] == prompt.user


def test_live_backend_missing_usage_falls_back_to_approximation(http_server, fig_like_question):
    server = http_server([(200, completion_payload(usage=False))])
    outcome = _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))
    assert outcome.usage.counting_source is CountingSource.LOCAL_APPROXIMATION
    assert outcome.usage.output_tokens > 0


def test_live_backend_retries_through_429(http_server, fig_like_question):
    server = http_server([(429, {}), (429, {}), (200, completion_payload())])
    outcome = _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))
    assert outcome.text == "The answer is 18."
    assert len(server.requests) == 3


def test_live_backend_persistent_429_raises_rate_limit(http_server, fig_like_question):
    server = http_server([(429, {})] * 5)
    with pytest.raises(RateLimitError):
        _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))
    assert len(server.requests) == FAST_RETRY.max_attempts


def test_live_backend_retries_server_errors_then_transport_error(http_server, fig_like_question):
    server = http_server([(500, {})] * 5)
    with pytest.raises(TransportError):
        _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))


def test_live_backend_malformed_payload_is_protocol_error(http_server, fig_like_question):
    server = http_server([(200, "this is not json")])
    with pytest.raises(ProtocolError) as excinfo:
        _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))
    assert "not json" in excinfo.value.raw_body

    server = http_server([(200, {"choices": []})])
    with pytest.raises(ProtocolError):
        _live(server).complete(build_prompt(fig_like_question, PromptKind.VANILLA_COT))


def test_live_backend_uses_cache(http_server, tmp_path, fig_like_question):
    server = http_server([(200, completion_payload())])
    cache = ResponseCache(str(tmp_path / "cache.jsonl"))
    backend = _live(server, cache=cache)
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT)
    first = backend.complete(prompt)
    second = backend.complete(prompt)
    assert first == second
    assert len(server.requests) == 1


class _ReplayPost:
    """Stands in for LiveBackend._post: each call raises or returns the next reply."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.posts = 0

    def __call__(self, body):
        self.posts += 1
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply, b"{}"


def _replayed(replies, retry, monkeypatch):
    """A live backend on replayed replies; returns it, its replayed post and the sleeps."""
    sleeps = []
    monkeypatch.setattr("tokenbudget.backend.time.sleep", sleeps.append)
    post = _ReplayPost(replies)
    backend = LiveBackend(endpoint="http://127.0.0.1:1/v1/chat/completions",
                          model_id="gpt-4o-mini", api_key="sk-test", retry=retry)
    monkeypatch.setattr(backend, "_post", post)
    return backend, post, sleeps


def test_live_backend_backoff_grows_geometrically_with_no_sleep_after_the_last_attempt(
        monkeypatch, fig_like_question):
    retry = RetryPolicy(max_attempts=4, initial_backoff=0.5, multiplier=3.0, jitter=0.0)
    backend, post, sleeps = _replayed([503] * 4, retry, monkeypatch)
    with pytest.raises(TransportError, match="503"):
        backend.ask(fig_like_question, PromptKind.VANILLA_COT)
    assert post.posts == 4
    assert sleeps == [0.5, 1.5, 4.5]


def test_live_backend_retries_connection_errors_then_transport_error(
        monkeypatch, fig_like_question):
    retry = RetryPolicy(max_attempts=3, initial_backoff=1.0, multiplier=2.0, jitter=0.0)
    refused = ConnectionRefusedError("connection refused")
    backend, post, sleeps = _replayed([refused] * 3, retry, monkeypatch)
    with pytest.raises(TransportError, match="connection refused"):
        backend.ask(fig_like_question, PromptKind.VANILLA_COT)
    assert post.posts == 3
    assert sleeps == [1.0, 2.0]


def test_live_backend_client_error_is_not_retried(monkeypatch, fig_like_question):
    retry = RetryPolicy(max_attempts=5, initial_backoff=1.0, jitter=0.0)
    backend, post, sleeps = _replayed([404], retry, monkeypatch)
    with pytest.raises(ProtocolError, match="HTTP 404"):
        backend.ask(fig_like_question, PromptKind.VANILLA_COT)
    assert post.posts == 1
    assert sleeps == []


# ---------------------------------------------------------------------------
# Keep-alive pool, proxies and packaging
# ---------------------------------------------------------------------------


def _budgeted(question, budget):
    return build_prompt(question, PromptKind.BUDGETED_COT, budget=budget)


def test_live_backend_reuses_one_connection_for_sequential_requests(http_server, fig_like_question):
    server = http_server([(200, completion_payload())] * 3)
    backend = _live(server)
    for budget in (10, 20, 30):
        assert backend.complete(_budgeted(fig_like_question, budget)).text == "The answer is 18."
    assert len(server.requests) == 3
    assert server.server.accepts == 1


def test_live_backend_replaces_a_dropped_idle_connection_without_a_retry(
        http_server, monkeypatch, fig_like_question):
    sleeps = []
    monkeypatch.setattr("tokenbudget.backend.time.sleep", sleeps.append)
    server = http_server([(200, completion_payload(), "drop"), (200, completion_payload())])
    backend = _live(server)
    backend.complete(_budgeted(fig_like_question, 10))
    assert server.server.closed.acquire(timeout=5)
    assert backend.complete(_budgeted(fig_like_question, 20)).text == "The answer is 18."
    assert len(server.requests) == 2
    assert server.server.accepts == 2
    assert sleeps == []


def test_live_backend_does_not_reuse_a_connection_the_server_closes(
        http_server, monkeypatch, fig_like_question):
    sleeps = []
    monkeypatch.setattr("tokenbudget.backend.time.sleep", sleeps.append)
    server = http_server([(200, completion_payload(), "close"), (200, completion_payload())])
    backend = _live(server)
    backend.complete(_budgeted(fig_like_question, 10))
    assert backend._idle == []
    assert backend.complete(_budgeted(fig_like_question, 20)).text == "The answer is 18."
    assert server.server.accepts == 2
    assert sleeps == []


def test_live_backend_pool_holds_every_connection_under_contention(http_server, fig_like_question):
    prompts = [_budgeted(fig_like_question, budget) for budget in range(1, 65)]
    server = http_server([(200, completion_payload())] * len(prompts))
    backend = _live(server)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            outcomes = list(pool.map(backend.complete, prompts, timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert [o.text for o in outcomes] == ["The answer is 18."] * len(prompts)
    # Every connection opened went back to the pool exactly once, and no
    # request waited on or shared another's connection.
    assert 1 <= server.server.accepts <= 16
    assert len(backend._idle) == server.server.accepts
    assert len({id(connection) for connection in backend._idle}) == server.server.accepts


def test_live_backend_reuses_a_connection_numbered_past_1024(http_server, fig_like_question):
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1100:
        pytest.skip(f"RLIMIT_NOFILE is {soft}, too low to open descriptor 1024")
    server = http_server([(200, completion_payload())] * 2)
    backend = _live(server)
    # Fill every descriptor below 1024, so the connection's socket gets one above.
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while held[-1] < 1023:
            held.append(os.dup(held[0]))
        for budget in (10, 20):
            assert backend.complete(_budgeted(fig_like_question, budget)).text == "The answer is 18."
        assert backend._idle[0].sock.fileno() >= 1024
    finally:
        for fd in held:
            os.close(fd)
    assert server.server.accepts == 1


def _proxy_env(monkeypatch, **values):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("no_proxy", ["", "127.0.0.1"], ids=["proxied", "bypassed"])
def test_live_backend_honours_http_proxy_and_no_proxy(
        http_server, monkeypatch, fig_like_question, no_proxy):
    proxy = http_server([(200, completion_payload())])
    upstream = http_server([(200, completion_payload())])
    host, port = proxy.server.server_address
    _proxy_env(monkeypatch, HTTP_PROXY=f"http://{host}:{port}", NO_PROXY=no_proxy)
    outcome = _live(upstream).ask(fig_like_question, PromptKind.VANILLA_COT)
    assert outcome.text == "The answer is 18."
    if no_proxy:
        assert proxy.requests == []
        assert upstream.requests[0]["path"] == urllib.parse.urlsplit(upstream.endpoint).path
    else:
        assert upstream.requests == []
        assert proxy.requests[0]["path"] == upstream.endpoint


def test_live_backend_tunnels_https_through_the_proxy(http_server, monkeypatch, fig_like_question):
    # The proxy answers CONNECT with 501, so the tunnel fails at every attempt.
    proxy = http_server([])
    upstream = http_server([])
    host, port = proxy.server.server_address
    _proxy_env(monkeypatch, HTTPS_PROXY=f"http://{host}:{port}")
    backend = LiveBackend(endpoint=upstream.endpoint.replace("http://", "https://"),
                          model_id="gpt-4o-mini", api_key="sk-test", retry=FAST_RETRY)
    with pytest.raises(TransportError, match="Tunnel connection failed"):
        backend.ask(fig_like_question, PromptKind.VANILLA_COT)
    assert proxy.server.accepts == FAST_RETRY.max_attempts
    assert upstream.server.accepts == 0


def test_import_leaves_requests_out():
    code = "import sys, tokenbudget; print('requests' in sys.modules)"
    src = os.path.dirname(os.path.dirname(tokenbudget.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert result.stdout.strip() == "False"
