"""Scripted mock behavior, response caching, and the live wire protocol."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import ssl
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tokenbudget
from tokenbudget import jsonstream
from tokenbudget.backend import (
    LiveBackend,
    ResponseCache,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    ScriptedBehavior,
    ScriptedEntry,
    ScriptedScenario,
    backend_tag,
    parse_scripted_file,
    read_reply,
    request_fingerprint,
    _decode_line,
    _encode_body,
)
from tokenbudget.cli import build_backend, load_config
from tokenbudget.core import (
    AnswerKind,
    CompletionOutcome,
    CountingSource,
    Question,
    TokenUsage,
    count_tokens_approx,
)
from tokenbudget.errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from tokenbudget.grading import grade
from tokenbudget.prompting import (
    DEFAULT_SYSTEM,
    ESTIMATION_TASK,
    Prompt,
    PromptKind,
    PromptTemplates,
    build_estimation_prompt,
    build_prompt,
)
from tokenbudget.search import search_optimal_budget

from conftest import (
    JSON_VALUES,
    SCRIPTED_TAG,
    TEMPLATES,
    behavior_from_curve,
    completion_payload,
    count_misses,
    make_backend,
    make_question,
    scripted_backend,
)


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


def test_mock_reports_scripted_token_counts(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES)
    outcome = fig_like_backend.complete(prompt)
    assert outcome.usage.output_tokens == 86
    assert outcome.usage.counting_source is CountingSource.PROVIDER_REPORTED


def test_mock_vanilla_entry_serves_no_budget_prompts(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert fig_like_backend.complete(prompt).usage.output_tokens == 258


def test_mock_synthesized_text_grades_as_scripted(fig_like_question, fig_like_backend):
    good = fig_like_backend.complete(
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES)
    )
    assert grade(good.text, fig_like_question).correct

    question = make_question(qid="wrong", text="Impossible one?", gold="7")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={}, vanilla_correct=False)}
    )
    bad = backend.complete(build_prompt(question, PromptKind.VANILLA_COT, None, TEMPLATES))
    assert not grade(bad.text, question).correct


def test_mock_estimation_prompt_uses_estimate_entry(fig_like_question, fig_like_backend):
    outcome = fig_like_backend.complete(build_estimation_prompt(fig_like_question, TEMPLATES))
    assert outcome.text == "50"


def test_mock_unknown_budget_falls_back_to_default(fig_like_question, fig_like_backend):
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 999, TEMPLATES)
    assert fig_like_backend.complete(prompt).usage.output_tokens == 200


def test_mock_without_entry_or_fallback_is_loud():
    question = make_question(qid="sparse", text="Sparse?", gold="1")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=10, curve={})}
    )
    with pytest.raises(ConfigError):
        backend.complete(build_prompt(question, PromptKind.BUDGETED_COT, 4, TEMPLATES))


def test_mock_unmatched_prompt_is_loud(fig_like_backend):
    stranger = make_question(qid="x", text="Entirely different text?", gold="1")
    with pytest.raises(ConfigError):
        fig_like_backend.complete(build_prompt(stranger, PromptKind.VANILLA_COT, None, TEMPLATES))


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
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 10, TEMPLATES),
        build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES),
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES),
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
    outcome = backend.complete(build_prompt(long, PromptKind.VANILLA_COT, None, TEMPLATES))
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
    prompt = build_prompt(second, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert backend.complete(prompt).usage.output_tokens == 11


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


@pytest.mark.parametrize("templates", [TEMPLATES, OVERRIDDEN_TEMPLATES],
                         ids=["default", "overridden"])
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
    }
    assert served[PromptKind.DIRECT_ANSWER].usage.output_tokens == base
    assert served[PromptKind.VANILLA_COT].usage.output_tokens == base
    assert served[PromptKind.BUDGETED_COT].usage.output_tokens == base + 8
    assert served[PromptKind.BUDGET_ESTIMATION].text == str(base + 1)
    # The bare format instruction carries no question at all.
    with pytest.raises(ConfigError):
        backend.complete(Prompt(system=templates.system, user=templates.format_instruction))


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
    vanilla = build_prompt(question, PromptKind.VANILLA_COT, None, templates)
    assert backend.complete(vanilla).usage.output_tokens == 100
    budgeted = build_prompt(question, PromptKind.BUDGETED_COT, budget=8, templates=templates)
    assert backend.complete(budgeted).usage.output_tokens == 7

    default_wording = make_question(qid="dw", text="Can you use less than 50 tokens here?", gold="1")
    backend = scripted_backend(
        {default_wording: behavior_from_curve(vanilla_tokens=100, curve={50: (7, True)},
                                              default=(5, True))}
    )
    vanilla = build_prompt(default_wording, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert backend.complete(vanilla).usage.output_tokens == 100


# Text that tests the count of a prompt in parts: punctuation, white space that
# str.split splits at (\x0b, \x1c, \x85, \u3000) or not (\u200b), multi-byte
# UTF-8 and lone surrogates. No brace, so a budgeted suffix renders as drawn.
_COUNTED = st.text(st.one_of(
    st.sampled_from(" \n\t\x0b\x1c\x85\u3000\u200b.,:'?!\u00e9\u6f22\U0001f600\ud800\udfff"),
    st.characters(max_codepoint=127).filter(lambda c: c not in "{}"),
), max_size=12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scripted_input_count_is_the_count_of_the_whole_prompt(data):
    # Question texts that may be a default template line, and drawn
    # templates whose lines may be a question text.
    texts = data.draw(st.lists(
        _COUNTED.filter(bool) | st.sampled_from([ESTIMATION_TASK, "Let's think step by step:",
                                                  "Respond with a single integer.", "a\n"]),
        min_size=1, max_size=3, unique=True))
    line = _COUNTED | st.sampled_from(texts)
    templates = data.draw(st.just(TEMPLATES) | st.builds(
        PromptTemplates, system=line, vanilla_suffix=line, estimation_task=line,
        estimation_contract=line, format_instruction=line,
        budgeted_suffix=st.builds("{}{{budget}}{}".format, _COUNTED, _COUNTED)))
    questions = [
        Question(id=f"q{index}", text=text, gold_answer="A",
                 answer_kind=data.draw(st.sampled_from([AnswerKind.NUMERIC,
                                                        AnswerKind.MULTIPLE_CHOICE])))
        for index, text in enumerate(texts)]
    scenario = ScriptedScenario(name="counted", questions=questions, behaviors={},
                                default_entry=ScriptedEntry(5))
    backend = make_backend(ScriptedBackend, scenario, templates=templates)
    budget = data.draw(st.integers(min_value=1, max_value=10**6))
    for _ in range(2):  # the second round counts each question from its first count
        for question in questions:
            for kind in PromptKind:
                prompt = build_prompt(question, kind, budget=budget, templates=templates)
                assert backend.complete(prompt).usage.input_tokens == (
                    count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user))


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
    budgeted = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES)
    vanilla = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    tiny = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 10, TEMPLATES)
    assert fig_like_backend.complete(budgeted).usage.output_tokens == 86
    assert fig_like_backend.complete(vanilla).usage.output_tokens == 258
    assert fig_like_backend.complete(tiny).usage.output_tokens == 157


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_idempotence_one_upstream_call(tmp_path, fig_like_question):
    cache = ResponseCache(str(tmp_path / "cache.jsonl"), SCRIPTED_TAG)
    backend = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={50: (86, True)})},
        cache=cache,
    )
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES)
    misses = count_misses(backend)
    first = backend.complete(prompt)
    second = backend.complete(prompt)
    assert first == second
    assert misses() == 1
    assert json.dumps(_outcome_dict(first)) == json.dumps(_outcome_dict(second))


def test_cache_survives_reload(tmp_path, fig_like_question):
    path = str(tmp_path / "cache.jsonl")
    backend = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={})},
        cache=ResponseCache(path, SCRIPTED_TAG),
    )
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    original = backend.complete(prompt)

    resumed = scripted_backend(
        {fig_like_question: behavior_from_curve(vanilla_tokens=258, curve={})},
        cache=ResponseCache(path, SCRIPTED_TAG),
    )
    misses = count_misses(resumed)
    assert resumed.complete(prompt) == original
    assert misses() == 0


def test_concurrent_cached_completions_are_consistent(tmp_path, fig_like_question):
    path = str(tmp_path / "cache.jsonl")
    backend = scripted_backend(
        {
            fig_like_question: behavior_from_curve(
                vanilla_tokens=258,
                curve={b: (b + 7, True) for b in range(1, 65)},
            )
        },
        cache=ResponseCache(path, SCRIPTED_TAG),
    )
    prompts = [
        build_prompt(fig_like_question, PromptKind.BUDGETED_COT, b, TEMPLATES)
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


def _outcome_dict(outcome: CompletionOutcome) -> dict:
    """The reference for the ``outcome`` object of a cache line."""
    usage = outcome.usage
    return {"text": outcome.text, "model_id": outcome.model_id,
            "request_fingerprint": outcome.request_fingerprint,
            "usage": {"input_tokens": usage.input_tokens, "output_tokens": usage.output_tokens,
                      "counting_source": usage.counting_source.value}}


def test_cache_puts_are_visible_to_a_fresh_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = ResponseCache(path, SCRIPTED_TAG)
    for index in range(20):
        cache.put(f"fp{index}", _outcome(index))
    fresh = ResponseCache(path, SCRIPTED_TAG)
    assert len(fresh) == 20
    assert all(fresh.get(f"fp{index}") == _outcome(index) for index in range(20))


def test_cache_without_puts_creates_no_file(tmp_path):
    path = tmp_path / "out" / "cache.jsonl"
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    assert cache.get("fp0") is None
    assert not (tmp_path / "out").exists()


def test_cache_cut_at_any_byte_resumes_like_uninterrupted(tmp_path, rebound_question):
    def backend_on(path):
        behavior = behavior_from_curve(
            vanilla_tokens=256,
            curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
            default=(300, False),
        )
        return scripted_backend({rebound_question: behavior},
                                cache=ResponseCache(path, SCRIPTED_TAG))

    full_path = tmp_path / "full.jsonl"
    reference = search_optimal_budget(backend_on(str(full_path)), rebound_question, "probe")
    data = full_path.read_bytes()
    line_ends = [index + 1 for index, byte in enumerate(data) if byte == ord("\n")]

    path = tmp_path / "cut.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        backend = backend_on(str(path))
        misses = count_misses(backend)
        assert search_optimal_budget(backend, rebound_question, "probe") == reference
        # Whole lines before the cut are served; so is a record cut only
        # before its newline. Every other request is issued again.
        served = sum(1 for end in line_ends if end <= cut + 1)
        assert misses() == len(line_ends) - served
        assert path.read_bytes() == (data[:-1] if cut == len(data) - 1 else data)


def test_cache_completes_an_unterminated_last_record_before_appending(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    cache.put("fp0", _outcome(0))
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    resumed = ResponseCache(str(path), SCRIPTED_TAG)
    resumed.put("fp1", _outcome(1))
    assert len(path.read_bytes().splitlines()) == 2
    assert len(ResponseCache(str(path), SCRIPTED_TAG)) == 2


def test_cache_corrupt_middle_line_names_the_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    for index in range(3):
        cache.put(f"fp{index}", _outcome(index))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:20] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DatasetError, match=r"cache\.jsonl: corrupt cache record at line 2"):
        ResponseCache(str(path), SCRIPTED_TAG)


def test_cache_corrupt_body_behind_an_intact_prefix_is_never_served(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    for index in range(3):
        cache.put(f"fp{index}", _outcome(index))
    lines = path.read_bytes().splitlines(keepends=True)
    assert b'"text": "answer 1"' in lines[1]
    lines[1] = lines[1].replace(b'"text": "answer 1"', b'"text": answer 1"')
    path.write_bytes(b"".join(lines))

    resumed = ResponseCache(str(path), SCRIPTED_TAG)
    assert len(resumed) == 3
    for _ in range(2):
        with pytest.raises(DatasetError, match=r"cache\.jsonl: corrupt cache record at line 2"):
            resumed.get("fp1")
    assert [resumed.get("fp0"), resumed.get("fp2")] == [_outcome(0), _outcome(2)]


def test_cache_line_rewritten_under_an_open_cache_is_never_served(tmp_path):
    path = tmp_path / "cache.jsonl"
    writer = ResponseCache(str(path), SCRIPTED_TAG)
    for index in range(3):
        writer.put(f"fp{index}", _outcome(index))
    lines = path.read_bytes().splitlines(keepends=True)
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    # Lines 1 and 2 trade places: each offset now holds a whole record of
    # another fingerprint.
    path.write_bytes(lines[1] + lines[0] + lines[2])
    for fingerprint, number in (("fp0", 1), ("fp1", 2)):
        with pytest.raises(DatasetError, match=rf"cache\.jsonl: corrupt cache record at line "
                                               rf"{number}: not the record of '{fingerprint}'"):
            cache.get(fingerprint)
    # Another backend's record of the same fingerprint, at the same offset.
    other = backend_tag("scripted", "other-model", None)
    path.write_bytes(b"".join(lines).replace(SCRIPTED_TAG.encode(), other.encode(), 1))
    with pytest.raises(DatasetError, match=r"cache record at line 1: not the record of 'fp0'"):
        cache.get("fp0")
    # A longer line 1 shifts the later offsets into the middle of a line: the
    # old start of line 3 is now inside line 2.
    path.write_bytes(lines[0].replace(b"answer 0", b"answer 0 and more") + lines[1] + lines[2])
    with pytest.raises(DatasetError, match=r"corrupt cache record at line 2"):
        cache.get("fp2")


def test_cache_load_holds_no_answer_text(tmp_path):
    def held_per_entry(text_length: int) -> float:
        path = str(tmp_path / f"cache{text_length}.jsonl")
        writer = ResponseCache(path, SCRIPTED_TAG)
        for index in range(500):
            writer.put(f"{index:064x}", CompletionOutcome(
                text="x" * text_length, usage=TokenUsage(index, 1, CountingSource.PROVIDER_REPORTED),
                model_id="m", request_fingerprint=f"{index:064x}"))
        del writer
        tracemalloc.start()
        try:
            cache = ResponseCache(path, SCRIPTED_TAG)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cache) == 500 and cache.get(f"{7:064x}").text == "x" * text_length
        return held / 500

    short, long = held_per_entry(16), held_per_entry(4096)
    assert long < 512 and long - short < 16, (short, long)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors via /proc")
def test_dropped_caches_leave_no_descriptor_open(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(str(path), SCRIPTED_TAG).put("fp0", _outcome(0))
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_bytes(path.read_bytes()[:20] + b"\n" + path.read_bytes())
    watched = {os.path.realpath(path), os.path.realpath(corrupt)}

    def open_on_the_caches() -> int:
        """Descriptors of this process on the two cache files; no other test's count."""
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                count += os.readlink(f"/proc/self/fd/{fd}") in watched
            except OSError:  # the descriptor that listed the directory, closed since
                pass
        return count

    assert open_on_the_caches() == 0
    errors = []
    for index in range(200):
        cache = ResponseCache(str(path), SCRIPTED_TAG)
        assert cache.get("fp0") == _outcome(0)
        cache.put(f"fp{index + 1}", _outcome(index + 1))
        with pytest.raises(DatasetError, match="line 1") as error:
            ResponseCache(str(corrupt), SCRIPTED_TAG)
        errors.append(error.value)
    assert open_on_the_caches() == 2  # the live cache's reader and appender
    del cache
    # A load that fails closes its descriptor, even while its error is held.
    assert open_on_the_caches() == 0


def test_cache_indexes_any_fingerprint_string(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    keys = ['fp"quoted"', "back\\slash", 'x", "outcome": {', "caf\u00e9 \u2603", "\ud800", ""]
    cache = ResponseCache(path, SCRIPTED_TAG)
    for index, key in enumerate(keys):
        cache.put(key, _outcome(index))
    fresh = ResponseCache(path, SCRIPTED_TAG)
    assert len(fresh) == len(keys)
    assert [fresh.get(key) for key in keys] == [_outcome(index) for index in range(len(keys))]


def test_cache_serves_only_the_lines_of_its_own_backend(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    other = backend_tag("scripted", "other-model", None)
    assert len(other) == 16 and other != backend_tag("scripted", "scripted-v1", None)
    ResponseCache(path, SCRIPTED_TAG).put("fp0", _outcome(0))
    theirs = ResponseCache(path, other)
    assert len(theirs) == 0 and theirs.get("fp0") is None
    theirs.put("fp0", _outcome(1))
    assert ResponseCache(path, SCRIPTED_TAG).get("fp0") == _outcome(0)
    assert ResponseCache(path, other).get("fp0") == _outcome(1)


def test_cache_of_an_older_format_is_rejected_naming_the_format(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"fingerprint": "fp0", "outcome": _outcome_dict(_outcome(0))}
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    with pytest.raises(DatasetError, match=r"line 1: not a tokenbudget-cache/2 record"):
        ResponseCache(str(path), SCRIPTED_TAG)


def test_cache_does_not_serve_another_endpoint(http_server, tmp_path, monkeypatch,
                                               fig_like_question):
    """config -> build_backend, on one out-dir, against two local endpoints."""
    first = http_server([(200, completion_payload("The answer is 18."))])
    second = http_server([(200, completion_payload("The answer is 17."))])
    monkeypatch.setenv("TOKENBUDGET_TEST_KEY", "sk-test")

    def backend_for(server):
        config = tmp_path / "live.json"
        config.write_text(json.dumps({"backend": {
            "kind": "live", "endpoint": server.endpoint, "model_id": "gpt-4o-mini",
            "credential_env": "TOKENBUDGET_TEST_KEY",
        }}))
        return build_backend(load_config(str(config)), str(tmp_path / "out"), "unused")

    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    assert backend_for(first).complete(prompt).text == "The answer is 18."
    assert backend_for(second).complete(prompt).text == "The answer is 17."
    # Each endpoint's answer is served back to it from the one cache file.
    assert backend_for(first).complete(prompt).text == "The answer is 18."
    assert backend_for(second).complete(prompt).text == "The answer is 17."
    assert (len(first.requests), len(second.requests)) == (1, 1)
    assert len((tmp_path / "out" / "cache.jsonl").read_bytes().splitlines()) == 2


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
    cache = ResponseCache(str(path), SCRIPTED_TAG)

    def put_own(thread):
        for index in range(thread * 500, (thread + 1) * 500):
            cache.put(f"fp{index}", _outcome(index))

    _in_threads(8, put_own)
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == 4000
    assert sorted(json.loads(line)["fingerprint"] for line in lines) == sorted(
        f"fp{index}" for index in range(4000))
    fresh = ResponseCache(str(path), SCRIPTED_TAG)
    assert all(fresh.get(f"fp{index}") == _outcome(index) for index in range(4000))


def test_first_gets_and_fingerprints_from_many_threads_agree(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    writer = ResponseCache(path, SCRIPTED_TAG)
    for index in range(1000):
        writer.put(f"fp{index}", _outcome(index))
    cache, params = ResponseCache(path, SCRIPTED_TAG), SamplingParams(temperature=0.5)
    prompts = [Prompt(system=DEFAULT_SYSTEM, user=f"Q{index}?") for index in range(1000)]
    wrong = []

    def read_all(thread):
        for index in range(1000):
            if cache.get(f"fp{index}") != _outcome(index):
                wrong.append(("get", index))
            prompt = prompts[index]
            if request_fingerprint(prompt, params) != _reference_fingerprint(prompt, params):
                wrong.append(("fingerprint", index))

    _in_threads(8, read_all)
    assert wrong == []


def test_cache_puts_of_one_fingerprint_from_many_threads_append_once(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(str(path), SCRIPTED_TAG)
    # Every thread puts the same 1,000 fingerprints, each with its own outcome.
    _in_threads(8, lambda thread: [cache.put(f"fp{index}", _outcome(1000 * thread + index))
                                  for index in range(1000)])
    records = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert sorted(r["fingerprint"] for r in records) == sorted(f"fp{i}" for i in range(1000))
    # The outcome served is the one written.
    assert all(_outcome_dict(cache.get(r["fingerprint"])) == r["outcome"] for r in records)


def test_fingerprint_depends_on_prompt_and_params(fig_like_question):
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    params = SamplingParams()
    base = request_fingerprint(prompt, params)
    assert base == request_fingerprint(prompt, SamplingParams())
    assert base != request_fingerprint(prompt, SamplingParams(seed=7))
    other = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 3, TEMPLATES)
    assert base != request_fingerprint(other, params)


def _reference_fingerprint(prompt, params) -> str:
    """The cache key's definition: sha256 of the sorted-key, ASCII JSON."""
    payload = {
        "system": prompt.system,
        "user": prompt.user,
        "temperature": params.temperature,
        "seed": params.seed,
        "max_candidates": params.max_candidates,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Quotes, backslashes, control and non-ASCII characters and lone surrogates.
_ANY_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u2028\u00e9\U0001f600\ud800\udfff'),
    st.characters(blacklist_categories=()),
))
_TEMPERATURES = st.one_of(
    st.sampled_from([0.0, -0.0, 1, 1.0, 0.1, 2, 2.0]),
    st.integers(min_value=0, max_value=10**20),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
_SEEDS = st.one_of(st.integers(), st.booleans())


@given(system=_ANY_TEXT, users=st.lists(_ANY_TEXT, min_size=1, max_size=3),
       temperature=_TEMPERATURES, seed=_SEEDS)
def test_fingerprint_is_the_hash_of_the_canonical_json(system, users, temperature, seed):
    params = SamplingParams(temperature=temperature, seed=seed)
    # Later prompts of one (params, system) reuse the hashed prefix.
    for user in users:
        prompt = Prompt(system=system, user=user)
        assert request_fingerprint(prompt, params) == _reference_fingerprint(prompt, params)


@pytest.mark.parametrize("first, second", [
    (SamplingParams(temperature=0.0), SamplingParams(temperature=-0.0)),
    (SamplingParams(temperature=1), SamplingParams(temperature=1.0)),
    (SamplingParams(seed=1), SamplingParams(seed=True)),
])
def test_fingerprint_keeps_equal_params_that_render_differently_apart(first, second):
    assert first == second
    prompt = Prompt(system=DEFAULT_SYSTEM, user="Q?")
    keys = [request_fingerprint(prompt, params) for params in (first, second, first, second)]
    assert keys == [_reference_fingerprint(prompt, p) for p in (first, second, first, second)]
    assert keys[0] != keys[1]


# Counts up to and past 2**63, where a fixed-width integer would wrap.
_COUNTS = st.one_of(st.integers(min_value=0, max_value=2**64 + 1),
                    st.sampled_from([2**63 - 1, 2**63, 2**64]))
_OUTCOMES = st.builds(
    CompletionOutcome,
    text=_ANY_TEXT,
    usage=st.builds(TokenUsage, _COUNTS, _COUNTS, st.sampled_from(CountingSource)),
    model_id=_ANY_TEXT,
    request_fingerprint=_ANY_TEXT,
)


def _record(model_id: str, fingerprint: str, outcome: CompletionOutcome) -> dict:
    return {"backend": backend_tag("scripted", model_id, None), "fingerprint": fingerprint,
            "outcome": _outcome_dict(outcome)}


def _reversed_keys(value):
    """``value`` with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return value


def _reference_decode(line: bytes):
    record = json.loads(line)
    outcome, usage = record["outcome"], record["outcome"]["usage"]
    return record["backend"], record["fingerprint"], CompletionOutcome(
        text=outcome["text"],
        usage=TokenUsage(usage["input_tokens"], usage["output_tokens"],
                         CountingSource(usage["counting_source"])),
        model_id=outcome["model_id"],
        request_fingerprint=outcome["request_fingerprint"],
    )


@given(model_id=_ANY_TEXT, fingerprint=_ANY_TEXT, outcome=_OUTCOMES)
def test_cache_line_is_the_sorted_key_json_of_its_record(model_id, fingerprint, outcome):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cache.jsonl")
        record = _record(model_id, fingerprint, outcome)
        ResponseCache(path, record["backend"]).put(fingerprint, outcome)
        with open(path, "rb") as handle:
            line = handle.read()
        assert line == (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        # Served as json.loads reads the line back: JSON joins the escapes of
        # a surrogate pair into one character.
        served = ResponseCache(path, record["backend"]).get(_reference_decode(line)[1])
        assert served == _reference_decode(line)[2]


@given(model_id=_ANY_TEXT, fingerprint=_ANY_TEXT, outcome=_OUTCOMES,
       separators=st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " :\r\n")]),
       reverse=st.booleans(), ensure_ascii=st.booleans(),
       padding=st.tuples(*[st.text(" \t\n\r", max_size=3)] * 2))
def test_decode_line_reads_a_line_as_json_loads_does(model_id, fingerprint, outcome, separators,
                                                    reverse, ensure_ascii, padding):
    record = _record(model_id, fingerprint, outcome)
    if reverse:
        record = _reversed_keys(record)
    text = json.dumps(record, separators=separators, ensure_ascii=ensure_ascii)
    line = (padding[0] + text + padding[1]).encode("utf-8", "surrogatepass")
    assert _decode_line(line) == _reference_decode(line)


@given(outcome=_OUTCOMES, garbage=st.text(min_size=1).filter(lambda g: g.strip(" \t\n\r")))
def test_decode_line_refuses_data_after_the_record(outcome, garbage):
    line = (json.dumps(_record("m", "fp", outcome), sort_keys=True) + garbage + "\n").encode()
    with pytest.raises(ValueError):
        json.loads(line)
    with pytest.raises(ValueError):
        _decode_line(line)


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

    backend = make_backend(ScriptedBackend, scenario)
    prompt = build_prompt(scenario.questions[0], PromptKind.BUDGETED_COT, 50, TEMPLATES)
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


def _reference_parse_entry(data, where):
    try:
        output_tokens = int(data["output_tokens"])
        text = data.get("text")
        if output_tokens < 0:
            raise ValueError(f"output_tokens must be >= 0, got {output_tokens}")
        if text is not None and not isinstance(text, str):
            raise TypeError(f"text must be a string, got {text!r}")
        return ScriptedEntry(output_tokens=output_tokens, correct=bool(data.get("correct", True)),
                             text=text)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"bad scripted entry at {where}: {exc}") from exc


def _reference_object(value, where):
    if not isinstance(value, dict):
        raise DatasetError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reference_parse_scripted_file(path):
    """The parser as it was before entries were cached: every entry checked
    and built on its own, every location formatted up front. Only the
    ``OverflowError`` of an infinite count is caught here as well."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    _reference_object(data, f"{path}: the scripted fixture")
    items = data.get("questions", [])
    if not isinstance(items, list):
        raise DatasetError(f"{path}: questions must be a JSON list, got {type(items).__name__}")
    questions, behaviors, seen_ids = [], {}, set()
    for index, item in enumerate(items):
        where = f"{path} questions[{index}]"
        _reference_object(item, f"question at {where}")
        try:
            text = item["text"]
            if not isinstance(text, str):
                raise TypeError(f"text must be a string, got {text!r}")
            question = Question(
                id=str(item["id"]),
                text=text,
                gold_answer=str(item.get("gold_answer", "")),
                answer_kind=AnswerKind(item.get("answer_kind", "numeric")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"bad question at {where}: {exc}") from exc
        if question.id in seen_ids:
            raise DatasetError(f"duplicate question id {question.id!r} at {where}")
        seen_ids.add(question.id)
        questions.append(question)
        raw = item.get("behavior")
        if raw is None:
            continue
        _reference_object(raw, f"behavior at {where}")
        if "vanilla" not in raw:
            raise DatasetError(f"behavior at {where} is missing its vanilla entry")
        curve = {}
        for key, entry in _reference_object(raw.get("budgets", {}), f"budgets at {where}").items():
            try:
                budget = int(key)
            except ValueError as exc:
                raise DatasetError(f"bad budget at {where}.budgets: {exc}") from exc
            curve[budget] = _reference_parse_entry(entry, f"{where}.budgets[{key}]")
        behaviors[question.id] = ScriptedBehavior(
            vanilla=_reference_parse_entry(raw["vanilla"], f"{where}.vanilla"),
            cost_curve=curve,
            estimate=_reference_parse_entry(raw["estimate"], f"{where}.estimate")
            if "estimate" in raw else None,
            default=_reference_parse_entry(raw["default"], f"{where}.default")
            if "default" in raw else None,
        )
    default_entry = None
    if "default_behavior" in data:
        default_entry = _reference_parse_entry(data["default_behavior"], f"{path} default_behavior")
    return ScriptedScenario(name=data.get("name", os.path.basename(path)), questions=questions,
                            behaviors=behaviors, default_entry=default_entry)


# Small pools, so that one fixture repeats an entry under raw values that
# differ only as 1/1.0/true, "correct": 1/true, or text present/absent.
_GOOD_TOKENS = st.sampled_from([0, 1, 1.0, True, False, -0.0, -0.5, 2, 2.5, "3", " 4 ",
                                10**20, 1e20])
_CORRECT = st.sampled_from([True, False, 1, 0, 1.0, 0.0, "", "no", None, [], [0], {}])
_ENTRY_TEXTS = st.sampled_from([None, "", "The answer is 1.", "~50"])
_ENTRIES = st.fixed_dictionaries({"output_tokens": _GOOD_TOKENS}, optional={
    "correct": _CORRECT, "text": _ENTRY_TEXTS, "note": st.just("ignored")})
_BUDGET_KEYS = st.sampled_from(["1", "8", "50", "050", " 7", "-3", "+4", "1_0"])
_BEHAVIORS = st.fixed_dictionaries({"vanilla": _ENTRIES}, optional={
    "budgets": st.dictionaries(_BUDGET_KEYS, _ENTRIES, max_size=4),
    "estimate": _ENTRIES,
    "default": _ENTRIES,
})
_QUESTIONS = st.fixed_dictionaries({
    "text": st.sampled_from(["Q?", "What is 3 + 4?", "Pick:\nA. 1"]),
    "gold_answer": st.sampled_from(["1", "A", 7]),
}, optional={
    "answer_kind": st.sampled_from([kind.value for kind in AnswerKind]),
    "source": st.sampled_from(["s", 5]),
    "behavior": _BEHAVIORS,
})
_FIXTURES = st.fixed_dictionaries({
    "questions": st.lists(_QUESTIONS, min_size=1, max_size=6).map(
        lambda items: [dict(item, id=f"q{index}" if index % 2 else index)
                       for index, item in enumerate(items)]),
}, optional={"name": st.just("drawn"), "default_behavior": _ENTRIES})


def _with_tokens(values):
    return st.fixed_dictionaries({"output_tokens": st.sampled_from(values)},
                                 optional={"correct": _CORRECT, "text": _ENTRY_TEXTS})


# Each way an entry can be refused, drawn at any entry of a fixture.
_BAD_ENTRIES = {
    "entry-not-an-object": st.sampled_from([[], [{"output_tokens": 1}], 5, "x", None, True]),
    "entry-without-tokens": st.fixed_dictionaries({}, optional={"correct": _CORRECT,
                                                                "text": _ENTRY_TEXTS}),
    "tokens-negative": _with_tokens([-1, -2.5, "-4"]),
    "tokens-not-a-number": _with_tokens(["abc", "", "1.5", None, [], {}, [1]]),
    "tokens-nan": _with_tokens([float("nan")]),
    "tokens-infinite": _with_tokens([float("inf"), float("-inf")]),
    "text-not-a-string": st.fixed_dictionaries(
        {"output_tokens": _GOOD_TOKENS, "text": st.sampled_from([5, 1.0, True, ["x"], {}])},
        optional={"correct": _CORRECT}),
}
_CORRUPTIONS = [*_BAD_ENTRIES, "budget-key", "no-vanilla", "behavior", "budgets", "question",
                "text", "no-id", "duplicate-id", "answer-kind", "no-gold", "fixture",
                "questions"]


def _entry_places(fixture) -> list:
    """(container, key) of every scripted entry of a fixture."""
    places = [(fixture, "default_behavior")] if "default_behavior" in fixture else []
    for item in fixture["questions"]:
        behavior = item.get("behavior")
        if behavior:
            places += [(behavior, key) for key in ("vanilla", "estimate", "default")
                       if key in behavior]
            places += [(behavior["budgets"], key) for key in behavior.get("budgets", {})]
    return places


def _corruptible(document) -> bool:
    """Whether every place ``_corrupt`` reaches is still where it expects."""
    if not isinstance(document, dict) or not isinstance(document.get("questions"), list):
        return False
    for item in document["questions"]:
        if not isinstance(item, dict):
            return False
        behavior = item.get("behavior", {})
        if not isinstance(behavior, dict) or not isinstance(behavior.get("budgets", {}), dict):
            return False
    return True


def _corrupt(document, how: str, draw):
    """``document`` broken in the way ``how`` names, at a drawn place."""
    item = draw(st.sampled_from(document["questions"]))
    behavior = item.setdefault("behavior", {"vanilla": {"output_tokens": 1}})
    places = _entry_places(document)
    if how in _BAD_ENTRIES and places:
        container, key = draw(st.sampled_from(places))
        container[key] = draw(_BAD_ENTRIES[how])
    elif how == "budget-key":
        key = draw(st.sampled_from(["ten", "1.5", "", "0x10", "1e3"]))
        behavior.setdefault("budgets", {})[key] = {"output_tokens": 1}
    elif how == "no-vanilla":
        behavior.pop("vanilla", None)
    elif how == "behavior":
        item["behavior"] = draw(st.sampled_from([[], 5, "b"]))
    elif how == "budgets":
        behavior["budgets"] = draw(st.sampled_from([[], 5, "b", None]))
    elif how == "question":
        document["questions"][document["questions"].index(item)] = draw(
            st.sampled_from([[], "q", 5, None]))
    elif how == "text":
        item["text"] = draw(st.sampled_from([5, None, ["Q?"], ""]))
    elif how == "no-id":
        item.pop("id", None)
    elif how == "duplicate-id":
        document["questions"].append(dict(item))
    elif how == "answer-kind":
        item["answer_kind"] = draw(st.sampled_from(["nope", ["x"], 5, None]))
    elif how == "no-gold":
        item.pop("gold_answer", None)
        item["answer_kind"] = "numeric"
    elif how == "fixture":
        return [document]
    elif how == "questions":
        document["questions"] = draw(st.sampled_from([{}, "q", 5]))
    return document


def _parse_text(text: str, window: int = jsonstream.WINDOW) -> list:
    """What the parser, reading through a window of ``window`` characters,
    and the reference parser make of a fixture file holding ``text``: the
    scenario and its repr, or the DatasetError text."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fixture.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        outcomes = []
        for parse in (parse_scripted_file, _reference_parse_scripted_file):
            try:
                with mock.patch.object(jsonstream, "WINDOW", window):
                    scenario = parse(path)
            except DatasetError as exc:
                outcomes.append(str(exc))
            else:
                # repr tells apart what == does not: an entry's 1 from 1.0 or True.
                outcomes.append((scenario, repr(scenario)))
        return outcomes


def _parse_both(document, window: int = jsonstream.WINDOW) -> list:
    return _parse_text(json.dumps(document), window)


# Windows of a few characters, so that every element of a fixture, and most
# of their tokens, straddle a window's edge.
_FEW = st.sampled_from([1, 2, 3, 5, 8])


def _build_check(fixture, window):
    built, reference = _parse_both(fixture, window)
    assert isinstance(built, tuple), built
    assert built == reference


@given(fixture=_FIXTURES)
def test_parse_scripted_file_builds_what_the_reference_parser_builds(fixture):
    _build_check(fixture, jsonstream.WINDOW)


@given(fixture=_FIXTURES, window=_FEW)
def test_a_window_of_a_few_characters_builds_what_the_reference_parser_builds(fixture, window):
    _build_check(fixture, window)


def _refusal_check(how, fixture, more, draw, window):
    # The first corruption in parse order names the error, in both parsers.
    document = _corrupt(fixture, how, draw)
    for then in more:
        if not _corruptible(document):
            break
        document = _corrupt(document, then, draw)
    refused, reference = _parse_both(document, window)
    assert isinstance(refused, str), refused
    assert refused == reference


@pytest.mark.parametrize("how", _CORRUPTIONS)
@settings(max_examples=15)
@given(fixture=_FIXTURES, more=st.lists(st.sampled_from(_CORRUPTIONS), max_size=2),
       data=st.data())
def test_parse_scripted_file_refuses_what_the_reference_parser_refuses(how, fixture, more, data):
    _refusal_check(how, fixture, more, data.draw, jsonstream.WINDOW)


@pytest.mark.parametrize("how", _CORRUPTIONS)
@settings(max_examples=8)
@given(fixture=_FIXTURES, more=st.lists(st.sampled_from(_CORRUPTIONS), max_size=2),
       data=st.data(), window=_FEW)
def test_a_window_of_a_few_characters_refuses_what_the_reference_parser_refuses(
        how, fixture, more, data, window):
    _refusal_check(how, fixture, more, data.draw, window)


# A value a top-level key may take besides its own: a cohort, a bad one, or
# something of another shape.
_TOP_VALUES = st.one_of(_FIXTURES.map(lambda fixture: fixture["questions"]),
                        st.just([{"id": "q", "text": ""}]), _ENTRIES,
                        st.sampled_from(["drawn", 5, None, [], {}, [[]]]))


@given(fixture=_FIXTURES, window=st.sampled_from([3, jsonstream.WINDOW]), data=st.data(),
       extra=st.lists(st.tuples(st.sampled_from(["questions", "name", "default_behavior", "notes"]),
                                _TOP_VALUES), max_size=3))
def test_keys_in_any_order_and_repeated_are_read_as_json_load_reads_them(fixture, window, data,
                                                                         extra):
    # A repeated key counts with its last value: an earlier cohort, and any
    # refusal of it, is dropped.
    members = data.draw(st.permutations([*fixture.items(), *extra]))
    text = "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in members) + "}"
    parsed, reference = _parse_text(text, window)
    assert parsed == reference


@settings(max_examples=80)
@given(fixture=_FIXTURES, indent=st.sampled_from([None, 1]), window=st.sampled_from([2, 7, 4096]),
       corruption=st.sampled_from([None, *_CORRUPTIONS]), data=st.data(),
       edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from([*'{}[],:"\\ \n1.x', ""]),
                                st.booleans()), min_size=1, max_size=2))
def test_a_syntax_error_anywhere_comes_before_every_other_refusal(fixture, indent, window,
                                                                  corruption, data, edits):
    # A fixture, maybe refused for its content, with a character inserted,
    # replaced or deleted: both parsers give one outcome, a syntax error
    # first, wherever it is.
    document = fixture if corruption is None else _corrupt(fixture, corruption, data.draw)
    text = json.dumps(document, indent=indent)
    for where, char, insert in edits:
        at = int(where * len(text))
        text = text[:at] + char + text[at + (not insert):]
    parsed, reference = _parse_text(text, window)
    assert parsed == reference


def test_a_fixture_load_holds_one_question_at_a_time(tmp_path):
    # Peak minus retained memory of a whole-file json.load grows with the
    # file: 5.6 MB on the 2.4 MB fixture of the benchmark's cohort.
    questions = [{
        "id": f"q{index:05d}",
        "text": f"Question {index}: " + "how many apples are left in the basket? " * 12,
        "gold_answer": str(index),
        "behavior": {
            "vanilla": {"output_tokens": 300 + index % 50},
            "estimate": {"output_tokens": 1, "text": str(10 + index % 90)},
            "budgets": {str(2 ** k): {"output_tokens": 100 + index * k % 200, "correct": k > 2}
                        for k in range(1, 9)},
        },
    } for index in range(2500)]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"name": "big", "questions": questions}, indent=1))
    del questions
    assert path.stat().st_size >= 2 * 2 ** 20
    tracemalloc.start()
    try:
        scenario = parse_scripted_file(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario) == 2500
    assert peak - retained < 2 ** 20, (peak, retained)


# ---------------------------------------------------------------------------
# Live backend against a local OpenAI-compatible server
# ---------------------------------------------------------------------------


FAST_RETRY = RetryPolicy(max_attempts=3, initial_backoff=0.01, jitter=0.0)


@given(body=JSON_VALUES)
def test_request_body_is_the_json_dumps_that_refuses_nan(body):
    try:
        expected = json.dumps(body, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _encode_body(body)
        assert str(raised.value) == str(exc)
    else:
        assert _encode_body(body) == expected


def _live(server, **kwargs):
    return make_backend(
        LiveBackend,
        endpoint=server.endpoint,
        model_id="gpt-4o-mini",
        api_key="sk-test",
        retry=FAST_RETRY,
        **kwargs,
    )


def test_live_backend_parses_usage_and_sends_protocol_fields(http_server, fig_like_question):
    server = http_server([(200, completion_payload())])
    backend = _live(server)
    prompt = build_prompt(fig_like_question, PromptKind.BUDGETED_COT, 50, TEMPLATES)
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
    outcome = _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)
    assert outcome.usage.counting_source is CountingSource.LOCAL_APPROXIMATION
    assert outcome.usage.output_tokens > 0


def test_live_backend_retries_through_429(http_server, fig_like_question):
    server = http_server([(429, {}), (429, {}), (200, completion_payload())])
    outcome = _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)
    assert outcome.text == "The answer is 18."
    assert len(server.requests) == 3


def test_live_backend_persistent_429_raises_rate_limit(http_server, fig_like_question):
    server = http_server([(429, {})] * 5)
    with pytest.raises(RateLimitError):
        _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)
    assert len(server.requests) == FAST_RETRY.max_attempts


def test_live_backend_retries_server_errors_then_transport_error(http_server, fig_like_question):
    server = http_server([(500, {})] * 5)
    with pytest.raises(TransportError):
        _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)


def test_live_backend_malformed_payload_is_protocol_error(http_server, fig_like_question):
    server = http_server([(200, "this is not json")])
    with pytest.raises(ProtocolError, match="malformed completion payload"):
        _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)

    server = http_server([(200, {"choices": []})])
    with pytest.raises(ProtocolError):
        _live(server).ask(fig_like_question, PromptKind.VANILLA_COT)


def _with_usage(**usage):
    return {"choices": [{"message": {"content": "ok"}}], "usage": usage}


@pytest.mark.parametrize("payload, field", [
    pytest.param({"choices": [{"message": {"content": "ok"}}], "usage": "x"},
                 "usage must be an object", id="usage-a-string"),
    pytest.param({"choices": [{"message": {"content": [{"type": "text", "text": "ok"}]}}]},
                 "content must be a string or null", id="content-a-list"),
    pytest.param({"choices": [{"message": {"content": 123}}]}, "content must be a string or null",
                 id="content-a-number"),
    pytest.param(_with_usage(prompt_tokens=21, completion_tokens="abc"),
                 "usage.completion_tokens must be a non-negative integer", id="count-a-string"),
    pytest.param(_with_usage(prompt_tokens=21, completion_tokens=-5),
                 "usage.completion_tokens must be a non-negative integer", id="count-negative"),
    pytest.param(_with_usage(prompt_tokens=21, completion_tokens=2.7),
                 "usage.completion_tokens must be a non-negative integer", id="count-a-float"),
    pytest.param(_with_usage(prompt_tokens=True, completion_tokens=2),
                 "usage.prompt_tokens must be a non-negative integer", id="count-a-bool"),
    pytest.param(_with_usage(prompt_tokens=2.0, completion_tokens=2),
                 "usage.prompt_tokens must be a non-negative integer",
                 id="count-an-integral-float"),
])
def test_live_backend_payload_of_the_wrong_shape_names_the_field(fig_like_question, payload, field):
    backend = make_backend(LiveBackend, endpoint="http://127.0.0.1:1/v1/chat/completions",
                           model_id="gpt-4o-mini", api_key="sk-test")
    data = json.dumps(payload).encode("utf-8")
    with pytest.raises(ProtocolError, match=field):
        backend._parse_response(
            data, build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES))


@pytest.mark.parametrize("payload, expected", [
    pytest.param({"choices": [{"message": {"content": None}}], "usage": None}, ("", "local"),
                 id="null-content-and-usage"),
    pytest.param(_with_usage(prompt_tokens=0, completion_tokens=0), ("ok", "provider"),
                 id="zero-counts"),
    pytest.param(_with_usage(prompt_tokens=None, completion_tokens=3), ("ok", "local"),
                 id="a-null-count"),
])
def test_live_backend_accepts_null_content_usage_and_counts(fig_like_question, payload, expected):
    backend = make_backend(LiveBackend, endpoint="http://127.0.0.1:1/v1/chat/completions",
                           model_id="gpt-4o-mini", api_key="sk-test")
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
    text, usage = backend._parse_response(json.dumps(payload).encode("utf-8"), prompt)
    assert (text, usage.counting_source.value.split("_")[0]) == expected


def test_live_backend_uses_cache(http_server, tmp_path, fig_like_question):
    server = http_server([(200, completion_payload())])
    cache = ResponseCache(str(tmp_path / "cache.jsonl"),
                          backend_tag("live", "gpt-4o-mini", server.endpoint))
    backend = _live(server, cache=cache)
    prompt = build_prompt(fig_like_question, PromptKind.VANILLA_COT, None, TEMPLATES)
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
    backend = make_backend(LiveBackend, endpoint="http://127.0.0.1:1/v1/chat/completions",
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
    return build_prompt(question, PromptKind.BUDGETED_COT, budget, TEMPLATES)


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
    backend = make_backend(LiveBackend, endpoint=upstream.endpoint.replace("http://", "https://"),
                           model_id="gpt-4o-mini", api_key="sk-test", retry=FAST_RETRY)
    with pytest.raises(TransportError, match="Tunnel connection failed"):
        backend.ask(fig_like_question, PromptKind.VANILLA_COT)
    assert proxy.server.accepts == FAST_RETRY.max_attempts
    assert upstream.server.accepts == 0


# ---------------------------------------------------------------------------
# The reply reader, on raw replies
# ---------------------------------------------------------------------------


ANSWER = json.dumps(completion_payload()).encode("utf-8")


def _sized(body=ANSWER, head=b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"):
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


def _chunked(body=ANSWER):
    half = len(body) // 2
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;name=value\r\n%s\r\n" % (half, body[:half])
            + b"%X\r\n%s\r\n" % (len(body) - half, body[half:])
            + b"0\r\nX-Trailer: yes\r\n\r\n")


# Each reply is read whole: (raw reply, whether its connection is pooled).
FRAMED = {
    "chunked-with-extension-and-trailer": (_chunked(), True),
    "http-1.0-read-to-close": ((b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n"
                                + ANSWER, "close"), False),
    "100-continue-first": (b"HTTP/1.1 100 Continue\r\n\r\n" + _sized(), True),
    "bytes-after-the-body": (_sized() + b"HTTP/1.1 200 OK\r\n", False),
    "connection-close": (_sized(head=b"HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\n"),
                         False),
    "bare-lf-line-ends": (_sized(head=b"HTTP/1.1 200 OK\nX-Note: one\n").replace(
        b"\r\n\r\n", b"\n\n"), True),
    "content-length-repeated": (b"HTTP/1.1 200 OK\r\nContent-Length: %d, %d\r\n\r\n%s"
                                % (len(ANSWER), len(ANSWER), ANSWER), True),
    "folded-content-length": (_sized(head=b"HTTP/1.1 200 OK\r\n").replace(
        b"Content-Length: ", b"Content-Length:\r\n  "), True),
}

# Replies no attempt can read: every attempt fails and is retried.
BROKEN = {
    "head-over-64-kib": _sized(head=b"HTTP/1.1 200 OK\r\nX-Padding: " + b"a" * 70 * 1024 + b"\r\n"),
    "over-100-headers": _sized(head=b"HTTP/1.1 200 OK\r\n" + b"X-Field: 1\r\n" * 101),
    "bad-status-line": (b"HTTP/1.1 2xx OK\r\nContent-Length: 2\r\n\r\n{}", "close"),
    "content-length-not-a-number": (b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
                                    "close"),
    "content-lengths-that-differ": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                                    b"Content-Length: 3\r\n\r\n{}", "close"),
    "body-cut-short": (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", "close"),
    "chunk-size-not-hex": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                           b"zz\r\n{}\r\n0\r\n\r\n", "close"),
    "closed-before-a-reply": (b"", "close"),
}


@pytest.mark.parametrize("reply, pooled", FRAMED.values(), ids=FRAMED)
def test_live_backend_reads_each_framing(raw_server, fig_like_question, reply, pooled):
    server = raw_server([reply, _sized()])
    backend = _live(server)
    assert backend.complete(_budgeted(fig_like_question, 10)).text == "The answer is 18."
    assert len(backend._idle) == pooled
    assert backend.complete(_budgeted(fig_like_question, 20)).text == "The answer is 18."
    assert server.server.accepts == (1 if pooled else 2)
    assert server.posts == 2


@pytest.mark.parametrize("reply", BROKEN.values(), ids=BROKEN)
def test_live_backend_retries_a_reply_it_cannot_read(raw_server, monkeypatch, fig_like_question,
                                                       reply):
    monkeypatch.setattr("tokenbudget.backend.time.sleep", lambda seconds: None)
    server = raw_server([reply] * FAST_RETRY.max_attempts)
    backend = _live(server)
    with pytest.raises(TransportError, match="request failed"):
        backend.complete(_budgeted(fig_like_question, 10))
    assert server.posts == FAST_RETRY.max_attempts
    assert backend._idle == []


class _TrickleSocket:
    """A socket whose every recv returns at most ``step`` bytes of ``data``,
    then EOF; the bytes before offset ``whole`` come as fast as asked."""

    def __init__(self, data, step, whole=0):
        self.data, self.step, self.whole, self.pos = data, step, whole, 0

    def recv(self, size):
        start = self.pos
        if start < self.whole:
            stop = min(self.whole, start + size)
        else:
            stop = start + min(size, self.step)
        self.pos = min(len(self.data), stop)
        return self.data[start:self.pos]


def _read_outcome(data, step):
    try:
        status, body, _ = read_reply(_TrickleSocket(data, step))
    except (OSError, http.client.HTTPException) as exc:
        return type(exc)
    return status, body


@pytest.mark.parametrize("reply", [reply for reply, _ in FRAMED.values()] + list(BROKEN.values()),
                         ids=[*FRAMED, *BROKEN])
def test_reply_read_in_single_bytes_equals_the_reply_read_whole(reply):
    data = reply if isinstance(reply, bytes) else reply[0]
    assert _read_outcome(data, 1) == _read_outcome(data, len(data) + 1)


def _cpu_to_read_a_trickled_head(size):
    """CPU seconds to read a reply whose ``size``-byte head (with its blank
    line) arrives whole but for its last 12 KiB, which arrive one byte per
    recv."""
    head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Padding: "
    reply = head + b"a" * (size - len(head) - 4) + b"\r\n\r\n{}"
    start = time.process_time()
    whole = len(reply) - 12 * 1024 - 2
    assert read_reply(_TrickleSocket(reply, 1, whole)) == (200, b"{}", True)
    return time.process_time() - start


def test_reply_head_arriving_in_single_bytes_is_read_in_linear_time():
    # The single-byte recvs cost about the same after 4 KiB or 52 KiB of the
    # head when the buffer grows by appends: the median of 15 paired ratios
    # was 1.00-1.02 in ten runs on a 2-CPU x86 VM, and 1.94-2.47 when each
    # recv copied every byte buffered so far. Pairing the two sizes cancels
    # CPU bursts from neighbouring load.
    ratios = [_cpu_to_read_a_trickled_head(64 * 1024) / _cpu_to_read_a_trickled_head(16 * 1024)
              for _ in range(15)]
    assert statistics.median(ratios) < 1.5, sorted(ratios)


def test_live_backend_reads_replies_without_http_client_responses(
        http_server, monkeypatch, fig_like_question):
    def begin(response):
        raise AssertionError("http.client parsed a reply")

    monkeypatch.setattr(http.client.HTTPResponse, "begin", begin)
    server = http_server([(200, completion_payload())] * 2)
    backend = _live(server)
    for budget in (10, 20):
        assert backend.complete(_budgeted(fig_like_question, budget)).text == "The answer is 18."
    assert server.server.accepts == 1


def test_live_backend_sends_the_host_without_userinfo(http_server, fig_like_question):
    server = http_server([(200, completion_payload())])
    endpoint = server.endpoint.replace("http://", "http://user:secret@")
    backend = make_backend(LiveBackend, endpoint=endpoint, model_id="gpt-4o-mini",
                           api_key="sk-test")
    assert backend.ask(fig_like_question, PromptKind.VANILLA_COT).text == "The answer is 18."
    assert server.requests[0]["host"] == urllib.parse.urlsplit(server.endpoint).netloc


@pytest.mark.parametrize("endpoint, api_key", [
    ("http://127.0.0.1:1/v1/chat/completions", "sk-test\r\nX-Injected: 1"),
    ("http://127.0.0.1:1/v1/chat/completions", "sk-\x00test"),
    ("http://127.0.0.1:1/v1/chat/completions\r\nX-Injected: 1", "sk-test"),
    ("http://127.0.0.1:1/v1/chat completions", "sk-test"),
], ids=["key-crlf", "key-nul", "endpoint-crlf", "endpoint-space"])
def test_live_backend_refuses_a_control_character_at_construction(endpoint, api_key):
    with pytest.raises(ValueError, match="control character") as excinfo:
        make_backend(LiveBackend, endpoint=endpoint, model_id="gpt-4o-mini", api_key=api_key)
    assert "sk-" not in str(excinfo.value)


def _trusting(monkeypatch, cafile):
    default_context = ssl.create_default_context
    monkeypatch.setattr("tokenbudget.backend.ssl.create_default_context",
                        lambda: default_context(cafile=cafile))


def test_live_backend_keeps_one_tls_connection_alive(
        http_server, monkeypatch, tls_certificate, fig_like_question):
    certificate, key = tls_certificate
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certificate, key)
    server = http_server([(200, completion_payload())] * 3, tls=context)
    _trusting(monkeypatch, certificate)
    backend = _live(server)
    for budget in (10, 20, 30):
        assert backend.complete(_budgeted(fig_like_question, budget)).text == "The answer is 18."
    assert len(server.requests) == 3
    assert server.server.accepts == 1


def test_live_backend_refuses_a_tls_certificate_it_does_not_trust(
        http_server, monkeypatch, tls_certificate, fig_like_question):
    certificate, key = tls_certificate
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certificate, key)
    server = http_server([(200, completion_payload())], tls=context)
    monkeypatch.setattr("tokenbudget.backend.time.sleep", lambda seconds: None)
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        _live(server).complete(_budgeted(fig_like_question, 10))
    assert server.requests == []


def test_import_leaves_requests_out():
    code = "import sys, tokenbudget; print('requests' in sys.modules)"
    src = os.path.dirname(os.path.dirname(tokenbudget.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert result.stdout.strip() == "False"
