"""Completion backends: a live OpenAI-compatible chat endpoint and a scripted mock.

Both share a fingerprint-keyed, append-only JSONL response cache, which is
what makes batch runs resumable: replaying a request with an intact cache
never reaches upstream. Backend instances are safe for concurrent
``complete`` calls; the rate limiter and cache writes are the only shared
synchronization points.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import string
import threading
import time
import weakref
from dataclasses import dataclass, field

import requests

from .core import (
    AnswerKind,
    CompletionOutcome,
    CountingSource,
    Question,
    TokenUsage,
    count_tokens_approx,
)
from .errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from .prompting import DEFAULT_TEMPLATES, Prompt, PromptKind, PromptTemplates, build_prompt


@dataclass(frozen=True)
class SamplingParams:
    """Sampling defaults: near-greedy, fixed seed, single reasoning path."""

    temperature: float = 0.1
    seed: int = 1024
    max_candidates: int = 1

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        # Only the first choice is graded, while provider usage counts every
        # choice; more candidates would inflate the token counts.
        if self.max_candidates != 1:
            raise ValueError("max_candidates must be 1")


DEFAULT_SAMPLING = SamplingParams()


@functools.lru_cache(maxsize=16)
def _budget_pattern(budgeted_suffix: str) -> re.Pattern:
    """Regex matching the rendered suffix as whole lines, capturing ``{budget}``."""
    parts = []
    for literal, field_name, _, _ in string.Formatter().parse(budgeted_suffix):
        parts.append(re.escape(literal))
        if field_name is not None:
            parts.append(r"(\d+)")
    return re.compile("^" + "".join(parts) + "$", re.M)


def classify_prompt_budget(prompt: Prompt, templates: PromptTemplates | None = None) -> int | None:
    """Extract the token budget from a rendered prompt; None means no budget.

    The budget is read from the lines that render the budgeted suffix of
    ``templates`` (the defaults when none are given).
    """
    pattern = _budget_pattern((templates or DEFAULT_TEMPLATES).budgeted_suffix)
    match = pattern.search(prompt.user)
    return int(match.group(1)) if match and pattern.groups else None


def request_fingerprint(prompt: Prompt, params: SamplingParams) -> str:
    """Stable hash of (prompt, sampling parameters) used as the cache key."""
    payload = {
        "system": prompt.system,
        "user": prompt.user,
        "temperature": params.temperature,
        "seed": params.seed,
        "max_candidates": params.max_candidates,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only JSONL cache of completed requests, keyed by fingerprint.

    Concurrent readers are lock-free after load; appends are serialized and
    go through one handle, opened at the first append and flushed per line.
    A torn last line (a crash mid-append) is dropped and cut from the file on
    load; a corrupt line anywhere else is a DatasetError naming the line.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, CompletionOutcome] = {}
        self._handle = None
        # The file ends in a complete record without its newline.
        self._needs_newline = False
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        kept = 0
        line = b"\n"
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    try:
                        record = json.loads(line.decode("utf-8"))
                        fingerprint = record["fingerprint"]
                        outcome = CompletionOutcome.from_dict(record["outcome"])
                    except (ValueError, KeyError, TypeError) as exc:
                        if line.endswith(b"\n"):
                            raise DatasetError(
                                f"{self.path}: corrupt cache record at line {number}: {exc}"
                            ) from exc
                        # Only the last line can lack its newline: an append
                        # cut short. Drop it so the next append starts clean.
                        break
                    self._entries[fingerprint] = outcome
                kept += len(line)
        if kept < os.path.getsize(self.path):
            os.truncate(self.path, kept)
        else:
            self._needs_newline = not line.endswith(b"\n")

    def _open_for_append(self):
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        handle = open(self.path, "a", encoding="utf-8")
        weakref.finalize(self, handle.close)
        if self._needs_newline:
            handle.write("\n")
            self._needs_newline = False
        return handle

    def get(self, fingerprint: str) -> CompletionOutcome | None:
        return self._entries.get(fingerprint)

    def put(self, fingerprint: str, outcome: CompletionOutcome) -> None:
        with self._lock:
            if fingerprint in self._entries:
                return
            self._entries[fingerprint] = outcome
            record = {"fingerprint": fingerprint, "outcome": outcome.to_dict()}
            if self._handle is None:
                self._handle = self._open_for_append()
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def __len__(self) -> int:
        return len(self._entries)


class CompletionBackend:
    """The cache in front of the request path, under one run's settings.

    A run renders every prompt with one set of templates and sends it with
    one set of sampling parameters, so both are fixed on the backend: ``ask``
    renders a question under ``templates`` and ``complete`` sends a prompt
    with ``params`` (part of the cache key).
    """

    def __init__(
        self,
        model_id: str,
        cache: ResponseCache | None = None,
        params: SamplingParams = DEFAULT_SAMPLING,
        templates: PromptTemplates | None = None,
    ):
        self.model_id = model_id
        self._cache = cache
        self.params = params
        self.templates = templates or DEFAULT_TEMPLATES

    def ask(self, question: Question, kind: PromptKind, budget: int | None = None) -> CompletionOutcome:
        """Render one prompt about ``question`` and complete it."""
        return self.complete(build_prompt(question, kind, budget=budget, templates=self.templates))

    def complete(self, prompt: Prompt) -> CompletionOutcome:
        fingerprint = request_fingerprint(prompt, self.params)
        if self._cache is not None:
            hit = self._cache.get(fingerprint)
            if hit is not None:
                return hit
        outcome = self._request(prompt, fingerprint)
        if self._cache is not None:
            self._cache.put(fingerprint, outcome)
        return outcome

    def _request(self, prompt: Prompt, fingerprint: str) -> CompletionOutcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptedEntry:
    """One scripted response: reported output tokens, correctness, optional text."""

    output_tokens: int
    correct: bool = True
    text: str | None = None


@dataclass
class ScriptedBehavior:
    """Cost curve for one question: budget -> entry, plus the no-budget entry."""

    vanilla: ScriptedEntry
    cost_curve: dict[int, ScriptedEntry] = field(default_factory=dict)
    estimate: ScriptedEntry | None = None
    default: ScriptedEntry | None = None


def _synthesize_text(question: Question, correct: bool) -> str:
    if not correct:
        return "I cannot determine the answer."
    if question.answer_kind is AnswerKind.FREE_TEXT:
        return question.gold_answer
    return f"The answer is {question.gold_answer}."


class ScriptedBackend(CompletionBackend):
    """Deterministic mock driven by per-question cost curves.

    The mock classifies each incoming prompt (vanilla / budgeted / estimation)
    by parsing it the same way a reader would, looks up the scripted entry,
    and reports exactly the scripted output-token count. Outcomes depend only
    on the prompt, never on call order or concurrency.
    """

    def __init__(
        self,
        questions: list[Question],
        behaviors: dict[str, ScriptedBehavior],
        default_entry: ScriptedEntry | None = None,
        model_id: str = "scripted-v1",
        cache: ResponseCache | None = None,
        params: SamplingParams = DEFAULT_SAMPLING,
        templates: PromptTemplates | None = None,
    ):
        super().__init__(model_id=model_id, cache=cache, params=params, templates=templates)
        self._behaviors = behaviors
        self._default_entry = default_entry
        # Every rendered prompt joins the question text and the template lines
        # with "\n", so the question is a run of whole leading lines of the
        # prompt (after the estimation task line). The first question with a
        # given text wins, as in the fixture order.
        self._by_text: dict[str, Question] = {}
        for question in questions:
            self._by_text.setdefault(question.text, question)
        self._lock = threading.Lock()
        self._upstream_calls = 0

    @property
    def upstream_calls(self) -> int:
        """Number of requests that reached the script (cache misses)."""
        with self._lock:
            return self._upstream_calls

    def _match_question(self, prompt: Prompt) -> Question:
        """The question whose text is the longest run of whole leading lines.

        Every rendered prompt starts with the question text, or with it right
        after the estimation task line(s). Trying the longest run first means
        one question text being a prefix or a line of another cannot misroute
        a prompt.
        """
        lines = prompt.user.split("\n")
        start = 0
        task = self.templates.estimation_task
        if prompt.user.startswith(task + "\n"):
            start = task.count("\n") + 1
        for stop in range(len(lines), start, -1):
            question = self._by_text.get("\n".join(lines[start:stop]))
            if question is not None:
                return question
        raise ConfigError("no scripted question matches the incoming prompt")

    def _select_entry(self, prompt: Prompt, question: Question) -> ScriptedEntry:
        behavior = self._behaviors.get(question.id)
        if behavior is None:
            if self._default_entry is None:
                raise ConfigError(f"no scripted behavior for question {question.id!r}")
            return self._default_entry
        fallback = behavior.default or self._default_entry
        if prompt.user.startswith(self.templates.estimation_task):
            entry = behavior.estimate or fallback
        else:
            budget = classify_prompt_budget(prompt, self.templates)
            if budget is None:
                entry = behavior.vanilla
            else:
                entry = behavior.cost_curve.get(budget, fallback)
        if entry is None:
            raise ConfigError(
                f"scripted behavior for question {question.id!r} has no entry "
                f"for this prompt and no fallback"
            )
        return entry

    def _request(self, prompt: Prompt, fingerprint: str) -> CompletionOutcome:
        with self._lock:
            self._upstream_calls += 1
        question = self._match_question(prompt)
        entry = self._select_entry(prompt, question)
        text = entry.text if entry.text is not None else _synthesize_text(question, entry.correct)
        usage = TokenUsage(
            input_tokens=count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user),
            output_tokens=entry.output_tokens,
            counting_source=CountingSource.PROVIDER_REPORTED,
        )
        return CompletionOutcome(
            text=text,
            usage=usage,
            model_id=self.model_id,
            request_fingerprint=fingerprint,
        )


@dataclass
class ScriptedScenario:
    """Parsed scripted fixture: the questions plus their behaviors."""

    name: str
    questions: list[Question]
    behaviors: dict[str, ScriptedBehavior]
    default_entry: ScriptedEntry | None = None


def _parse_entry(data: dict, where: str) -> ScriptedEntry:
    try:
        return ScriptedEntry(
            output_tokens=int(data["output_tokens"]),
            correct=bool(data.get("correct", True)),
            text=data.get("text"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"bad scripted entry at {where}: {exc}") from exc


def parse_scripted_file(path: str) -> ScriptedScenario:
    """Load a scripted fixture: per-question entries with budget-keyed cost curves."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}") from exc

    questions: list[Question] = []
    behaviors: dict[str, ScriptedBehavior] = {}
    seen_ids: set[str] = set()
    for index, item in enumerate(data.get("questions", [])):
        where = f"{path} questions[{index}]"
        try:
            question = Question(
                id=str(item["id"]),
                text=item["text"],
                gold_answer=str(item.get("gold_answer", "")),
                answer_kind=AnswerKind(item.get("answer_kind", "numeric")),
                source=item.get("source", data.get("name", "scripted")),
            )
        except (KeyError, ValueError) as exc:
            raise DatasetError(f"bad question at {where}: {exc}") from exc
        if question.id in seen_ids:
            raise DatasetError(f"duplicate question id {question.id!r} at {where}")
        seen_ids.add(question.id)
        questions.append(question)

        raw = item.get("behavior")
        if raw is None:
            continue
        if "vanilla" not in raw:
            raise DatasetError(f"behavior at {where} is missing its vanilla entry")
        curve = {
            int(budget): _parse_entry(entry, f"{where}.budgets[{budget}]")
            for budget, entry in raw.get("budgets", {}).items()
        }
        behaviors[question.id] = ScriptedBehavior(
            vanilla=_parse_entry(raw["vanilla"], f"{where}.vanilla"),
            cost_curve=curve,
            estimate=_parse_entry(raw["estimate"], f"{where}.estimate") if "estimate" in raw else None,
            default=_parse_entry(raw["default"], f"{where}.default") if "default" in raw else None,
        )

    default_entry = None
    if "default_behavior" in data:
        default_entry = _parse_entry(data["default_behavior"], f"{path} default_behavior")
    return ScriptedScenario(
        name=data.get("name", os.path.basename(path)),
        questions=questions,
        behaviors=behaviors,
        default_entry=default_entry,
    )


# ---------------------------------------------------------------------------
# Live backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient failures."""

    max_attempts: int = 5
    initial_backoff: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.1


class TokenBucket:
    """Blocking token-bucket rate limiter shared across worker threads."""

    def __init__(self, rate: float, burst: int):
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self._rate = rate
        self._capacity = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self._capacity, self._tokens + (now - self._updated) * self._rate)
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            time.sleep(wait)


class LiveBackend(CompletionBackend):
    """OpenAI-compatible chat-completions client with retries and caching.

    Usage always comes from the provider's usage block when present
    (counting_source = provider_reported); the local approximation is only a
    fallback and is tagged as such. Credentials are taken from the
    environment, never from config file contents.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key: str,
        retry: RetryPolicy | None = None,
        limiter: TokenBucket | None = None,
        timeout: float = 120.0,
        cache: ResponseCache | None = None,
        session: requests.Session | None = None,
        params: SamplingParams = DEFAULT_SAMPLING,
        templates: PromptTemplates | None = None,
    ):
        super().__init__(model_id=model_id, cache=cache, params=params, templates=templates)
        self._endpoint = endpoint
        self._api_key = api_key
        self._retry = retry or RetryPolicy()
        self._limiter = limiter
        self._timeout = timeout
        self._session = session or requests.Session()

    def _sleep_before_retry(self, attempt: int) -> None:
        policy = self._retry
        delay = policy.initial_backoff * (policy.multiplier ** attempt)
        delay *= 1.0 + policy.jitter * random.random()
        time.sleep(delay)

    def _request(self, prompt: Prompt, fingerprint: str) -> CompletionOutcome:
        body = {
            "model": self.model_id,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": self.params.temperature,
            "seed": self.params.seed,
            "n": self.params.max_candidates,
        }
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }
        last_error: Exception = TransportError("no attempt was made")
        for attempt in range(self._retry.max_attempts):
            if self._limiter is not None:
                self._limiter.acquire()
            try:
                response = self._session.post(
                    self._endpoint, json=body, headers=headers, timeout=self._timeout
                )
            except requests.RequestException as exc:
                last_error = TransportError(f"request failed: {exc}")
                if attempt + 1 < self._retry.max_attempts:
                    self._sleep_before_retry(attempt)
                continue
            if response.status_code == 429:
                last_error = RateLimitError("rate limited (HTTP 429) after retries")
                if attempt + 1 < self._retry.max_attempts:
                    self._sleep_before_retry(attempt)
                continue
            if response.status_code >= 500:
                last_error = TransportError(f"server error HTTP {response.status_code}")
                if attempt + 1 < self._retry.max_attempts:
                    self._sleep_before_retry(attempt)
                continue
            if response.status_code != 200:
                raise ProtocolError(
                    f"unexpected HTTP {response.status_code}", raw_body=response.text
                )
            return self._parse_response(response, prompt, fingerprint)
        raise last_error

    def _parse_response(
        self, response: requests.Response, prompt: Prompt, fingerprint: str
    ) -> CompletionOutcome:
        try:
            payload = response.json()
        except ValueError as exc:
            raise ProtocolError("provider returned non-JSON body", raw_body=response.text) from exc
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                f"malformed completion payload: {exc}", raw_body=response.text
            ) from exc
        if text is None:
            text = ""

        usage_block = payload.get("usage") or {}
        prompt_tokens = usage_block.get("prompt_tokens")
        completion_tokens = usage_block.get("completion_tokens")
        if prompt_tokens is not None and completion_tokens is not None:
            usage = TokenUsage(
                input_tokens=int(prompt_tokens),
                output_tokens=int(completion_tokens),
                counting_source=CountingSource.PROVIDER_REPORTED,
            )
        else:
            usage = TokenUsage(
                input_tokens=count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user),
                output_tokens=count_tokens_approx(text),
                counting_source=CountingSource.LOCAL_APPROXIMATION,
            )
        return CompletionOutcome(
            text=text,
            usage=usage,
            model_id=self.model_id,
            request_fingerprint=fingerprint,
        )
