"""Completion backends: a live OpenAI-compatible chat endpoint and a scripted mock.

Both share a fingerprint-keyed, append-only JSONL response cache, which is
what makes batch runs resumable: replaying a request with an intact cache
never reaches upstream. Backend instances are safe for concurrent
``complete`` calls, and no lock is held across a cache append: each new
response is one ``os.write`` of a whole line to an ``O_APPEND`` descriptor.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import random
import re
import select
import ssl
import string
import threading
import time
import urllib.parse
import urllib.request
import weakref
from dataclasses import dataclass, field

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
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be >= 0 and finite, got {self.temperature!r}")
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

    Readers and writers take no lock: ``put`` claims a fingerprint with one
    ``dict.setdefault``, so only the first put of a fingerprint appends, and
    writes its line with one ``os.write`` to an ``O_APPEND`` descriptor, so
    concurrent lines never interleave and each is in the kernel before
    ``put`` returns. The lock guards only opening that descriptor at the
    first put. A torn last line (a crash mid-append) is dropped and cut from
    the file on load; a corrupt line anywhere else is a DatasetError naming
    the line.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, CompletionOutcome] = {}
        self._fd: int | None = None
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

    def _open_for_append(self) -> int:
        """The append descriptor, opened (once) at the first put."""
        with self._lock:
            if self._fd is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                weakref.finalize(self, os.close, fd)
                if self._needs_newline:
                    os.write(fd, b"\n")
                    self._needs_newline = False
                self._fd = fd
            return self._fd

    def get(self, fingerprint: str) -> CompletionOutcome | None:
        return self._entries.get(fingerprint)

    def put(self, fingerprint: str, outcome: CompletionOutcome) -> None:
        # setdefault is one step under the GIL, so of concurrent puts of one
        # fingerprint (each with its own outcome, as ``complete`` builds
        # them) exactly one stores its outcome and appends.
        entries = self._entries
        if fingerprint in entries or entries.setdefault(fingerprint, outcome) is not outcome:
            return
        record = {"fingerprint": fingerprint, "outcome": outcome.to_dict()}
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        fd = self._fd if self._fd is not None else self._open_for_append()
        if os.write(fd, line) != len(line):
            raise OSError(f"{self.path}: short write of a cache record")

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
        text, usage = self._request(prompt)
        outcome = CompletionOutcome(
            text=text, usage=usage, model_id=self.model_id, request_fingerprint=fingerprint
        )
        if self._cache is not None:
            self._cache.put(fingerprint, outcome)
        return outcome

    def _request(self, prompt: Prompt) -> tuple[str, TokenUsage]:
        """Send one prompt upstream: the response text and its token usage."""
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


@dataclass
class ScriptedScenario:
    """Parsed scripted fixture: the questions plus their behaviors."""

    name: str
    questions: list[Question]
    behaviors: dict[str, ScriptedBehavior]
    default_entry: ScriptedEntry | None = None


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
        scenario: ScriptedScenario,
        model_id: str = "scripted-v1",
        cache: ResponseCache | None = None,
        params: SamplingParams = DEFAULT_SAMPLING,
        templates: PromptTemplates | None = None,
    ):
        super().__init__(model_id=model_id, cache=cache, params=params, templates=templates)
        self._behaviors = scenario.behaviors
        self._default_entry = scenario.default_entry
        # Every rendered prompt joins the question text and the template lines
        # with "\n", so the question is a run of whole leading lines of the
        # prompt (after the estimation task line). The first question with a
        # given text wins, as in the fixture order.
        self._by_text: dict[str, Question] = {}
        for question in scenario.questions:
            self._by_text.setdefault(question.text, question)
        self._lock = threading.Lock()
        self._upstream_calls = 0

    @property
    def upstream_calls(self) -> int:
        """Number of requests that reached the script (cache misses)."""
        with self._lock:
            return self._upstream_calls

    def _select_entry(self, prompt: Prompt) -> tuple[Question, ScriptedEntry]:
        """The prompt's question and scripted entry, from one read of the prompt.

        An estimation prompt is exactly three parts: the estimation task
        line(s), a question's text, then the contract line(s). Any other
        prompt starts with its question, the longest run of whole leading
        lines that names one, so one question text being a prefix or a line
        of another cannot misroute a prompt. The budget is read only from the
        template lines after the question, never from the question itself.
        """
        text = prompt.user
        task, contract = self.templates.estimation_task, self.templates.estimation_contract
        question = None
        if text.startswith(task + "\n") and text.endswith("\n" + contract):
            question = self._by_text.get(text[len(task) + 1:-len(contract) - 1])
        estimation = question is not None
        if not estimation:
            lines = text.split("\n")
            for stop in range(len(lines), 0, -1):
                question = self._by_text.get("\n".join(lines[:stop]))
                if question is not None:
                    break
            else:
                raise ConfigError("no scripted question matches the incoming prompt")

        behavior = self._behaviors.get(question.id)
        if behavior is None:
            if self._default_entry is None:
                raise ConfigError(f"no scripted behavior for question {question.id!r}")
            return question, self._default_entry
        fallback = behavior.default or self._default_entry
        if estimation:
            entry = behavior.estimate or fallback
        else:
            pattern = _budget_pattern(self.templates.budgeted_suffix)
            budget = pattern.search("\n".join(lines[stop:]))
            if budget is None:
                entry = behavior.vanilla
            else:
                entry = behavior.cost_curve.get(int(budget.group(1)), fallback)
        if entry is None:
            raise ConfigError(
                f"scripted behavior for question {question.id!r} has no entry "
                f"for this prompt and no fallback"
            )
        return question, entry

    def _request(self, prompt: Prompt) -> tuple[str, TokenUsage]:
        with self._lock:
            self._upstream_calls += 1
        question, entry = self._select_entry(prompt)
        text = entry.text if entry.text is not None else _synthesize_text(question, entry.correct)
        return text, TokenUsage(
            input_tokens=count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user),
            output_tokens=entry.output_tokens,
            counting_source=CountingSource.PROVIDER_REPORTED,
        )


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

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        for name in ("initial_backoff", "multiplier", "jitter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)!r}")


# Seconds to wait for one chat-completions reply before the attempt fails.
REQUEST_TIMEOUT = 120.0


class LiveBackend(CompletionBackend):
    """OpenAI-compatible chat-completions client with retries and caching.

    Usage always comes from the provider's usage block when present
    (counting_source = provider_reported); the local approximation is only a
    fallback and is tagged as such. Credentials are taken from the
    environment, never from config file contents.

    Requests share a pool of HTTP/1.1 keep-alive connections, never more than
    are in use at once. ``HTTP(S)_PROXY`` and ``NO_PROXY`` are read from the
    environment once; TLS is verified against the system CA store.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key: str,
        retry: RetryPolicy | None = None,
        cache: ResponseCache | None = None,
        params: SamplingParams = DEFAULT_SAMPLING,
        templates: PromptTemplates | None = None,
    ):
        super().__init__(model_id=model_id, cache=cache, params=params, templates=templates)
        self._retry = retry or RetryPolicy()
        self._headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        url = urllib.parse.urlsplit(endpoint)
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        self._tunnel = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if https:
                self._tunnel = (host, port)
            else:
                # A plain HTTP proxy takes the absolute URL as the request target.
                self._target = endpoint
            host, port = proxy_url.hostname, proxy_url.port or 80
        tls = {"context": ssl.create_default_context()} if https else {}
        self._connect = functools.partial(
            http.client.HTTPSConnection if https else http.client.HTTPConnection,
            host, port, timeout=REQUEST_TIMEOUT, **tls,
        )
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, lambda idle: [c.close() for c in idle], self._idle)

    def _connection(self) -> http.client.HTTPConnection:
        """An idle pooled connection the server has not closed, or a new one."""
        with self._idle_lock:
            while self._idle:
                connection = self._idle.pop()
                # An idle keep-alive socket polls readable only once the server
                # has closed it (or sent bytes no request asked for).
                poller = select.poll()
                poller.register(connection.sock, select.POLLIN | select.POLLHUP | select.POLLERR)
                if not poller.poll(0):
                    return connection
                connection.close()
        connection = self._connect()
        if self._tunnel:
            connection.set_tunnel(*self._tunnel)
        return connection

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST of ``body`` to the endpoint: the reply's status and body."""
        connection = self._connection()
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return response.status, data

    def _request(self, prompt: Prompt) -> tuple[str, TokenUsage]:
        body = json.dumps({
            "model": self.model_id,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": self.params.temperature,
            "seed": self.params.seed,
            "n": self.params.max_candidates,
        }, allow_nan=False).encode("utf-8")
        policy = self._retry
        last_error: Exception = TransportError("no attempt was made")
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.initial_backoff * policy.multiplier ** (attempt - 1)
                time.sleep(delay * (1.0 + policy.jitter * random.random()))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            if status == 429:
                last_error = RateLimitError("rate limited (HTTP 429) after retries")
            elif status >= 500:
                last_error = TransportError(f"server error HTTP {status}")
            elif status != 200:
                raise ProtocolError(
                    f"unexpected HTTP {status}", raw_body=data.decode("utf-8", "replace")
                )
            else:
                return self._parse_response(data, prompt)
        raise last_error

    def _parse_response(self, data: bytes, prompt: Prompt) -> tuple[str, TokenUsage]:
        try:
            payload = json.loads(data)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                f"malformed completion payload: {exc}", raw_body=data.decode("utf-8", "replace")
            ) from exc
        if text is None:
            text = ""

        usage_block = payload.get("usage") or {}
        prompt_tokens = usage_block.get("prompt_tokens")
        completion_tokens = usage_block.get("completion_tokens")
        if prompt_tokens is not None and completion_tokens is not None:
            return text, TokenUsage(
                input_tokens=int(prompt_tokens),
                output_tokens=int(completion_tokens),
                counting_source=CountingSource.PROVIDER_REPORTED,
            )
        return text, TokenUsage(
            input_tokens=count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user),
            output_tokens=count_tokens_approx(text),
            counting_source=CountingSource.LOCAL_APPROXIMATION,
        )
