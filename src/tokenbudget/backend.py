"""Completion backends: a live OpenAI-compatible chat endpoint and a scripted mock.

Both share a fingerprint-keyed, append-only JSONL response cache, which is
what makes batch runs resumable: replaying a request with an intact cache
never reaches upstream. The fingerprint hashes the prompt and the sampling
parameters; each cache line also carries a tag of the backend that answered
(cache format version, kind, model id and live endpoint), and a backend is
served only the lines with its own tag. A line is formatted directly from
its fixed layout, the bytes the sorted-key ``json.dumps`` of the record
gives. A loaded cache holds, per entry, only the fingerprint and the line's
offset and length in the file, not its bytes; each ``get`` reads the line
back with ``os.pread`` and decodes it with the C JSON scanner. Backend
instances are safe for concurrent ``complete`` calls, and no lock is held
across a cache append: each new response is one ``os.write`` of a whole
line to an ``O_APPEND`` descriptor.

The live backend keeps a pool of HTTP/1.1 keep-alive connections.
``http.client`` only opens them (TCP, proxy tunnel, verified TLS); each
request is one ``sendall`` of a head built once per backend plus the body,
and ``read_reply`` reads the answer (RFC 9112 framing) straight from the
socket.
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
from json.encoder import encode_basestring_ascii

from .core import (
    AnswerKind,
    CompletionOutcome,
    CountingSource,
    Dataset,
    Question,
    TokenUsage,
    count_tokens_approx,
)
from .errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from .jsonstream import JSONStream, build_each, not_utf8
from .prompting import Prompt, PromptKind, PromptTemplates, build_prompt


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

    @functools.cached_property
    def _fingerprint_prefixes(self) -> dict:
        """System text -> hash of the canonical fingerprint JSON before the user text.

        Held per instance, never shared by equal params: ``0.0`` and ``-0.0``,
        or ``1`` and ``1.0``, compare equal but render differently.
        """
        return {}


def _budget_pattern(budgeted_suffix: str) -> re.Pattern:
    """Regex matching the rendered suffix as whole lines, capturing ``{budget}``."""
    parts = []
    for literal, field_name, _, _ in string.Formatter().parse(budgeted_suffix):
        parts.append(re.escape(literal))
        if field_name is not None:
            parts.append(r"(\d+)")
    return re.compile("^" + "".join(parts) + "$", re.M)


def request_fingerprint(prompt: Prompt, params: SamplingParams) -> str:
    """Stable hash of (prompt, sampling parameters) used as the cache key.

    The sha256 of the sorted-key, ASCII JSON of the five values. That text
    ends in ``"user": <user text>}``, so everything before the user text is
    hashed once per (params, system) and each request feeds a copy only its
    own user text.
    """
    prefixes = params._fingerprint_prefixes
    prefix = prefixes.get(prompt.system)
    if prefix is None:
        head = json.dumps({
            "system": prompt.system,
            "temperature": params.temperature,
            "seed": params.seed,
            "max_candidates": params.max_candidates,
        }, sort_keys=True, ensure_ascii=True)
        prefix = hashlib.sha256((head[:-1] + ', "user": ').encode("ascii"))
        prefixes[prompt.system] = prefix
    digest = prefix.copy()
    digest.update((encode_basestring_ascii(prompt.user) + "}").encode("ascii"))
    return digest.hexdigest()


# Folded into every cache line's backend tag: a line of another format, or of
# another backend, never matches the tag a cache is opened with.
CACHE_FORMAT = "tokenbudget-cache/2"


def backend_tag(kind: str, model_id: str, endpoint: str | None) -> str:
    """The 16-hex-digit tag of one backend's cache lines: a hash of the cache
    format, the backend kind, its model id and, for a live backend, its endpoint."""
    identity = json.dumps([CACHE_FORMAT, kind, model_id, endpoint])
    return hashlib.sha256(identity.encode("ascii")).hexdigest()[:16]


# Every cache line is ``json.dumps({"backend", "fingerprint", "outcome"},
# sort_keys=True)``: the tag sits at a fixed offset and the fingerprint
# follows it, so a line is indexed by slicing, without decoding it. ``put``
# writes the same bytes from these pieces directly.
_TAG_AT = b'{"backend": "'
_TAG_END = len(_TAG_AT) + 16
_FINGERPRINT_AT = b'", "fingerprint": "'
_OUTCOME_AT = b'", "outcome": '
_OUTCOME_TEXT = _OUTCOME_AT.decode("ascii")
_SOURCE_JSON = {source: encode_basestring_ascii(source.value) for source in CountingSource}
_SOURCES = {source.value: source for source in CountingSource}
_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once


def _decode_line(line: bytes) -> tuple[str, str, CompletionOutcome]:
    """(tag, fingerprint, outcome) of one cache line, as ``json.loads`` reads
    it; a bad line raises ValueError, KeyError or TypeError."""
    text = line.decode("utf-8", "surrogatepass").strip(_JSON_SPACE)
    try:
        record, end = _scan_json(text, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    outcome = record["outcome"]
    usage = outcome["usage"]
    source = usage["counting_source"]
    return record["backend"], record["fingerprint"], CompletionOutcome(
        text=outcome["text"],
        usage=TokenUsage(
            input_tokens=usage["input_tokens"],
            output_tokens=usage["output_tokens"],
            # An unknown source raises CountingSource's own ValueError.
            counting_source=_SOURCES.get(source) or CountingSource(source),
        ),
        model_id=outcome["model_id"],
        request_fingerprint=outcome["request_fingerprint"],
    )


class ResponseCache:
    """Append-only JSONL cache of one backend's completed requests, keyed by fingerprint.

    Each line carries the backend tag (``backend_tag``) of the backend that
    made the request, and a cache opened with a tag serves and indexes only
    the lines with that tag, so a change of model or endpoint never serves
    another backend's answers. A line that is not a record of format
    ``CACHE_FORMAT``, such as one written by an older version, is a
    DatasetError: the file is not misread.

    ``put`` formats each line directly, byte for byte what the sorted-key
    ``json.dumps`` of the record gives. Loading keeps, for each line with
    the cache's tag, only its fingerprint and its place in the file (offset
    and length in one int), not its bytes: memory grows with the number of
    entries, not with the length of their answers. Each ``get`` of a loaded
    entry reads the line with ``os.pread`` on the cache's own read
    descriptor and decodes it with the C JSON scanner, keeping nothing; a
    line that no longer carries the tag and fingerprint it was indexed under
    (the file changed under the run) is a DatasetError naming the line.
    Entries put in this run are held as outcomes.

    Readers and writers take no lock: ``pread`` shares no file position, and
    ``put`` claims a fingerprint with one ``dict.setdefault``, so only the
    first put of a fingerprint appends, and writes its line with one
    ``os.write`` to an ``O_APPEND`` descriptor, so concurrent lines never
    interleave and each is in the kernel before ``put`` returns. The lock
    guards only opening that descriptor at the first put. A torn last line
    (a crash mid-append) is dropped and cut from the file on load; a corrupt
    line anywhere else is a DatasetError naming the line, at load if its tag
    or fingerprint is unreadable, else at each ``get`` of its fingerprint.
    """

    def __init__(self, path: str, tag: str):
        self.path = path
        self.tag = tag
        # Every line of this cache up to its fingerprint's opening quote.
        self._head = (_TAG_AT.decode("ascii") + encode_basestring_ascii(tag)[1:-1]
                      + _FINGERPRINT_AT.decode("ascii"))
        self._lock = threading.Lock()
        # Fingerprint -> outcome, or where its line is: offset << 32 | length.
        self._entries: dict[str, CompletionOutcome | int] = {}
        self._fd: int | None = None
        self._reader: int | None = None
        # The file ends in a complete record without its newline.
        self._needs_newline = False
        if os.path.exists(path):
            self._reader = os.open(path, os.O_RDONLY)
            close_reader = weakref.finalize(self, os.close, self._reader)
            try:
                self._load()
            except BaseException:
                close_reader()
                raise

    def _corrupt(self, offset: int, reason) -> DatasetError:
        """The error for the line at byte ``offset``, numbered by the newlines before it."""
        number = os.pread(self._reader, offset, 0).count(b"\n") + 1
        return DatasetError(f"{self.path}: corrupt cache record at line {number}: {reason}")

    def _load(self) -> None:
        mine = self._head.encode("ascii")
        start = len(mine)
        entries = self._entries
        line, offset = b"\n", 0
        with open(self._reader, "rb", closefd=False) as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                if line.startswith(mine):
                    end = line.find(_OUTCOME_AT, start)
                    fingerprint = line[start:end].decode("ascii", "replace")
                    if end < 0 or "\\" in fingerprint or not fingerprint.isascii():
                        # A fingerprint JSON escapes: decode the whole line.
                        try:
                            fingerprint = _decode_line(line)[1]
                        except (ValueError, KeyError, TypeError) as exc:
                            raise self._corrupt(offset, exc) from exc
                    entries[fingerprint] = offset << 32 | len(line)
                elif line.strip() and not (
                    line.startswith(_TAG_AT) and line.startswith(_FINGERPRINT_AT, _TAG_END)
                ):
                    raise self._corrupt(offset, f"not a {CACHE_FORMAT} record")
                offset += len(line)
        if not line.endswith(b"\n"):
            # Only the last line can lack its newline: an append cut short,
            # dropped so the next append starts clean, unless it is a whole
            # record.
            try:
                tag, fingerprint, outcome = _decode_line(line)
            except (ValueError, KeyError, TypeError):
                os.truncate(self.path, offset)
                return
            if tag == self.tag:
                entries[fingerprint] = outcome
            self._needs_newline = True

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
        entry = self._entries.get(fingerprint)
        if entry.__class__ is int:
            return self._read(fingerprint, entry)
        return entry

    def _read(self, fingerprint: str, place: int) -> CompletionOutcome:
        """The outcome of the line at ``place``, which must be the record indexed there."""
        offset = place >> 32
        line = os.pread(self._reader, place & 0xFFFFFFFF, offset)
        try:
            tag, found, outcome = _decode_line(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise self._corrupt(offset, exc) from exc
        if tag != self.tag or found != fingerprint:
            raise self._corrupt(offset, f"not the record of {fingerprint!r} indexed there; "
                                        f"the file changed under this run")
        return outcome

    def put(self, fingerprint: str, outcome: CompletionOutcome) -> None:
        # setdefault is one step under the GIL, so of concurrent puts of one
        # fingerprint (each with its own outcome, as ``complete`` builds
        # them) exactly one stores its outcome and appends.
        entries = self._entries
        if fingerprint in entries or entries.setdefault(fingerprint, outcome) is not outcome:
            return
        usage = outcome.usage
        line = (
            f'{self._head}{encode_basestring_ascii(fingerprint)[1:-1]}{_OUTCOME_TEXT}'
            f'{{"model_id": {encode_basestring_ascii(outcome.model_id)}, '
            f'"request_fingerprint": {encode_basestring_ascii(outcome.request_fingerprint)}, '
            f'"text": {encode_basestring_ascii(outcome.text)}, '
            f'"usage": {{"counting_source": {_SOURCE_JSON[usage.counting_source]}, '
            f'"input_tokens": {int.__repr__(usage.input_tokens)}, '
            f'"output_tokens": {int.__repr__(usage.output_tokens)}}}}}}}\n'
        ).encode("ascii")
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
    with ``params`` (part of the cache key). ``build_backend`` opens the
    cache with the ``backend_tag`` of this backend's kind, model and endpoint.
    """

    kind = ""

    def __init__(self, model_id: str, cache: ResponseCache, params: SamplingParams,
                 templates: PromptTemplates):
        self.model_id = model_id
        self._cache = cache
        self.params = params
        self.templates = templates

    def ask(self, question: Question, kind: PromptKind, budget: int | None = None) -> CompletionOutcome:
        """Render one prompt about ``question`` and complete it."""
        return self.complete(build_prompt(question, kind, budget=budget, templates=self.templates))

    def complete(self, prompt: Prompt) -> CompletionOutcome:
        fingerprint = request_fingerprint(prompt, self.params)
        hit = self._cache.get(fingerprint)
        if hit is not None:
            return hit
        text, usage = self._request(prompt)
        outcome = CompletionOutcome(
            text=text, usage=usage, model_id=self.model_id, request_fingerprint=fingerprint
        )
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


@dataclass(frozen=True)
class ScriptedScenario(Dataset):
    """Parsed scripted fixture: a cohort whose questions carry their behaviors."""

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

    kind = "scripted"

    def __init__(self, scenario: ScriptedScenario, model_id: str, cache: ResponseCache,
                 params: SamplingParams, templates: PromptTemplates):
        super().__init__(model_id, cache, params, templates)
        self._behaviors = scenario.behaviors
        self._default_entry = scenario.default_entry
        # Every rendered prompt joins the question text and the template lines
        # with "\n", so the question is a run of whole leading lines of the
        # prompt (after the estimation task line). The first question with a
        # given text wins, as in the fixture order.
        self._by_text: dict[str, Question] = {}
        for question in scenario.questions:
            self._by_text.setdefault(question.text, question)
        t = self.templates
        self._task_line = t.estimation_task + "\n"
        self._contract_line = "\n" + t.estimation_contract
        self._budget = _budget_pattern(t.budgeted_suffix)
        # A prompt's input count is the sum of its parts' counts: a "\n" join
        # splits words and adds no punctuation mark. Every prompt is rendered
        # with these templates, so the texts every request repeats are counted
        # once, a question's text the first time it is asked, and a request
        # counts only its own template lines.
        self._system_tokens = count_tokens_approx(t.system)
        self._estimation_tokens = (count_tokens_approx(t.estimation_task)
                                   + count_tokens_approx(t.estimation_contract))
        self._question_tokens: dict[str, int] = {}

    def _select_entry(self, prompt: Prompt) -> tuple[Question, ScriptedEntry, int]:
        """The prompt's question, its scripted entry and the input tokens of
        the user text's template lines, from one read of the prompt.

        An estimation prompt is exactly three parts: the estimation task
        line(s), a question's text, then the contract line(s). Any other
        prompt starts with its question, the longest run of whole leading
        lines that names one, so one question text being a prefix or a line
        of another cannot misroute a prompt. The budget is read only from the
        template lines after the question, never from the question itself.
        """
        text = prompt.user
        question = None
        if text.startswith(self._task_line) and text.endswith(self._contract_line):
            question = self._by_text.get(text[len(self._task_line):-len(self._contract_line)])
        estimation = question is not None
        if estimation:
            template_tokens = self._estimation_tokens
        else:
            end = len(text)
            while (question := self._by_text.get(text[:end])) is None:
                end = text.rfind("\n", 0, end)
                if end < 0:
                    raise ConfigError("no scripted question matches the incoming prompt")
            lines = text[end + 1:]
            template_tokens = count_tokens_approx(lines)

        behavior = self._behaviors.get(question.id)
        if behavior is None:
            if self._default_entry is None:
                raise ConfigError(f"no scripted behavior for question {question.id!r}")
            return question, self._default_entry, template_tokens
        fallback = behavior.default or self._default_entry
        if estimation:
            entry = behavior.estimate or fallback
        else:
            budget = self._budget.search(lines)
            if budget is None:
                entry = behavior.vanilla
            else:
                entry = behavior.cost_curve.get(int(budget.group(1)), fallback)
        if entry is None:
            raise ConfigError(
                f"scripted behavior for question {question.id!r} has no entry "
                f"for this prompt and no fallback"
            )
        return question, entry, template_tokens

    def _request(self, prompt: Prompt) -> tuple[str, TokenUsage]:
        question, entry, template_tokens = self._select_entry(prompt)
        text = entry.text if entry.text is not None else _synthesize_text(question, entry.correct)
        counted = self._question_tokens.get(question.text)
        if counted is None:  # two threads may both count a text, to the same number
            counted = self._question_tokens[question.text] = count_tokens_approx(question.text)
        return text, TokenUsage(
            input_tokens=self._system_tokens + counted + template_tokens,
            output_tokens=entry.output_tokens,
            counting_source=CountingSource.PROVIDER_REPORTED,
        )


_KINDS = {kind.value: kind for kind in AnswerKind}


def _answer_kind(value) -> AnswerKind:
    try:
        return _KINDS[value]
    except (KeyError, TypeError):
        return AnswerKind(value)


def _object(value, where: str) -> None:
    """Refuse ``value`` unless it is the JSON object the fixture requires at ``where``."""
    if not isinstance(value, dict):
        raise DatasetError(f"{where} must be a JSON object, got {type(value).__name__}")


def parse_scripted_file(path: str) -> ScriptedScenario:
    """Load a scripted fixture: per-question entries with budget-keyed cost curves.

    The file is read as ``json.load`` reads it, but through a JSONStream:
    the ``questions`` array is decoded one question at a time, and each is
    built and dropped before the next is read, so the load holds the
    scenario and one question's raw JSON, not the whole document. Keys may
    come in any order, and a repeated key counts with its last value. Every
    error is the one a whole-file parse gives: a syntax error anywhere
    first, then the shape of the document, then the first bad question,
    then ``default_behavior``.

    A fixture repeats its entries (the bench cohort holds about 2,700
    distinct ones among 18,000), so each distinct raw
    ``(output_tokens, correct, text)`` is checked and built once. Equal raw
    values give equal entries, since ``int`` and ``bool`` agree on ``1``,
    ``1.0`` and ``true``; an unhashable value is checked every time, and a
    failure is never cached. Error locations are formatted only to raise.
    """
    built: dict[tuple, ScriptedEntry] = {}

    def entry(raw, where: str, *parts) -> ScriptedEntry:
        """The entry ``raw`` describes; a bad one is a DatasetError at
        ``where``, formatted with the path and ``parts`` only then."""
        key = None
        if raw.__class__ is dict:
            key = (raw.get("output_tokens"), raw.get("correct", True), raw.get("text"))
            try:
                parsed = built.get(key)
            except TypeError:  # an unhashable value: checked every time
                key = None
            else:
                if parsed is not None:
                    return parsed
        try:
            output_tokens = int(raw["output_tokens"])
            text = raw.get("text")
            if output_tokens < 0:
                raise ValueError(f"output_tokens must be >= 0, got {output_tokens}")
            if text is not None and not isinstance(text, str):
                raise TypeError(f"text must be a string, got {text!r}")
            parsed = ScriptedEntry(output_tokens=output_tokens,
                                   correct=bool(raw.get("correct", True)), text=text)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(
                f"bad scripted entry at {where.format(path, *parts)}: {exc}") from exc
        if key is not None:
            built[key] = parsed
        return parsed

    def at(index: int) -> str:
        return f"{path} questions[{index}]"

    def build_question(index: int, item) -> Question:
        """The question of ``questions[index]``; its behavior goes into
        ``behaviors``, and ``seen_ids`` holds the ids of the questions before it."""
        if item.__class__ is not dict:
            _object(item, f"question at {at(index)}")
        try:
            text = item["text"]
            if not isinstance(text, str):
                raise TypeError(f"text must be a string, got {text!r}")
            question = Question(
                id=str(item["id"]),
                text=text,
                gold_answer=str(item.get("gold_answer", "")),
                answer_kind=_answer_kind(item.get("answer_kind", "numeric")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"bad question at {at(index)}: {exc}") from exc
        if question.id in seen_ids:
            raise DatasetError(f"duplicate question id {question.id!r} at {at(index)}")
        seen_ids.add(question.id)

        raw = item.get("behavior")
        if raw is None:
            return question
        if raw.__class__ is not dict:
            _object(raw, f"behavior at {at(index)}")
        if "vanilla" not in raw:
            raise DatasetError(f"behavior at {at(index)} is missing its vanilla entry")
        budgets = raw.get("budgets", {})
        if budgets.__class__ is not dict:
            _object(budgets, f"budgets at {at(index)}")
        curve = {}
        for key, value in budgets.items():
            try:
                budget = int(key)
            except ValueError as exc:
                raise DatasetError(f"bad budget at {at(index)}.budgets: {exc}") from exc
            curve[budget] = entry(value, "{} questions[{}].budgets[{}]", index, key)
        behaviors[question.id] = ScriptedBehavior(
            vanilla=entry(raw["vanilla"], "{} questions[{}].vanilla", index),
            cost_curve=curve,
            estimate=entry(raw["estimate"], "{} questions[{}].estimate", index)
            if "estimate" in raw else None,
            default=entry(raw["default"], "{} questions[{}].default", index)
            if "default" in raw else None,
        )
        return question

    # The last ``questions`` value: its cohort, or the error that refuses it.
    parsed: tuple | DatasetError = ([], {})
    top = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            stream = JSONStream(handle)
            if stream.peek() != "{":
                _object(stream.value(), f"{path}: the scripted fixture")
            for key in stream.members():
                if key != "questions":
                    value = stream.value()
                    if key in ("name", "default_behavior"):
                        top[key] = value
                elif stream.peek() == "[":
                    behaviors: dict[str, ScriptedBehavior] = {}
                    seen_ids: set[str] = set()
                    try:
                        parsed = build_each(enumerate(stream.items()), build_question), behaviors
                    except DatasetError as exc:
                        parsed = exc
                else:
                    parsed = DatasetError(f"{path}: questions must be a JSON list, "
                                          f"got {type(stream.value()).__name__}")
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    if isinstance(parsed, DatasetError):
        raise parsed
    questions, behaviors = parsed

    default_entry = None
    if "default_behavior" in top:
        default_entry = entry(top["default_behavior"], "{} default_behavior")
    return ScriptedScenario(
        name=top.get("name", os.path.basename(path)),
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

# The request body's encoder, built once: ``json.dumps(..., allow_nan=False)``
# would build a new JSONEncoder for every request.
_encode_body = json.JSONEncoder(allow_nan=False).encode

# The reply reader's limits: http.client's _MAXHEADERS and _MAXLINE.
_MAX_HEADERS = 100
_MAX_HEAD = 65536
# Bytes asked of one recv; a chat-completions reply usually fits in one.
_RECV_SIZE = 16384
_BLANK_LINE = re.compile(rb"\n\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: [^\r\n]*)?\r?$", re.M)
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")
# A field that frames a reply or ends its connection, with any obsolete
# line folding that continues its value.
_FRAMING_FIELD = re.compile(
    rb"\n(connection|content-length|transfer-encoding)[ \t]*:(.*(?:\n[ \t].*)*)", re.I)
# Characters that may not reach a request line or header: CR, LF, the other
# C0 controls and DEL; the target may not hold a space either.
_HEADER_UNSAFE = re.compile(r"[\x00-\x1f\x7f]")
_TARGET_UNSAFE = re.compile(r"[\x00-\x20\x7f]")


class _SocketReader:
    """Buffered reads from a socket for one reply; ``closed`` once the peer
    has ended the stream.

    The buffer grows by appends and drops only the bytes already consumed,
    so a reply that arrives in many small segments is still copied in
    linear time.
    """

    __slots__ = ("sock", "data", "pos", "closed")

    def __init__(self, sock):
        self.sock = sock
        self.data = bytearray()
        self.pos = 0
        self.closed = False

    def recv(self) -> bool:
        """Append the socket's next bytes to the unread ones, which then
        start at ``data[0]``; False at EOF."""
        chunk = self.sock.recv(_RECV_SIZE)
        if not chunk:
            self.closed = True
            return False
        del self.data[:self.pos]
        self.pos = 0
        self.data += chunk
        return True

    def head(self) -> bytes:
        """The next reply head (start line and fields), read past the blank
        line that ends it."""
        scanned = self.pos
        while (blank := _BLANK_LINE.search(self.data, scanned)) is None:
            unread = len(self.data) - self.pos
            if unread > _MAX_HEAD:
                raise http.client.LineTooLong("reply head")
            scanned = max(0, unread - 2)
            if not self.recv():
                if self.data:
                    raise http.client.IncompleteRead(bytes(self.data[self.pos:]))
                raise http.client.RemoteDisconnected("remote end closed the connection unanswered")
        start, end = self.pos, blank.start()
        if end - start > _MAX_HEAD:
            raise http.client.LineTooLong("reply head")
        self.pos = blank.end()
        return bytes(self.data[start:end])

    def line(self) -> bytes:
        """The next line, without its line end."""
        scanned = self.pos
        while (end := self.data.find(b"\n", scanned)) < 0:
            unread = len(self.data) - self.pos
            if unread > _MAX_HEAD:
                raise http.client.LineTooLong("chunked body line")
            scanned = unread
            if not self.recv():
                raise http.client.IncompleteRead(bytes(self.data[self.pos:]))
        line = bytes(self.data[self.pos:end])
        self.pos = end + 1
        return line[:-1] if line.endswith(b"\r") else line

    def take(self, size: int) -> bytes:
        """The next ``size`` bytes."""
        while (unread := len(self.data) - self.pos) < size:
            if not self.recv():
                raise http.client.IncompleteRead(bytes(self.data[self.pos:]), size - unread)
        end = self.pos + size
        taken = bytes(self.data[self.pos:end])
        self.pos = end
        return taken

    def rest(self) -> bytes:
        """Every byte up to the end of the stream."""
        while self.recv():
            pass
        return self.take(len(self.data) - self.pos)

    def chunked(self) -> bytes:
        """A chunked body (RFC 9112 section 7.1): extensions and trailer
        fields are read and dropped."""
        parts = []
        while True:
            line = self.line()
            size = line.split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise http.client.HTTPException(f"invalid chunk size line {line[:80]!r}")
            size = int(size, 16)
            if not size:
                break
            parts.append(self.take(size))
            if self.line():
                raise http.client.HTTPException("chunk data not followed by its line end")
        for _ in range(_MAX_HEADERS + 1):
            if not self.line():
                return b"".join(parts)
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} trailer fields")


def _tokens(value: bytes) -> list[bytes]:
    """The lower-cased items of a comma-separated field value."""
    return value.lower().replace(b",", b" ").split()


def read_reply(sock) -> tuple[int, bytes, bool]:
    """Read one HTTP/1.1 reply from ``sock``: (status, body, keep_alive).

    Follows RFC 9112 sections 4-6: 1xx replies are skipped; the body is
    framed by ``Transfer-Encoding: chunked``, else by a valid
    ``Content-Length``, else it runs to the end of the stream. Lines may end
    in CRLF or a bare LF, and a head holds at most 100 fields in at most
    64 KiB. ``keep_alive`` is true only
    for an HTTP/1.1 reply without ``Connection: close`` that is followed by
    no unread byte. A framing fault raises an ``http.client.HTTPException``
    (``BadStatusLine``, ``LineTooLong``, ``IncompleteRead``,
    ``RemoteDisconnected``) and a socket fault an ``OSError``.
    """
    reader = _SocketReader(sock)
    status = 100
    while status < 200:
        head = reader.head()
        status_line = _STATUS_LINE.match(head)
        if status_line is None:
            raise http.client.BadStatusLine(head.split(b"\n", 1)[0].rstrip(b"\r").decode("latin-1"))
        if head.count(b"\n") > _MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        status = int(status_line[2])
    # Each framing field's value, its lines joined by commas.
    fields: dict[bytes, bytes] = {}
    for name, value in _FRAMING_FIELD.findall(head):
        name = name.lower()
        fields[name] = fields[name] + b"," + value if name in fields else value
    connection = fields.get(b"connection")
    keep_alive = status_line[1] == b"1" and (
        connection is None or b"close" not in _tokens(connection))
    if status in (204, 304):
        body = b""
    elif b"transfer-encoding" in fields:
        chunked = _tokens(fields[b"transfer-encoding"])[-1:] == [b"chunked"]
        body = reader.chunked() if chunked else reader.rest()
    elif b"content-length" in fields:
        length = fields[b"content-length"].strip()
        if not length.isdigit():
            # A list of one length repeated is that length (RFC 9112 section 6.3).
            lengths = set(_tokens(length))
            length = lengths.pop() if len(lengths) == 1 else b""
            if not length.isdigit():
                raise http.client.HTTPException(
                    f"invalid Content-Length {fields[b'content-length'][:80]!r}")
        body = reader.take(int(length))
    else:
        body = reader.rest()
    keep_alive = keep_alive and not reader.closed and reader.pos == len(reader.data)
    return status, body, keep_alive


class LiveBackend(CompletionBackend):
    """OpenAI-compatible chat-completions client with retries and caching.

    Usage always comes from the provider's usage block when present
    (counting_source = provider_reported); the local approximation is only a
    fallback and is tagged as such. A payload whose answer text, usage block
    or token counts have the wrong type is a ProtocolError naming the field.
    Credentials are taken from the environment, never from config file
    contents.

    Requests share a pool of HTTP/1.1 keep-alive connections, never more than
    are in use at once. ``http.client`` only opens a connection (TCP_NODELAY,
    the proxy ``CONNECT`` tunnel, TLS verified against the system CA store
    with the hostname checked); each request is then one ``sendall`` of a
    head built once, here, plus its body, and ``read_reply`` reads the
    answer. A connection goes back to the pool only when the reply allows
    it. ``HTTP(S)_PROXY`` and ``NO_PROXY`` are read from the environment
    once; an endpoint or API key holding a control character is refused
    here, so no request can carry an injected header.
    """

    kind = "live"

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        api_key: str,
        retry: RetryPolicy,
        cache: ResponseCache,
        params: SamplingParams,
        templates: PromptTemplates,
    ):
        super().__init__(model_id, cache, params, templates)
        if _TARGET_UNSAFE.search(endpoint):
            raise ValueError("endpoint holds a space or a control character")
        if _HEADER_UNSAFE.search(api_key):
            raise ValueError("API key holds a control character")
        self._retry = retry
        url = urllib.parse.urlsplit(endpoint)
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        netloc = url.netloc.rpartition("@")[2]
        path = url.path or "/"
        target = urllib.parse.urlunsplit(("", "", path, url.query, ""))
        self._tunnel = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if https:
                self._tunnel = (host, port)
            else:
                # A plain HTTP proxy takes the absolute URL as the request target.
                target = urllib.parse.urlunsplit((url.scheme, netloc, path, url.query, ""))
            host, port = proxy_url.hostname, proxy_url.port or 80
        # Every request is this head, its body's length, a blank line and the body.
        self._head = (
            f"POST {target} HTTP/1.1\r\n".encode("ascii")
            + b"Host: " + netloc.encode("idna") + b"\r\n"
            + b"Accept-Encoding: identity\r\n"
            + f"Authorization: Bearer {api_key}\r\n".encode("latin-1")
            + b"Content-Type: application/json\r\n"
            + b"Content-Length: "
        )
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
        try:
            connection.connect()
        except BaseException:
            connection.close()
            raise
        return connection

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST of ``body`` to the endpoint: the reply's status and body."""
        connection = self._connection()
        try:
            connection.sock.sendall(b"".join((self._head, b"%d\r\n\r\n" % len(body), body)))
            status, data, keep_alive = read_reply(connection.sock)
        except BaseException:
            connection.close()
            raise
        if keep_alive:
            with self._idle_lock:
                self._idle.append(connection)
        else:
            connection.close()
        return status, data

    def _request(self, prompt: Prompt) -> tuple[str, TokenUsage]:
        body = _encode_body({
            "model": self.model_id,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": self.params.temperature,
            "seed": self.params.seed,
            "n": self.params.max_candidates,
        }).encode("utf-8")
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
                raise ProtocolError(f"unexpected HTTP {status}")
            else:
                return self._parse_response(data, prompt)
        raise last_error

    def _parse_response(self, data: bytes, prompt: Prompt) -> tuple[str, TokenUsage]:
        def malformed(reason) -> ProtocolError:
            return ProtocolError(f"malformed completion payload: {reason}")

        try:
            payload = json.loads(data)
            text = payload["choices"][0]["message"]["content"]
            usage_block = payload.get("usage")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise malformed(exc) from exc
        if text is None:
            text = ""
        elif not isinstance(text, str):
            raise malformed(f"choices[0].message.content must be a string or null, "
                            f"got {type(text).__name__}")
        if usage_block is None:
            usage_block = {}
        elif not isinstance(usage_block, dict):
            raise malformed(f"usage must be an object, got {type(usage_block).__name__}")

        def count(name: str) -> int | None:
            value = usage_block.get(name)
            # A bool is an int to isinstance, and a float count is not a count.
            if value is not None and (type(value) is not int or value < 0):
                raise malformed(f"usage.{name} must be a non-negative integer, got {value!r}")
            return value

        prompt_tokens, completion_tokens = count("prompt_tokens"), count("completion_tokens")
        if prompt_tokens is not None and completion_tokens is not None:
            return text, TokenUsage(
                input_tokens=prompt_tokens,
                output_tokens=completion_tokens,
                counting_source=CountingSource.PROVIDER_REPORTED,
            )
        return text, TokenUsage(
            input_tokens=count_tokens_approx(prompt.system) + count_tokens_approx(prompt.user),
            output_tokens=count_tokens_approx(text),
            counting_source=CountingSource.LOCAL_APPROXIMATION,
        )
