"""Span tracing of the harness from outside the package.

`Tracer.install()` replaces each traced function of `tokenbudget` with a
wrapper at every import site: modules such as `search`, `ep`, `evaluate` and
`ptdata` import `grade` and `build_prompt` by name, so patching only the
defining module would miss their calls. Methods are patched on their class.

A span is (id, name, start, end, parent id, question id). Spans nest per
thread; the first span a pool worker opens takes the active pool span as its
parent and the id of the question it was handed, and its children inherit
that id. Spans stay in memory until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Attributes with a dot are methods.
TRACED = (
    ("cli", "cmd_search", "cli.search"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_ptdata", "cli.ptdata"),
    ("cli", "cmd_audit", "cli.audit"),
    ("cli", "cmd_elasticity", "cli.elasticity"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "build_backend", "cli.build_backend"),
    ("cli", "_pool_map", "cli.pool"),
    ("prompting", "build_prompt", "prompting.build_prompt"),
    ("grading", "grade", "grading.grade"),
    ("backend", "request_fingerprint", "backend.fingerprint"),
    ("backend", "parse_scripted_file", "backend.scripted.parse"),
    ("backend", "ResponseCache.__init__", "backend.cache.load"),
    ("backend", "ResponseCache.get", "backend.cache.get"),
    ("backend", "ResponseCache.put", "backend.cache.put"),
    ("backend", "CompletionBackend.complete", "backend.complete"),
    ("backend", "ScriptedBackend._request", "backend.scripted.request"),
    ("backend", "LiveBackend._request", "backend.live.request"),
    ("search", "search_optimal_budget", "search.search_optimal_budget"),
    ("search", "monotonicity_audit", "search.monotonicity_audit"),
    ("search", "ideal_budget_range", "search.ideal_budget_range"),
    ("ep", "run_ep", "ep.run_ep"),
    ("ptdata", "generate_target", "ptdata.generate_target"),
    ("ptdata", "build_preference_pair", "ptdata.build_preference_pair"),
    ("ptdata", "export_corpus", "ptdata.export_corpus"),
    ("evaluate", "load_dataset", "evaluate.load_dataset"),
    ("evaluate", "run_method", "evaluate.run_method"),
    ("evaluate", "_run_sample", "evaluate.run_sample"),
    ("evaluate", "render_report", "evaluate.render_report"),
)

# Spans under which per-question tasks run on pool threads.
POOL_SPANS = frozenset({"cli.pool", "evaluate.run_method"})


def _question_id(args, kwargs) -> str | None:
    """Id of the Question a per-question entry point was handed, if any."""
    question = kwargs.get("question", args[1] if len(args) > 1 else None)
    return question.id if hasattr(question, "gold_answer") else None


class Tracer:
    """Collects spans, plus the number of cache entries each cache load read."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        is_pool = name in POOL_SPANS
        is_cache_load = name == "backend.cache.load"

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, qid = stack[-1]
            else:
                parent, qid = (tracer._pool[-1] if tracer._pool else None), None
            if qid is None:
                qid = _question_id(args, kwargs)
            span_id = next(tracer._ids)
            stack.append((span_id, qid))
            if is_pool:
                tracer._pool.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_pool:
                    tracer._pool.pop()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, qid))
                if is_cache_load:
                    with tracer._lock:
                        tracer.counts["backend.cache.entries_loaded"] += len(args[0])

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced function at its definition and every import site."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tokenbudget" or name.startswith("tokenbudget.")}
        for module_name, attribute, span in TRACED:
            owner = modules[f"tokenbudget.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(span, original)
            for module in modules.values():
                if getattr(module, attribute, None) is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, qid in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "question": qid}) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds (busy minus child cover)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    summary: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, _, _ in spans:
        row = summary[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += (end - start) - _covered(start, end, children.get(span_id, []))
    return dict(summary)


def pool_idle_share(spans: list[tuple], workers: int) -> float:
    """1 - per-question busy time / (pool phase wall time x workers)."""
    pool_ids = {span[0]: span for span in spans if span[1] in POOL_SPANS}
    wall = sum(end - start for _, _, start, end, _, _ in pool_ids.values())
    busy = sum(end - start for _, name, start, end, parent, qid in spans
               if parent in pool_ids and qid is not None and name not in POOL_SPANS)
    return 1.0 - busy / (wall * workers) if wall > 0 else 0.0
