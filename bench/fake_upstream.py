"""Localhost OpenAI-compatible fake that answers from a scripted cohort.

Run as a child process:

    python3 bench/fake_upstream.py --cohort COHORT.json --seed N

It prints its port on the first line of stdout, then serves
``POST /v1/chat/completions`` until it is terminated. Every reply is held
until a fixed delay after the request arrived, so the fake's own compute
never shows in the client's timings.

Faults are seeded per prompt: a share of first attempts gets 429 or 503,
and a smaller share of prompts gets 500 on every attempt. ``GET /stats``
returns the request counters and ``POST /reset`` clears them together with
the per-prompt attempt counts, so each timed pass sees the same faults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cohort import Oracle, approx_tokens, prompt_kind, question_for_prompt

REPLY_DELAY_S = 0.020
FIRST_ATTEMPT_FAULT_SHARE = 0.05
PERMANENT_FAULT_SHARE = 0.01

_REASONS = {200: "OK", 404: "Not Found", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def fault_draw(seed: int, user: str) -> float:
    """Uniform value in [0, 1) fixed by (seed, prompt)."""
    digest = hashlib.sha256(f"{seed}|{user}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FakeUpstream:
    """Scripted answers plus fault injection; counters are guarded by one lock."""

    def __init__(self, document: dict, seed: int):
        self.oracle = Oracle(document)
        self.by_text = {q["text"]: q for q in document["questions"]}
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.stats = {"requests": 0, "retries": 0, "status": {},
                          "input_tokens": 0, "output_tokens": 0,
                          "faulted_questions": []}

    def snapshot(self) -> dict:
        with self.lock:
            return json.loads(json.dumps(self.stats))

    def answer(self, body: dict) -> tuple[int, dict]:
        system = body["messages"][0]["content"]
        user = body["messages"][1]["content"]
        question = self.by_text[question_for_prompt(user)]
        draw = fault_draw(self.seed, user)
        with self.lock:
            attempt = self.attempts.get(user, 0)
            self.attempts[user] = attempt + 1
            stats = self.stats
            stats["requests"] += 1
            if attempt:
                stats["retries"] += 1
            if draw < PERMANENT_FAULT_SHARE:
                status = 500
                if question["id"] not in stats["faulted_questions"]:
                    stats["faulted_questions"].append(question["id"])
            elif draw < PERMANENT_FAULT_SHARE + FIRST_ATTEMPT_FAULT_SHARE and attempt == 0:
                status = 429 if int(draw * 1e6) % 2 else 503
            else:
                status = 200
            stats["status"][str(status)] = stats["status"].get(str(status), 0) + 1
            if status != 200:
                return status, {"error": {"message": "injected fault", "code": status}}
            kind, budget = prompt_kind(user)
            reply = self.oracle.response(question, kind, budget)
            input_tokens = approx_tokens(system) + approx_tokens(user)
            stats["input_tokens"] += input_tokens
            stats["output_tokens"] += reply["output_tokens"]
        return 200, {
            "object": "chat.completion",
            "model": body.get("model"),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": reply["text"]}}],
            "usage": {"prompt_tokens": input_tokens,
                      "completion_tokens": reply["output_tokens"],
                      "total_tokens": input_tokens + reply["output_tokens"]},
        }


def make_handler(upstream: FakeUpstream):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, document: dict, not_before: float = 0.0) -> None:
            data = json.dumps(document).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            delay = not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            # Headers and body in one write: split writes meet Nagle's
            # algorithm and delayed ACKs, which add about 40 ms per reply.
            self.wfile.write(head + data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, upstream.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            arrived = time.monotonic()
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            if self.path == "/reset":
                upstream.reset()
                self._reply(200, {"ok": True})
            elif self.path.endswith("/chat/completions"):
                status, document = upstream.answer(json.loads(body))
                self._reply(status, document, not_before=arrived + REPLY_DELAY_S)
            else:
                self._reply(404, {"error": "not found"})

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cohort", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.cohort, "r", encoding="utf-8") as handle:
        upstream = FakeUpstream(json.load(handle), args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(upstream))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
