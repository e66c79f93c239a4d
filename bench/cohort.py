"""Seeded synthetic scripted cohorts and an independent oracle for them.

`generate(seed, n)` writes nothing: it returns a `scripted_json` document
whose cost curves have a knee, an elasticity rebound or a wrong answer past
it, about 10% wrong vanilla answers and about 5% unparsable estimates. The
properties that drive the harness's work (text length, vanilla cost, search
depth, answer kind) are stratified over the cohort, so the seed changes which
question gets what but barely moves the cohort's totals.

`Oracle(document)` predicts every verb's output from the scripted curves
alone. It never imports the package: prompt texts, token approximation,
pricing and the search rule are restated here from the README and the
golden prompt tests, so a change in the package that alters any output
shows as a disagreement.
"""

from __future__ import annotations

import json
import random
import string

SYSTEM = "You are a helpful assistant."
VANILLA_SUFFIX = "Let's think step by step:"
BUDGETED_SUFFIX = "Let's think step by step and use less than {budget} tokens:"
ESTIMATION_TASK = (
    "Task: Analyze the given question and estimate the minimum number of "
    "tokens required for reasoning."
)
ESTIMATION_CONTRACT = "Respond with a single integer."
FORMAT_INSTRUCTION = "Respond with only the letter of the correct option."

MODEL_ID = "scripted-v1"
INPUT_PRICE = 0.15
OUTPUT_PRICE = 0.60
MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_BEHAVIOR = {"output_tokens": 40, "correct": False}

WRONG_VANILLA_SHARE = 0.10
UNPARSABLE_SHARE = 0.05
# (depth, weight): depth is how many halvings the search accepts.
DEPTH_WEIGHTS = ((0, 5), (1, 15), (2, 30), (3, 30), (4, 15), (5, 5))
KIND_WEIGHTS = (("numeric", 70), ("multiple_choice", 15), ("free_text", 15))

_WORDS = (
    "apples baskets train station minutes liters tank farmer market coins "
    "shelf books pages garden rows seeds bakery loaves price discount week "
    "river boat current speed ladder rungs tiles floor paint walls cyclist "
    "hill tickets concert seats bus passengers stop candles box marbles jar"
).split()
_PHRASES = ("blue whale", "north pole", "red giant", "iron oxide", "prime meridian",
            "golden ratio", "tidal lock", "dark matter")
_PUNCTUATION = frozenset(string.punctuation)
_LETTERS = "ABCDE"


def _stratified(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """One draw per stratum of [low, high), shuffled: totals barely depend on the seed."""
    values = [low + (high - low) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _weighted_labels(rng: random.Random, n: int, weights) -> list:
    total = sum(w for _, w in weights)
    labels = []
    for label, weight in weights:
        labels.extend([label] * round(n * weight / total))
    labels = (labels + [weights[0][0]] * n)[:n]
    rng.shuffle(labels)
    return labels


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    chosen = set(rng.sample(range(n), round(n * share)))
    return [i in chosen for i in range(n)]


def _question_text(rng: random.Random, index: int, length: int, kind: str) -> str:
    words = [f"Item {index}:"]
    size = len(words[0])
    while size < length:
        word = rng.choice(_WORDS)
        if rng.random() < 0.2:
            word = f"{word} {rng.randint(2, 99)}"
        words.append(word)
        size += len(word) + 1
    text = " ".join(words) + "?"
    if kind == "multiple_choice":
        options = " ".join(f"({letter}) {rng.randint(1, 500)}" for letter in _LETTERS)
        text = f"{text} Options: {options}"
    return text


def _entry(tokens: int, correct: bool) -> dict:
    return {"output_tokens": max(1, int(tokens)), "correct": correct}


def generate(seed: int, n: int) -> dict:
    """A scripted_json cohort of n questions, fully determined by seed."""
    rng = random.Random(seed)
    lengths = _stratified(rng, n, 60, 700)
    vanilla_costs = _stratified(rng, n, 80, 640)
    depths = _weighted_labels(rng, n, DEPTH_WEIGHTS)
    kinds = _weighted_labels(rng, n, KIND_WEIGHTS)
    wrong_vanilla = _flags(rng, n, WRONG_VANILLA_SHARE)
    unparsable = _flags(rng, n, UNPARSABLE_SHARE)

    questions = []
    for i in range(n):
        kind = kinds[i]
        if kind == "numeric":
            gold = str(rng.randint(2, 9999))
        elif kind == "multiple_choice":
            gold = rng.choice(_LETTERS)
        else:
            gold = rng.choice(_PHRASES)
        upper = int(vanilla_costs[i])
        curve: dict[int, dict] = {}
        if wrong_vanilla[i]:
            optimum, optimum_cost = upper, upper
        else:
            depth = depths[i]
            cost = int(upper * rng.uniform(0.55, 0.85))
            curve[upper] = _entry(cost, True)
            for step in range(1, depth + 1):
                cost = min(cost - 1, int(cost * rng.uniform(0.6, 0.9)))
                curve[upper >> step] = _entry(cost, True)
            optimum, optimum_cost = upper >> depth, cost
            if rng.random() < 0.65:
                # Elasticity rebound: still correct, but costs more than the knee.
                rejected = _entry(cost + rng.randint(1, max(2, cost // 2)), True)
            else:
                rejected = _entry(cost * rng.uniform(0.5, 0.9), False)
            curve[upper >> (depth + 1)] = rejected
            for multiplier in MULTIPLIERS:
                budget = max(1, int(multiplier * optimum))
                if budget not in curve:
                    correct = budget >= optimum or rng.random() < 0.15
                    curve[budget] = _entry(optimum_cost * rng.uniform(0.8, 1.4), correct)

        if unparsable[i]:
            estimate = {"output_tokens": rng.randint(5, 12), "text": "It depends on the question."}
        else:
            value = max(1, int(optimum * rng.uniform(0.5, 2.0)))
            style = rng.choice(("{}", "About {} tokens.", "~{}"))
            estimate = {"output_tokens": rng.randint(1, 8), "text": style.format(value)}
            if value not in curve:
                correct = value >= optimum or rng.random() < 0.6
                curve[value] = _entry(optimum_cost * rng.uniform(0.8, 1.4), correct)

        questions.append(
            {
                "id": f"q{i:05d}",
                "text": _question_text(rng, i, int(lengths[i]), kind),
                "gold_answer": gold,
                "answer_kind": kind,
                "behavior": {
                    "vanilla": _entry(upper, not wrong_vanilla[i]),
                    "estimate": estimate,
                    "budgets": {str(b): e for b, e in sorted(curve.items(), reverse=True)},
                },
            }
        )
    return {
        "name": f"bench-{seed}",
        "default_behavior": dict(DEFAULT_BEHAVIOR),
        "questions": questions,
    }


def write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Prompt texts, restated from the golden prompt tests
# ---------------------------------------------------------------------------


def user_text(question: dict, kind: str, budget: int | None = None) -> str:
    """User message of one prompt kind: direct, vanilla, budgeted or estimation."""
    if kind == "estimation":
        return "\n".join([ESTIMATION_TASK, question["text"], ESTIMATION_CONTRACT])
    parts = [question["text"]]
    if kind == "vanilla":
        parts.append(VANILLA_SUFFIX)
    elif kind == "budgeted":
        parts.append(BUDGETED_SUFFIX.format(budget=budget))
    if question["answer_kind"] == "multiple_choice":
        parts.append(FORMAT_INSTRUCTION)
    return "\n".join(parts)


def approx_tokens(text: str) -> int:
    """Whitespace words plus punctuation marks (the scripted input-token count)."""
    if not text:
        return 0
    return len(text.split()) + sum(1 for ch in text if ch in _PUNCTUATION)


def question_for_prompt(user: str) -> str:
    """The question text inside a rendered user message; texts hold no newline."""
    lines = user.split("\n")
    return lines[1] if user.startswith(ESTIMATION_TASK) else lines[0]


def prompt_kind(user: str) -> tuple[str, int | None]:
    """Classify a rendered user message as (kind, budget)."""
    if user.startswith(ESTIMATION_TASK):
        return "estimation", None
    for line in user.split("\n")[1:]:
        if line == VANILLA_SUFFIX:
            return "vanilla", None
        prefix, _, rest = BUDGETED_SUFFIX.partition("{budget}")
        if line.startswith(prefix) and line.endswith(rest):
            return "budgeted", int(line[len(prefix):-len(rest)])
    return "direct", None


def expense(input_tokens: int, output_tokens: int) -> float:
    """1e-5 USD for one sample at the benchmark's prices."""
    return (input_tokens * INPUT_PRICE + output_tokens * OUTPUT_PRICE) / 10.0


def first_integer(text: str) -> int | None:
    digits = ""
    for ch in text:
        if ch.isdigit() and ch.isascii():
            digits += ch
        elif digits:
            break
    return max(1, int(digits)) if digits else None


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Expected outputs of every verb, computed from the scripted curves."""

    def __init__(self, document: dict):
        self.questions = document["questions"]
        self.default = document.get("default_behavior")
        self._by_id = {q["id"]: q for q in self.questions}
        self._search = {q["id"]: self._search_one(q) for q in self.questions}

    # -- scripted responses -------------------------------------------------

    def entry(self, question: dict, kind: str, budget: int | None = None) -> dict:
        behavior = question["behavior"]
        fallback = behavior.get("default") or self.default
        if kind == "estimation":
            return behavior.get("estimate") or fallback
        if kind in ("direct", "vanilla"):
            return behavior["vanilla"]
        return behavior.get("budgets", {}).get(str(budget), fallback)

    def response(self, question: dict, kind: str, budget: int | None = None) -> dict:
        """Text, correctness and usage of the response to one prompt."""
        entry = self.entry(question, kind, budget)
        correct = entry.get("correct", True)
        text = entry.get("text")
        if text is None:
            if not correct:
                text = "I cannot determine the answer."
            elif question["answer_kind"] == "free_text":
                text = question["gold_answer"]
            else:
                text = f"The answer is {question['gold_answer']}."
        user = user_text(question, kind, budget)
        return {
            "text": text,
            "correct": correct,
            "input_tokens": approx_tokens(SYSTEM) + approx_tokens(user),
            "output_tokens": entry["output_tokens"],
        }

    # -- search ---------------------------------------------------------------

    def _search_one(self, question: dict) -> dict:
        vanilla = self.response(question, "vanilla")
        upper = vanilla["output_tokens"]
        record = {"question_id": question["id"], "upper_bound": upper, "trace": []}
        if not vanilla["correct"]:
            record.update(status="vanilla_incorrect", optimal_budget=None, target_output=None)
            return record
        trace = record["trace"]

        def probe(budget):
            reply = self.response(question, "budgeted", budget)
            trace.append({"budget": budget, "output_tokens": reply["output_tokens"],
                          "correct": reply["correct"]})
            return reply

        best, best_text = upper, vanilla["text"]
        budget = upper // 2
        if budget >= 1:
            previous = probe(upper)["output_tokens"]
            while budget >= 1:
                reply = probe(budget)
                if not (reply["correct"] and reply["output_tokens"] < previous):
                    break
                best, best_text, previous = budget, reply["text"], reply["output_tokens"]
                budget //= 2
        record.update(status="found", optimal_budget=best, target_output=best_text)
        return record

    def search_record(self, question_id: str) -> dict:
        return self._search[question_id]

    def search_prompts(self, question: dict) -> list[tuple[str, int | None]]:
        record = self._search[question["id"]]
        return [("vanilla", None)] + [("budgeted", p["budget"]) for p in record["trace"]]

    # -- eval -----------------------------------------------------------------

    def eval_record(self, question: dict, method: str) -> dict:
        if method in ("direct", "vanilla"):
            reply = self.response(question, method)
            return {
                "question_id": question["id"], "method": method,
                "correct": reply["correct"], "output_tokens": reply["output_tokens"],
                "total_input_tokens": reply["input_tokens"],
                "total_output_tokens": reply["output_tokens"],
                "expense": expense(reply["input_tokens"], reply["output_tokens"]),
                "estimated_budget": None, "budget_used": None, "used_fallback": False,
            }
        estimation = self.response(question, "estimation")
        value = first_integer(estimation["text"])
        if value is None:
            answer = self.response(question, "vanilla")
        else:
            answer = self.response(question, "budgeted", value)
        total_in = estimation["input_tokens"] + answer["input_tokens"]
        total_out = estimation["output_tokens"] + answer["output_tokens"]
        return {
            "question_id": question["id"], "method": "ep",
            "correct": answer["correct"], "output_tokens": answer["output_tokens"],
            "total_input_tokens": total_in, "total_output_tokens": total_out,
            "expense": expense(total_in, total_out),
            "estimated_budget": value, "budget_used": value, "used_fallback": value is None,
        }

    def ep_prompts(self, question: dict) -> list[tuple[str, int | None]]:
        value = first_integer(self.response(question, "estimation")["text"])
        answer = ("vanilla", None) if value is None else ("budgeted", value)
        return [("estimation", None), answer]

    def eval_report_rows(self, methods, questions=None) -> list[dict]:
        questions = self.questions if questions is None else questions
        rows = []
        means = {}
        for method in methods:
            records = [self.eval_record(q, method) for q in questions]
            n = len(records)
            means[method] = sum(r["output_tokens"] for r in records) / n
            rows.append({
                "method": method,
                "accuracy_pct": round(100.0 * sum(1 for r in records if r["correct"]) / n, 2),
                "output_tokens": round(means[method], 2),
                "expense_1e5_usd": round(sum(r["expense"] for r in records) / n, 2),
                "samples": n,
                "failed": 0,
            })
        base = means.get("vanilla")
        for row in rows:
            reduction = None
            if base and row["method"] != "vanilla":
                reduction = round((1.0 - means[row["method"]] / base) * 100.0, 2)
            row["token_reduction_pct"] = reduction
        return rows

    # -- ptdata (DPO) -----------------------------------------------------------

    def dpo_outcome(self, question: dict) -> dict:
        """Either {"skip": reason} or the exported preference record."""
        record = self._search[question["id"]]
        if record["status"] != "found":
            return {"skip": record["status"]}
        vanilla = self.response(question, "vanilla")
        optimum = record["optimal_budget"]
        if optimum == record["upper_bound"]:
            positive = vanilla
        else:
            positive = self.response(question, "budgeted", optimum)
        if positive["output_tokens"] >= vanilla["output_tokens"]:
            return {"skip": "length_inversion"}
        return {
            "input": user_text(question, "vanilla"),
            "chosen": positive["text"],
            "rejected": vanilla["text"],
            "meta": {
                "question_id": question["id"],
                "optimal_budget": optimum,
                "positive_tokens": positive["output_tokens"],
                "negative_tokens": vanilla["output_tokens"],
            },
        }

    # -- audit ----------------------------------------------------------------

    def audit(self, question: dict) -> dict | None:
        record = self._search[question["id"]]
        if record["status"] != "found":
            return None
        optimum = record["optimal_budget"]
        checks = []
        for multiplier in MULTIPLIERS:
            budget = max(1, int(multiplier * optimum))
            reply = self.response(question, "budgeted", budget)
            checks.append({"multiplier": multiplier, "budget": budget,
                           "correct": reply["correct"], "output_tokens": reply["output_tokens"]})
        monotonic = all(c["correct"] == (c["budget"] >= optimum) for c in checks)
        return {"question_id": question["id"], "optimal_budget": optimum,
                "is_monotonic": monotonic, "checks": checks}

    # -- elasticity ---------------------------------------------------------

    def ideal_range(self, question_id: str) -> dict | None:
        """Minimum-cost window of size max(1, n // 3) over the correct trace points."""
        record = self._search[question_id]
        if record["status"] != "found":
            return None
        points = [p for p in record["trace"] if p["correct"]]
        if not points:
            return None
        k = max(1, len(points) // 3)
        best = None
        for start in range(len(points) - k + 1):
            window = points[start:start + k]
            total = sum(p["output_tokens"] for p in window)
            if best is None or total < best[0]:
                best = (total, window)
        total, window = best
        budgets = [p["budget"] for p in window]
        return {"question_id": question_id, "k": k, "window_budgets": budgets,
                "low": min(budgets), "high": max(budgets), "total_cost": total}

    # -- spend ------------------------------------------------------------------

    def distinct_prompts(self, verbs, methods) -> dict[tuple, dict]:
        """Every distinct prompt the verbs (and eval methods) send, with its response."""
        prompts: dict[tuple, dict] = {}
        for question in self.questions:
            wanted = []
            if "search" in verbs or "ptdata" in verbs:
                wanted += self.search_prompts(question)
            if "eval" in verbs:
                for method in methods:
                    wanted += self.ep_prompts(question) if method == "ep" else [(method, None)]
            if "audit" in verbs:
                audit = self.audit(question)
                if audit is not None:
                    wanted += [("budgeted", c["budget"]) for c in audit["checks"]]
            for kind, budget in wanted:
                key = (question["id"], kind, budget)
                if key not in prompts:
                    prompts[key] = self.response(question, kind, budget)
        return prompts

    def spend(self, verbs, methods) -> dict:
        """Upstream calls, output tokens and expense of a cold run of the verbs."""
        replies = self.distinct_prompts(verbs, methods).values()
        return {
            "calls": len(replies),
            "output_tokens": sum(r["output_tokens"] for r in replies),
            "expense": sum(expense(r["input_tokens"], r["output_tokens"]) for r in replies),
        }
