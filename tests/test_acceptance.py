"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is either computed by an independent oracle inside
this module (brute-force simulation, exhaustive window enumeration, hand
arithmetic) or asserted byte-exact against the frozen template texts.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from tokenbudget.backend import ResponseCache
from tokenbudget.cli import main
from tokenbudget.core import (
    CountingSource,
    ModelPricing,
    TokenUsage,
    compute_expense,
)
from tokenbudget.ep import run_ep
from tokenbudget.evaluate import Dataset, MethodSpec, run_method, token_reduction
from tokenbudget.prompting import (
    BUDGETED_COT_SUFFIX,
    ESTIMATION_TASK,
    PromptKind,
    VANILLA_COT_SUFFIX,
    build_estimation_prompt,
    build_prompt,
)
from tokenbudget.ptdata import (
    DPO_FORMAT,
    SFT_FORMAT,
    Skip,
    build_preference_pair,
    generate_target,
    export_corpus,
    load_corpus,
    manifest_path,
)
from tokenbudget.search import (
    ElasticityTrace,
    TracePoint,
    estimator_quality,
    ideal_budget_range,
    monotonic_fraction,
    monotonicity_audit,
    search_optimal_budget,
)
from tokenbudget.grading import grade

from conftest import (
    behavior_from_curve,
    make_question,
    scripted_backend,
    write_demo_files,
)


def _passed(number: int, description: str) -> None:
    print(f"criterion {number:02d} PASS - {description}")


# ---------------------------------------------------------------------------
# Criteria 1 & 2: search oracle equivalence and query-count bound
# ---------------------------------------------------------------------------


def _simulate_search(upper, vanilla_correct, cost_of, correct_at, baseline):
    """Independent brute-force walk of the halving sequence with the
    correct-and-strictly-cheaper acceptance rule."""
    if not vanilla_correct:
        return "vanilla_incorrect", None, []
    candidates = []
    budget = upper // 2
    while budget >= 1:
        candidates.append(budget)
        budget //= 2
    trace = []
    best = upper
    if candidates:
        if baseline == "probe":
            previous = cost_of(upper)
            trace.append((upper, previous, correct_at(upper)))
        else:
            previous = upper
        for budget in candidates:
            cost, ok = cost_of(budget), correct_at(budget)
            trace.append((budget, cost, ok))
            if ok and cost < previous:
                best, previous = budget, cost
            else:
                break
    return "found", best, trace


def _random_curve(rng: random.Random, upper: int):
    """Cost profile over the budgets the walk can touch: U-shaped, monotone,
    or unstructured noise."""
    budgets = {upper}
    budget = upper // 2
    while budget >= 1:
        budgets.add(budget)
        budget //= 2
    shape = rng.choice(("u", "monotone", "noise"))
    sweet = rng.randint(1, upper)
    costs = {}
    for b in sorted(budgets):
        if shape == "u":
            base = 1 + (abs(b - sweet) * 701) // max(1, upper)
        elif shape == "monotone":
            base = 1 + (b * 537) // max(1, upper)
        else:
            base = rng.randint(1, 2 * upper)
        costs[b] = max(1, base + rng.randint(0, 5))
    return costs


def test_criterion_01_and_02_search_matches_bruteforce_oracle():
    rng = random.Random(20260810)
    started = time.monotonic()
    checked = 0
    for index in range(220):
        upper = rng.randint(8, 4096)
        vanilla_correct = rng.random() > 0.1
        threshold = rng.randint(1, upper)
        baseline = rng.choice(("probe", "vanilla"))
        costs = _random_curve(rng, upper)

        question = make_question(qid=f"r{index}", text=f"Randomized curve {index}?", gold="18")
        curve = {b: (cost, b >= threshold) for b, cost in costs.items()}
        backend = scripted_backend(
            {
                question: behavior_from_curve(
                    vanilla_tokens=upper, curve=curve, vanilla_correct=vanilla_correct
                )
            }
        )

        expected_status, expected_best, expected_trace = _simulate_search(
            upper,
            vanilla_correct,
            cost_of=lambda b: costs[b],
            correct_at=lambda b: b >= threshold,
            baseline=baseline,
        )
        result = search_optimal_budget(backend, question, baseline=baseline)

        assert result.status == expected_status
        assert result.optimal_budget == expected_best
        observed_trace = [(p.budget, p.output_tokens, p.correct) for p in result.trace.points]
        assert observed_trace == expected_trace

        # Criterion 2: vanilla + optional probe + halving walk.
        bound = (upper - 1).bit_length() + 2
        assert backend.upstream_calls <= bound
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 200
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.3f}s"
    _passed(1, f"search equals brute-force oracle on {checked} random curves in {elapsed:.2f}s")
    _passed(2, "every search stayed within ceil(log2(upper)) + 2 completions")


# ---------------------------------------------------------------------------
# Criterion 3: elasticity reproduction (cost rebound at the smallest budget)
# ---------------------------------------------------------------------------


def test_criterion_03_elasticity_rebound_reproduced(tmp_path, rebound_question, rebound_backend):
    result = search_optimal_budget(rebound_backend, rebound_question)
    assert result.optimal_budget == 64
    assert [(p.budget, p.output_tokens, p.correct) for p in result.trace.points] == [
        (256, 130, True), (128, 120, True), (64, 70, True), (32, 90, True),
    ]

    config, dataset = write_demo_files(tmp_path)
    out = str(tmp_path / "search")
    assert main(["search", "--config", config, "--dataset", dataset, "--out-dir", out]) == 0
    with open(os.path.join(out, "elasticity.csv")) as handle:
        lines = [line.strip().split(",") for line in handle][1:]
    rows = [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in lines if r[0] == "rebound"]
    assert rows == [
        ("rebound", 1, 256, 130),
        ("rebound", 2, 128, 120),
        ("rebound", 3, 64, 70),
        ("rebound", 4, 32, 90),
    ]
    # The rebound: the cost at the smallest searched budget exceeds the
    # cost at the accepted optimum.
    assert rows[3][3] > rows[2][3]

    # Same qualitative pattern as the unreasonable-vs-reasonable budget pair:
    # an over-tight budget tier costs 157 tokens where the reasonable tier
    # costs 86, so the tight tier is rejected.
    question = make_question(qid="tiers", text="Tier question?", gold="18")
    backend = scripted_backend(
        {
            question: behavior_from_curve(
                vanilla_tokens=100, curve={100: (120, True), 50: (86, True), 25: (157, True)}
            )
        }
    )
    tier_result = search_optimal_budget(backend, question)
    assert tier_result.optimal_budget == 50
    assert tier_result.trace.points[-1].output_tokens == 157
    _passed(3, "halving trace reproduces the 130/120/70/90 rebound and keeps 64")


# ---------------------------------------------------------------------------
# Criterion 4: rolling-window oracle equivalence
# ---------------------------------------------------------------------------


def _window_oracle(costs: list[int], k: int) -> tuple[int, int]:
    """Exhaustive enumeration of every size-k window sum (vectorized)."""
    arr = np.asarray(costs, dtype=np.int64)
    prefix = np.concatenate(([np.int64(0)], np.cumsum(arr)))
    sums = prefix[k:] - prefix[:-k]
    start = int(np.argmin(sums))  # argmin returns the first minimum
    return start, int(sums[start])


def test_criterion_04_window_matches_exhaustive_enumeration():
    rng = random.Random(41)
    started = time.monotonic()
    cases = 0
    for _ in range(1000):
        length = rng.randint(3, 300)
        budgets = sorted(rng.sample(range(1, 12 * length + 12), length), reverse=True)
        costs = [rng.randint(1, 1000) for _ in range(length)]
        trace = ElasticityTrace(
            [TracePoint(b, c, True) for b, c in zip(budgets, costs)]
        )
        for k in ("auto", 1, 2, 5):
            window_size = max(1, length // 3) if k == "auto" else k
            if window_size > length:
                continue
            start, total = _window_oracle(costs, window_size)
            window = ideal_budget_range(trace, k)
            assert window.total_cost == total
            assert window.budgets == tuple(budgets[start:start + window_size])
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"window sweep took {elapsed:.3f}s"
    _passed(4, f"rolling window equals exhaustive enumeration on {cases} cases in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 5: estimator-quality arithmetic
# ---------------------------------------------------------------------------


def test_criterion_05_estimator_quality_fixture():
    trace = ElasticityTrace(
        [TracePoint(80, 10, True), TracePoint(60, 10, True), TracePoint(40, 10, True)]
    )
    window = ideal_budget_range(trace, k=3)
    assert (window.low, window.high) == (40, 80)
    quality = estimator_quality([(50, window), (100, window), (60, window)])
    assert quality.in_range_accuracy == 2 / 3
    assert quality.out_of_range_distance == 20.0
    _passed(5, "three-estimate fixture scores accuracy 2/3 and distance 20 exactly")


# ---------------------------------------------------------------------------
# Criterion 6: prompt byte-exactness
# ---------------------------------------------------------------------------


def test_criterion_06_prompt_golden_bytes():
    assert VANILLA_COT_SUFFIX == "Let's think step by step:"
    assert BUDGETED_COT_SUFFIX == "Let's think step by step and use less than {budget} tokens:"
    assert ESTIMATION_TASK == (
        "Task: Analyze the given question and estimate the minimum number of "
        "tokens required for reasoning."
    )

    question = make_question(qid="g", text="How many bolts in total?", gold="3")
    assert build_prompt(question, PromptKind.VANILLA_COT).user == (
        "How many bolts in total?\nLet's think step by step:"
    )
    assert build_prompt(question, PromptKind.BUDGETED_COT, budget=50).user == (
        "How many bolts in total?\nLet's think step by step and use less than 50 tokens:"
    )
    assert build_prompt(question, PromptKind.DIRECT_ANSWER).user == "How many bolts in total?"
    assert build_estimation_prompt(question).user.startswith(ESTIMATION_TASK)
    _passed(6, "template texts and the rendered 50-token example are byte-exact")


# ---------------------------------------------------------------------------
# Criterion 7: monotonicity audit
# ---------------------------------------------------------------------------


def _threshold_audit(qid: str, optimal: int, violator: bool):
    question = make_question(qid=qid, text=f"Audit question {qid}?", gold="18")
    curve = {}
    for multiplier in (0.25, 0.5, 1, 2, 4):
        budget = max(1, int(multiplier * optimal))
        ok = budget >= optimal
        if violator and multiplier == 0.5:
            ok = True  # correct below the optimum breaks the pattern
        curve[budget] = (100, ok)
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=4 * optimal, curve=curve)}
    )
    return monotonicity_audit(backend, question, optimal)


def test_criterion_07_monotonicity_pattern_and_cohort_rate():
    clean = _threshold_audit("clean", optimal=64, violator=False)
    assert [c.correct for c in clean.checks] == [False, False, True, True, True]
    assert clean.is_monotonic

    audits = [_threshold_audit(f"m{i}", 64, violator=(i == 10)) for i in range(11)]
    assert sum(1 for a in audits if a.is_monotonic) == 10
    fraction = monotonic_fraction(audits)
    assert round(fraction * 100, 2) == 90.91
    _passed(7, "F,F,T,T,T classifies monotonic; 10/11 cohort reports 90.91%")


# ---------------------------------------------------------------------------
# Criterion 8: metrics arithmetic
# ---------------------------------------------------------------------------


def test_criterion_08_metrics_arithmetic():
    questions = [
        make_question(qid="a", text="First metric question?", gold="1"),
        make_question(qid="b", text="Second metric question?", gold="2"),
        make_question(qid="c", text="Third metric question?", gold="3"),
    ]
    backend = scripted_backend(
        {
            questions[0]: behavior_from_curve(vanilla_tokens=10, curve={}),
            questions[1]: behavior_from_curve(vanilla_tokens=20, curve={}),
            questions[2]: behavior_from_curve(vanilla_tokens=30, curve={}, vanilla_correct=False),
        }
    )
    pricing = ModelPricing("scripted-v1", 0.15, 0.60)
    run = run_method(
        backend, Dataset("metrics", questions), MethodSpec("vanilla"), pricing, concurrency=1
    )
    assert abs(run.report.accuracy - 2 / 3) == 0.0
    assert run.report.mean_output_tokens == 20.0

    usage = TokenUsage(100, 200, CountingSource.PROVIDER_REPORTED)
    assert compute_expense(usage, ModelPricing("m", 0.15, 0.60)) == 13.5

    reduction = token_reduction(461.25, 148.72)
    assert abs(reduction - 67.0) <= 1.0
    _passed(8, f"accuracy 2/3, mean 20 tokens, expense 13.5e-5 $, reduction {reduction:.2f}%")


# ---------------------------------------------------------------------------
# Criterion 9: training-corpus integrity
# ---------------------------------------------------------------------------


def _pt_cohort():
    searchable = []
    for i in range(3):
        question = make_question(qid=f"pt{i}", text=f"Corpus question {i}?", gold=str(i + 1))
        behavior = behavior_from_curve(
            vanilla_tokens=256,
            curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
        )
        searchable.append((question, behavior))
    broken = make_question(qid="pt-bad", text="Corpus question that fails?", gold="9")
    behaviors = {q: b for q, b in searchable}
    behaviors[broken] = behavior_from_curve(vanilla_tokens=100, curve={}, vanilla_correct=False)
    return list(behaviors), scripted_backend(behaviors)


def test_criterion_09_pt_corpus_integrity(tmp_path):
    questions, backend = _pt_cohort()

    records = {q.id: search_optimal_budget(backend, q) for q in questions}
    sft_outcomes = [generate_target(backend, q, records[q.id]) for q in questions]
    sft_path = str(tmp_path / "corpus_sft.jsonl")
    manifest = export_corpus(
        sft_outcomes, SFT_FORMAT, sft_path,
        dataset_name="pt-fixture", model_id="scripted-v1", questions=questions,
    )
    assert manifest.counts["attempted"] == 4
    assert manifest.counts["succeeded"] == 3
    assert manifest.counts["skipped"] == {"vanilla_incorrect": 1}
    loaded = load_corpus(sft_path, SFT_FORMAT)
    exported = [o for o in sft_outcomes if not isinstance(o, Skip)]
    assert loaded == exported
    assert len(loaded) == 3
    question_index = {q.id: q for q in questions}
    for record in loaded:
        assert grade(record.target, question_index[record.meta["question_id"]]).correct

    dpo_outcomes = [build_preference_pair(backend, q, records[q.id]) for q in questions]
    dpo_path = str(tmp_path / "corpus_dpo.jsonl")
    dpo_manifest = export_corpus(
        dpo_outcomes, DPO_FORMAT, dpo_path,
        dataset_name="pt-fixture", model_id="scripted-v1", questions=questions,
    )
    pairs = load_corpus(dpo_path, DPO_FORMAT)
    assert dpo_manifest.counts["succeeded"] <= 3
    assert len(pairs) <= 3
    for pair in pairs:
        assert pair.meta["positive_tokens"] < pair.meta["negative_tokens"]
        assert grade(pair.chosen, question_index[pair.meta["question_id"]]).correct
    assert os.path.exists(manifest_path(sft_path))
    _passed(9, f"sft 3/4 exported, dpo {len(pairs)} pairs, round-trip identical")


# ---------------------------------------------------------------------------
# Criterion 10: determinism and cache resumability
# ---------------------------------------------------------------------------


def _tree_bytes(root: str) -> dict[str, bytes]:
    snapshot = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, root)] = handle.read()
    return snapshot


def test_criterion_10_determinism_and_resumability(tmp_path):
    config, dataset = write_demo_files(tmp_path)

    def run_all(out: str):
        assert main(
            ["eval", "--config", config, "--dataset", dataset, "--out-dir", out,
             "--methods", "direct,vanilla,ep", "--concurrency", "1"]
        ) == 0
        assert main(
            ["search", "--config", config, "--dataset", dataset, "--out-dir", out,
             "--concurrency", "1"]
        ) == 0

    out_a, out_b = str(tmp_path / "run_a"), str(tmp_path / "run_b")
    run_all(out_a)
    run_all(out_b)
    snapshot_a = _tree_bytes(out_a)
    assert snapshot_a == _tree_bytes(out_b)
    assert "search_results.jsonl" in snapshot_a and "cache.jsonl" in snapshot_a

    # Resume into the warm directory: the cache must not grow (zero upstream
    # calls) and every output must stay byte-identical.
    run_all(out_a)
    assert _tree_bytes(out_a) == snapshot_a

    # Library-level duplicate check: replaying the whole pipeline against a
    # warm cache never sends the same fingerprint upstream twice: every
    # upstream call added exactly one cache entry.
    question = make_question(qid="resume", text="Resumable question?", gold="18")
    behavior = behavior_from_curve(
        vanilla_tokens=256,
        curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
    )
    cache = ResponseCache(str(tmp_path / "resume-cache.jsonl"))
    backend = scripted_backend({question: behavior}, cache=cache)
    search_optimal_budget(backend, question)
    first_pass = backend.upstream_calls
    search_optimal_budget(backend, question)
    assert backend.upstream_calls == first_pass
    assert backend.upstream_calls == len(cache)
    _passed(10, "two runs byte-identical; warm-cache rerun made zero upstream calls")


# ---------------------------------------------------------------------------
# Criterion 11: estimate-then-prompt contract
# ---------------------------------------------------------------------------


def test_criterion_11_ep_contract():
    question = make_question(qid="ep", text="Estimate-then-prompt question?", gold="18")
    behavior = behavior_from_curve(
        vanilla_tokens=258,
        curve={
            258: (130, True),
            129: (120, True),
            64: (86, True),
            50: (86, True),
            32: (70, True),
            16: (90, True),
        },
        estimate="50",
    )
    search_backend = scripted_backend({question: behavior})
    result = search_optimal_budget(search_backend, question)
    window = ideal_budget_range(result.trace, k=2)
    assert window.contains(50), "fixture must place the estimate inside the ideal range"

    ep_backend = scripted_backend({question: behavior})
    ep_result = run_ep(ep_backend, question)
    assert ep_result.estimate == 50
    assert ep_result.verdict.correct
    assert ep_result.answer_usage.output_tokens == 86
    assert ep_result.answer_usage.output_tokens < 258
    assert ep_backend.upstream_calls == 2
    _passed(11, "estimate in ideal range, 86 < 258 answer tokens, exactly 2 calls")
