"""Dataset loading, sampling, method execution, and report rendering."""

from __future__ import annotations

import json
import signal
import sys
import threading
import time

import pytest

from tokenbudget.backend import ScriptedBackend, ScriptedScenario
from tokenbudget.core import AnswerKind, ModelPricing, PricingTable
from tokenbudget.errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from tokenbudget.evaluate import (
    CSV_FORMAT,
    Dataset,
    JSON_FORMAT,
    MethodSpec,
    _pool_map,
    aggregate_records,
    load_dataset,
    parse_method,
    render_report,
    run_method,
    sample_dataset,
    token_reduction,
)

from conftest import behavior_from_curve, make_question, scripted_backend

PRICING = PricingTable([ModelPricing("scripted-v1", 0.15, 0.60)])


def three_sample_cohort():
    """Two correct, one wrong; vanilla costs 10, 20, 30 tokens."""
    questions = [
        make_question(qid="a", text="First question?", gold="1"),
        make_question(qid="b", text="Second question?", gold="2"),
        make_question(qid="c", text="Third question?", gold="3"),
    ]
    behaviors = {
        questions[0]: behavior_from_curve(vanilla_tokens=10, curve={}),
        questions[1]: behavior_from_curve(vanilla_tokens=20, curve={}),
        questions[2]: behavior_from_curve(vanilla_tokens=30, curve={}, vanilla_correct=False),
    }
    backend = scripted_backend(behaviors)
    return Dataset(name="fixture", questions=questions), backend


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def test_load_gsm8k_marker_convention(tmp_path):
    path = tmp_path / "toy.jsonl"
    path.write_text(
        json.dumps({"question": "Q one?", "answer": "Work...\n#### 18"}) + "\n"
        + json.dumps({"question": "Q two?", "answer": "More...\n#### 1,234"}) + "\n"
    )
    dataset = load_dataset(str(path), "gsm8k_jsonl")
    assert dataset.name == "gsm8k"
    assert dataset.questions[0].gold_answer == "18"
    assert dataset.questions[0].answer_kind is AnswerKind.NUMERIC
    assert dataset.questions[1].gold_answer == "1,234"


def test_load_gsm8k_names_bad_line(tmp_path):
    lines = [json.dumps({"question": f"Q{i}?", "answer": f"#### {i}"}) for i in range(6)]
    lines.append("{not json")
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="line 7"):
        load_dataset(str(path), "gsm8k_jsonl")


def test_load_gsm8k_missing_marker_aborts(tmp_path):
    path = tmp_path / "nm.jsonl"
    path.write_text(json.dumps({"question": "Q?", "answer": "no marker here"}) + "\n")
    with pytest.raises(DatasetError, match="marker"):
        load_dataset(str(path), "gsm8k_jsonl")


def test_load_mathbench_multiple_choice(tmp_path):
    path = tmp_path / "mb.json"
    path.write_text(
        json.dumps(
            [
                {"question": "Pick: A. 1 B. 2", "answer": "b"},
                {"id": "mb-7", "question": "Pick: A. x B. y", "answer": "A"},
            ]
        )
    )
    dataset = load_dataset(str(path), "mathbench_json")
    assert all(q.answer_kind is AnswerKind.MULTIPLE_CHOICE for q in dataset.questions)
    assert dataset.questions[0].gold_answer == "B"
    assert dataset.questions[1].id == "mb-7"


def test_load_mathbench_jsonl_form(tmp_path):
    path = tmp_path / "mb.jsonl"
    path.write_text(json.dumps({"question": "Pick: A. 1", "answer": "A"}) + "\n")
    assert len(load_dataset(str(path), "mathbench_json")) == 1


def test_load_unknown_format_rejected(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(DatasetError):
        load_dataset(str(path), "csv")


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    record = json.dumps({"id": "same", "question": "Q?", "answer": "#### 1"})
    path.write_text(record + "\n" + record + "\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(str(path), "gsm8k_jsonl")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _toy_dataset(n=10):
    return Dataset(
        name="toy",
        questions=[make_question(qid=f"q{i}", text=f"Question {i}?", gold="1") for i in range(n)],
    )


def test_sample_same_seed_same_subset():
    dataset = _toy_dataset()
    first = sample_dataset(dataset, 5, seed=1024)
    second = sample_dataset(dataset, 5, seed=1024)
    assert [q.id for q in first.questions] == [q.id for q in second.questions]


def test_sample_preserves_source_order():
    dataset = _toy_dataset()
    sampled = sample_dataset(dataset, 6, seed=7)
    indices = [int(q.id[1:]) for q in sampled.questions]
    assert indices == sorted(indices)


def test_sample_full_size_keeps_membership():
    dataset = _toy_dataset(4)
    sampled = sample_dataset(dataset, 4, seed=3)
    assert {q.id for q in sampled.questions} == {q.id for q in dataset.questions}


def test_sample_too_large_is_domain_error():
    with pytest.raises(ValueError):
        sample_dataset(_toy_dataset(3), 4, seed=1)


# ---------------------------------------------------------------------------
# run_method
# ---------------------------------------------------------------------------


def test_three_sample_aggregation_oracle():
    dataset, backend = three_sample_cohort()
    run = run_method(backend, dataset, MethodSpec("vanilla"), PRICING, concurrency=1)
    assert run.report.accuracy == pytest.approx(2 / 3)
    assert run.report.mean_output_tokens == 20.0
    assert run.report.sample_count == 3
    assert run.report.failed_count == 0


def test_empty_cohort_is_domain_error():
    _, backend = three_sample_cohort()
    with pytest.raises(ValueError):
        run_method(backend, Dataset("empty", []), MethodSpec("vanilla"), PRICING)


def test_aggregate_recomputable_from_records():
    dataset, backend = three_sample_cohort()
    run = run_method(backend, dataset, MethodSpec("vanilla"), PRICING, concurrency=2)
    assert aggregate_records(run.records) == run.report


def test_records_stream_in_dataset_order_regardless_of_concurrency():
    dataset, backend = three_sample_cohort()
    run = run_method(backend, dataset, MethodSpec("vanilla"), PRICING, concurrency=4)
    assert [r.question_id for r in run.records] == ["a", "b", "c"]


def test_backend_failures_excluded_from_denominator():
    class Flaky(ScriptedBackend):
        def _request(self, prompt):
            if "Second" in prompt.user:
                raise TransportError("down")
            return super()._request(prompt)

    dataset, _ = three_sample_cohort()
    behaviors = {
        q.id: behavior_from_curve(vanilla_tokens=10 * (i + 1), curve={}, vanilla_correct=i != 2)
        for i, q in enumerate(dataset.questions)
    }
    backend = Flaky(ScriptedScenario("fixture", dataset.questions, behaviors))
    run = run_method(backend, dataset, MethodSpec("vanilla"), PRICING, concurrency=1)
    assert run.report.failed_count == 1
    assert run.report.sample_count == 2
    # One graded correct of two graded: the failure is not a wrong answer.
    assert run.report.accuracy == pytest.approx(1 / 2)
    failed = [r for r in run.records if r.failed]
    assert failed[0].question_id == "b" and "down" in failed[0].error


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_returns_provider_errors_in_their_items_place(concurrency):
    errors = {2: TransportError("down"), 3: RateLimitError("429"), 5: ProtocolError("garbled")}

    def worker(item):
        if item in errors:
            raise errors[item]
        return item * 10

    results = _pool_map(worker, range(7), concurrency)
    assert results == [0, 10, errors[2], errors[3], 40, errors[5], 60]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_raises_any_other_error(concurrency):
    def worker(item):
        if item == 3:
            raise ConfigError("no pricing")
        return item

    with pytest.raises(ConfigError, match="no pricing"):
        _pool_map(worker, range(7), concurrency)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_fatal_error_cancels_queued_items(concurrency):
    before = threading.active_count()
    started = []

    def worker(item):
        started.append(item)
        if item == 0:
            raise ConfigError("no pricing")
        # Long enough that the main thread sees the error and cancels the
        # queue before any worker finishes its item, even if it is descheduled.
        time.sleep(0.5)
        return item

    with pytest.raises(ConfigError, match="no pricing"):
        _pool_map(worker, range(200), concurrency)
    assert len(started) <= 2 * concurrency
    # No worker is left running.
    assert threading.active_count() == before


@pytest.mark.parametrize("concurrency, items", [(1, 40), (4, 200), (8, 3)])
def test_pool_map_runs_each_item_once_and_never_more_than_concurrency_at_a_time(concurrency, items):
    lock = threading.Lock()
    calls = []
    active = peak = 0

    def worker(item):
        nonlocal active, peak
        with lock:
            calls.append(item)
            active += 1
            peak = max(peak, active)
        time.sleep(0.001)
        with lock:
            active -= 1
        return item * 10

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = _pool_map(worker, range(items), concurrency)
    finally:
        sys.setswitchinterval(interval)
    assert results == [item * 10 for item in range(items)]
    assert sorted(calls) == list(range(items))
    assert 1 <= peak <= min(concurrency, items)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_of_no_items_is_empty(concurrency):
    assert _pool_map(lambda item: item, [], concurrency) == []


def test_pool_map_interrupted_wait_stops_every_worker():
    before = threading.active_count()
    main = threading.main_thread().ident
    started = []

    def worker(item):
        started.append(item)
        if item == 0:
            # Long enough that the caller is waiting on the workers.
            time.sleep(0.2)
            signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.01)
        return item

    with pytest.raises(KeyboardInterrupt):
        _pool_map(worker, range(1000), 2)
    assert threading.active_count() == before
    assert len(started) < 100


def test_missing_pricing_is_fatal_not_a_sample_failure():
    dataset, backend = three_sample_cohort()
    with pytest.raises(ConfigError, match="scripted-v1"):
        run_method(backend, dataset, MethodSpec("vanilla"), PricingTable([]), concurrency=1)


def test_ep_method_records_budget_fields(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    run = run_method(fig_like_backend, dataset, MethodSpec("ep"), PRICING, concurrency=1)
    record = run.records[0]
    assert record.estimated_budget == 50
    assert record.alpha == 1.0
    assert record.budget_used == 50
    assert record.output_tokens == 86  # answer call only by default
    assert record.total_output_tokens == 87  # plus the 1-token estimate
    assert record.usage_breakdown["estimation"]["output_tokens"] == 1
    assert record.usage_breakdown["answer"]["output_tokens"] == 86
    assert run.report.mean_output_tokens == 86.0


def test_ep_method_can_include_estimation_tokens(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    run = run_method(
        fig_like_backend, dataset, MethodSpec("ep"), PRICING,
        concurrency=1, include_estimation_tokens=True,
    )
    assert run.records[0].output_tokens == 87


def test_fixed_budget_method(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    run = run_method(fig_like_backend, dataset, MethodSpec("fixed", budget=50), PRICING)
    assert run.records[0].output_tokens == 86
    assert run.records[0].budget_used == 50


def test_direct_method_sends_bare_prompt(fig_like_question):
    seen = []

    class Recording(ScriptedBackend):
        def _request(self, prompt):
            seen.append(prompt.user)
            return super()._request(prompt)

    behavior = behavior_from_curve(vanilla_tokens=15, curve={})
    backend = Recording(
        ScriptedScenario("fig", [fig_like_question], {fig_like_question.id: behavior})
    )
    run_method(backend, Dataset("fig", [fig_like_question]), MethodSpec("direct"), PRICING)
    assert seen == [fig_like_question.text]


def test_parse_method_tokens():
    assert parse_method("direct").kind == "direct"
    assert parse_method("ep", alpha=2.0).alpha == 2.0
    assert parse_method("vanilla", alpha=2.0).alpha == 1.0
    fixed = parse_method("fixed:64")
    assert fixed.kind == "fixed" and fixed.budget == 64
    with pytest.raises(ValueError):
        parse_method("mystery")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _runs_for_report():
    dataset, backend = three_sample_cohort()
    vanilla = run_method(backend, dataset, MethodSpec("vanilla"), PRICING, concurrency=1)
    direct = run_method(backend, dataset, MethodSpec("direct"), PRICING, concurrency=1)
    return [vanilla, direct]


def test_report_has_one_row_per_run_with_metric_columns():
    text = render_report(_runs_for_report(), "table_text")
    lines = [line for line in text.splitlines() if line.startswith("fixture")]
    assert len(lines) == 2
    assert "ACC" in text and "Output Tokens" in text and "Expense" in text


def test_report_json_round_trips_aggregates():
    runs = _runs_for_report()
    document = json.loads(render_report(runs, JSON_FORMAT, config_hash="abc"))
    assert document["config_hash"] == "abc"
    vanilla_row = next(r for r in document["rows"] if r["method"] == "vanilla")
    assert vanilla_row["accuracy_pct"] == round(runs[0].report.accuracy * 100, 2)
    assert vanilla_row["output_tokens"] == 20.0


def test_report_csv_is_bit_stable():
    runs = _runs_for_report()
    assert render_report(runs, CSV_FORMAT) == render_report(runs, CSV_FORMAT)
    header = render_report(runs, CSV_FORMAT).splitlines()[0]
    assert header.startswith("dataset,method,accuracy_pct")


def test_report_token_reduction_column_against_published_averages():
    # 461.25 -> 148.72 mean output tokens is a ~67% reduction.
    reduction = token_reduction(461.25, 148.72)
    assert reduction == pytest.approx(67.757, abs=0.01)
    assert abs(reduction - 67.0) <= 1.0


def test_report_reduction_column_appears_for_non_vanilla_methods():
    runs = _runs_for_report()
    rows = json.loads(render_report(runs, JSON_FORMAT))["rows"]
    vanilla_row = next(r for r in rows if r["method"] == "vanilla")
    direct_row = next(r for r in rows if r["method"] == "direct")
    assert vanilla_row["token_reduction_pct"] is None
    assert direct_row["token_reduction_pct"] is not None


def test_report_empty_runs_rejected():
    with pytest.raises(ValueError):
        render_report([], "table_text")
