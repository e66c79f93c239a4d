"""Dataset loading, sampling, method execution, and report rendering."""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
import time

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from tokenbudget.backend import ScriptedBackend, ScriptedScenario
from tokenbudget.core import AnswerKind, Dataset, ModelPricing, _typed
from tokenbudget.errors import ConfigError, DatasetError, ProtocolError, RateLimitError, TransportError
from tokenbudget.evaluate import (
    CSV_FORMAT,
    JSON_FORMAT,
    MethodSpec,
    SampleRecord,
    _SAMPLE_NULLABLE,
    _SAMPLE_TYPES,
    _pool_map,
    aggregate_records,
    encode_record,
    load_dataset,
    parse_method,
    render_report,
    run_method,
    sample_dataset,
    token_reduction,
    write_json,
)

from conftest import (JSON_VALUES, behavior_from_curve, main_refuses, make_backend, make_question,
                      scripted_backend)

PRICING = ModelPricing("scripted-v1", 0.15, 0.60)


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


_RECORD_VALUES = st.recursive(
    JSON_VALUES | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**64, -(10**40),
                                   "\u00e9\u6f22\U0001f600\ud800", "\u2028\x00\x7f"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=50)
@given(record=st.dictionaries(st.text(), _RECORD_VALUES, max_size=6))
def test_record_line_is_the_sorted_key_json_dumps(record):
    assert encode_record(record) == json.dumps(record, sort_keys=True)


# What write_json writes itself, and what it hands to json.dumps: tuples and
# dicts with integer keys.
_KEYS = st.text() | st.sampled_from(["\ud800", "\u00e9", ""])
_DOCUMENT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**64, -(10**40),
                       "\u00e9\u6f22\U0001f600\ud800", "\u2028\x00\x7f"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=4)
    | st.tuples(children) | st.dictionaries(st.integers(), children, max_size=2),
    max_leaves=12,
)


@settings(max_examples=80)
@given(document=st.dictionaries(_KEYS, _DOCUMENT_VALUES, max_size=6))
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "document.json"
    write_json(str(path), document)
    assert path.read_bytes() == (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()
    assert not os.path.exists(f"{path}.tmp")


def test_a_write_json_that_fails_leaves_the_previous_file(tmp_path):
    path = tmp_path / "report.json"
    write_json(str(path), {"rows": [1]})
    before = path.read_bytes()
    # The first element is written; the second cannot be encoded.
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(str(path), {"rows": [2, object()]})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


# Values of each field's JSON type, a float field's ints among them (10**400
# is past float's range), and values that a line may put in any one field.
_TYPED_VALUES = {bool: [True, False], int: [0, 7, 2**70], str: ["", "x"],
                 float: [0.5, -0.0, math.nan, math.inf, 0, 7, 10**400],
                 dict: [{}, {"answer": {"input_tokens": 1}}]}
_ANY_VALUES = [None, True, 1, 1.5, "x", {}, []]
_FIELD_VALUES = {name: st.sampled_from(_TYPED_VALUES[kind] + [None] * (name in _SAMPLE_NULLABLE))
                 for name, kind in _SAMPLE_TYPES.items()}


@settings(max_examples=150)
@given(line=st.fixed_dictionaries(
    {name: _FIELD_VALUES[name] for name in ("question_id", "method")},
    optional={name: _FIELD_VALUES[name] for name in list(_SAMPLE_TYPES)[2:]}),
    other=st.none() | st.tuples(st.sampled_from(list(_SAMPLE_TYPES)), st.sampled_from(_ANY_VALUES)))
def test_a_read_back_record_gets_the_verdict_typed_gives(line, other):
    if other is not None:
        line[other[0]] = other[1]
    # The reference: the estimate check, then _typed over every field in
    # field order, defaults included.
    every = {f.name: line.get(f.name, f.default) for f in fields(SampleRecord)}
    try:
        budget = every["estimated_budget"]
        if budget is not None and (budget.__class__ is not int or budget < 1):
            raise ValueError(f"estimated_budget must be null or an integer >= 1, got {budget!r}")
        expected = _typed(every, "", _SAMPLE_NULLABLE, **_SAMPLE_TYPES)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            SampleRecord.read(**line)
        assert str(refused.value) == str(exc)
        return
    # repr tells 1 from 1.0 and True from 1, and shows NaN.
    assert {k: repr(v) for k, v in vars(SampleRecord.read(**line)).items()} == {
        k: repr(v) for k, v in expected.items()}


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


# The CLI refuses a sample size that sample_dataset cannot draw from the
# 3-question demo cohort, before any request.


def test_sample_too_large_is_domain_error(tmp_path, capsys):
    error = main_refuses(tmp_path, capsys, "audit", "--sample-n", "4")
    assert error == "error: --sample-n must be from 1 to 3, got 4\n"


@pytest.mark.parametrize("n", [0, -1])
def test_sample_of_fewer_than_one_is_domain_error(tmp_path, capsys, n):
    error = main_refuses(tmp_path, capsys, "ptdata", "--sample-n", str(n))
    assert error == f"error: --sample-n must be from 1 to 3, got {n}\n"


# ---------------------------------------------------------------------------
# run_method
# ---------------------------------------------------------------------------


def test_three_sample_aggregation_oracle():
    dataset, backend = three_sample_cohort()
    report = aggregate_records(
        run_method(backend, dataset, MethodSpec("vanilla"), PRICING,
                   concurrency=1, include_estimation_tokens=False))
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.mean_output_tokens == 20.0
    assert report.sample_count == 3
    assert report.failed_count == 0


def test_empty_cohort_is_domain_error(tmp_path, capsys):
    # The CLI refuses a cohort that run_method would have nothing to run over.
    empty = tmp_path / "empty.json"
    empty.write_text('{"name": "empty", "questions": []}')
    error = main_refuses(tmp_path, capsys, "eval", "--dataset", str(empty))
    assert error == f"error: {empty}: the dataset holds no questions\n"


def test_aggregate_recomputable_from_records():
    dataset, backend = three_sample_cohort()
    records = run_method(backend, dataset, MethodSpec("vanilla"), PRICING,
                         concurrency=2, include_estimation_tokens=False)
    report = aggregate_records(records)
    [row] = json.loads(render_report([(MethodSpec("vanilla"), records)], "fixture", "m",
                                     JSON_FORMAT, config_hash=""))["rows"]
    assert (row["accuracy_pct"], row["output_tokens"], row["samples"], row["failed"]) == (
        round(report.accuracy * 100, 2), report.mean_output_tokens, 3, 0)


def test_records_stream_in_dataset_order_regardless_of_concurrency():
    dataset, backend = three_sample_cohort()
    records = run_method(backend, dataset, MethodSpec("vanilla"), PRICING,
                         concurrency=4, include_estimation_tokens=False)
    assert [r.question_id for r in records] == ["a", "b", "c"]


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
    backend = make_backend(Flaky, ScriptedScenario("fixture", dataset.questions, behaviors))
    records = run_method(backend, dataset, MethodSpec("vanilla"), PRICING,
                         concurrency=1, include_estimation_tokens=False)
    report = aggregate_records(records)
    assert report.failed_count == 1
    assert report.sample_count == 2
    # One graded correct of two graded: the failure is not a wrong answer.
    assert report.accuracy == pytest.approx(1 / 2)
    failed = [r for r in records if r.failed]
    assert failed[0].question_id == "b" and "down" in failed[0].error


def _unused(item, error):
    raise AssertionError(f"no provider error was raised, got {error!r} for {item!r}")


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_returns_provider_errors_in_their_items_place(concurrency):
    errors = {2: TransportError("down"), 3: RateLimitError("429"), 5: ProtocolError("garbled")}

    def worker(item):
        if item in errors:
            raise errors[item]
        return item * 10

    results = _pool_map(worker, range(7), concurrency, lambda item, error: ("failed", item, error))
    assert results == [0, 10, ("failed", 2, errors[2]), ("failed", 3, errors[3]), 40,
                       ("failed", 5, errors[5]), 60]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_raises_any_other_error(concurrency):
    def worker(item):
        if item == 3:
            raise ConfigError("no pricing")
        return item

    with pytest.raises(ConfigError, match="no pricing"):
        _pool_map(worker, range(7), concurrency, _unused)


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
        _pool_map(worker, range(200), concurrency, _unused)
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
        results = _pool_map(worker, range(items), concurrency, _unused)
    finally:
        sys.setswitchinterval(interval)
    assert results == [item * 10 for item in range(items)]
    assert sorted(calls) == list(range(items))
    if concurrency == 1:
        assert calls == list(range(items))
    assert 1 <= peak <= min(concurrency, items)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_pool_map_of_no_items_is_empty(concurrency):
    assert _pool_map(lambda item: item, [], concurrency, _unused) == []


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
        _pool_map(worker, range(1000), 2, _unused)
    assert threading.active_count() == before
    assert len(started) < 100


def test_pool_map_at_concurrency_1_runs_on_one_worker_thread_and_an_interrupt_waits_for_it():
    before = threading.active_count()
    main = threading.main_thread().ident
    threads, finished = set(), []

    def worker(item):
        threads.add(threading.get_ident())
        if item == 0:
            # Long enough that the caller is waiting on the worker; the item
            # in flight then runs to its end after the interrupt.
            time.sleep(0.2)
            signal.pthread_kill(main, signal.SIGINT)
            time.sleep(0.1)
        time.sleep(0.01)
        finished.append(item)
        return item

    with pytest.raises(KeyboardInterrupt):
        _pool_map(worker, range(1000), 1, _unused)
    assert finished[0] == 0 and len(finished) < 100
    assert len(threads) == 1 and main not in threads
    assert threading.active_count() == before


def test_ep_method_records_budget_fields(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    records = run_method(fig_like_backend, dataset, MethodSpec("ep"), PRICING,
                         concurrency=1, include_estimation_tokens=False)
    record = records[0]
    assert record.estimated_budget == 50
    assert record.alpha == 1.0
    assert record.budget_used == 50
    assert record.output_tokens == 86  # answer call only by default
    assert record.total_output_tokens == 87  # plus the 1-token estimate
    assert record.usage_breakdown["estimation"]["output_tokens"] == 1
    assert record.usage_breakdown["answer"]["output_tokens"] == 86
    assert aggregate_records(records).mean_output_tokens == 86.0


def test_ep_method_can_include_estimation_tokens(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    records = run_method(
        fig_like_backend, dataset, MethodSpec("ep"), PRICING,
        concurrency=1, include_estimation_tokens=True,
    )
    assert records[0].output_tokens == 87


def test_fixed_budget_method(fig_like_question, fig_like_backend):
    dataset = Dataset("fig", [fig_like_question])
    [record] = run_method(fig_like_backend, dataset, MethodSpec("fixed", budget=50), PRICING,
                          concurrency=4, include_estimation_tokens=False)
    assert record.output_tokens == 86
    assert record.budget_used == 50


def test_direct_method_sends_bare_prompt(fig_like_question):
    seen = []

    class Recording(ScriptedBackend):
        def _request(self, prompt):
            seen.append(prompt.user)
            return super()._request(prompt)

    behavior = behavior_from_curve(vanilla_tokens=15, curve={})
    backend = make_backend(
        Recording, ScriptedScenario("fig", [fig_like_question], {fig_like_question.id: behavior})
    )
    run_method(backend, Dataset("fig", [fig_like_question]), MethodSpec("direct"), PRICING,
               concurrency=4, include_estimation_tokens=False)
    assert seen == [fig_like_question.text]


def test_parse_method_tokens():
    assert parse_method("direct", alpha=1.0).kind == "direct"
    assert parse_method("ep", alpha=2.0).alpha == 2.0
    assert parse_method("vanilla", alpha=2.0).alpha == 1.0
    fixed = parse_method("fixed:64", alpha=1.0)
    assert fixed.kind == "fixed" and fixed.budget == 64
    with pytest.raises(ValueError):
        parse_method("mystery", alpha=1.0)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _runs_for_report():
    dataset, backend = three_sample_cohort()
    return [(method, run_method(backend, dataset, method, PRICING,
                                concurrency=1, include_estimation_tokens=False))
            for method in (MethodSpec("vanilla"), MethodSpec("direct"))]


def _render(runs, fmt, config_hash=""):
    return render_report(runs, "fixture", "scripted-v1", fmt, config_hash)


def test_report_has_one_row_per_run_with_metric_columns():
    text = _render(_runs_for_report(), "table_text")
    lines = [line for line in text.splitlines() if line.startswith("fixture")]
    assert len(lines) == 2
    assert "ACC" in text and "Output Tokens" in text and "Expense" in text


def test_report_json_round_trips_aggregates():
    runs = _runs_for_report()
    document = json.loads(_render(runs, JSON_FORMAT, config_hash="abc"))
    assert (document["config_hash"], document["model_id"]) == ("abc", "scripted-v1")
    vanilla_row = next(r for r in document["rows"] if r["method"] == "vanilla")
    assert vanilla_row["accuracy_pct"] == round(aggregate_records(runs[0][1]).accuracy * 100, 2)
    assert vanilla_row["output_tokens"] == 20.0


def test_report_csv_is_bit_stable():
    runs = _runs_for_report()
    assert _render(runs, CSV_FORMAT) == _render(runs, CSV_FORMAT)
    header = _render(runs, CSV_FORMAT).splitlines()[0]
    assert header.startswith("dataset,method,accuracy_pct")


def test_report_token_reduction_column_against_published_averages():
    # 461.25 -> 148.72 mean output tokens is a ~67% reduction.
    reduction = token_reduction(461.25, 148.72)
    assert reduction == pytest.approx(67.757, abs=0.01)
    assert abs(reduction - 67.0) <= 1.0


def test_report_reduction_column_appears_for_non_vanilla_methods():
    runs = _runs_for_report()
    rows = json.loads(_render(runs, JSON_FORMAT))["rows"]
    vanilla_row = next(r for r in rows if r["method"] == "vanilla")
    direct_row = next(r for r in rows if r["method"] == "direct")
    assert vanilla_row["token_reduction_pct"] is None
    assert direct_row["token_reduction_pct"] is not None


def test_report_empty_runs_rejected(tmp_path, capsys):
    # The CLI refuses an eval with no method, so no report of no run is rendered.
    error = main_refuses(tmp_path, capsys, "eval", "--methods", "")
    assert error == "error: --methods: unknown method '' (expected direct|vanilla|ep|fixed:N)\n"
