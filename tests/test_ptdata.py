"""Training-target generation, preference pairs, and corpus export."""

from __future__ import annotations

import json

import pytest

from tokenbudget.backend import ResponseCache, ScriptedBackend, parse_scripted_file
from tokenbudget.errors import DatasetError
from tokenbudget.evaluate import read_jsonl
from tokenbudget.prompting import PromptKind, build_prompt
from tokenbudget.ptdata import (
    DPO_FORMAT,
    SFT_FORMAT,
    PreferencePair,
    SftExample,
    Skip,
    build_preference_pair,
    export_corpus,
    generate_target,
    stale_targets,
)
from tokenbudget.search import SearchRecord, search_optimal_budget

from conftest import (
    SCRIPTED_TAG,
    behavior_from_curve,
    count_misses,
    main_refuses,
    make_backend,
    make_question,
    scripted_backend,
    write_demo_files,
)


def wrong_vanilla_question():
    question = make_question(qid="wrong", text="Unanswerable?", gold="7")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve={}, vanilla_correct=False)}
    )
    return question, backend


def upper_bound_question(**settings):
    """The first candidate is infeasible, so the optimum is the upper bound."""
    question = make_question(qid="inv", text="Inverted?", gold="3")
    backend = scripted_backend(
        {
            question: behavior_from_curve(
                vanilla_tokens=100,
                curve={100: (60, True), 50: (70, True)},
            )
        },
        **settings,
    )
    return question, backend


def reference_records(backend, question, input_style):
    """The SFT and DPO records built from a search's optimum alone: the target
    is asked again at the optimum, a cache hit, as the corpus was built before
    it was read from the search's records."""
    misses = count_misses(backend)
    result = search_optimal_budget(backend, question, "probe")
    if result.status != "found":
        skip = Skip(question_id=question.id, reason=result.status)
        return skip, skip
    budget = result.optimal_budget
    calls = misses()
    if budget == result.upper_bound:
        answer = backend.ask(question, PromptKind.VANILLA_COT)
    else:
        answer = backend.ask(question, PromptKind.BUDGETED_COT, budget=budget)
    assert misses() == calls
    kind = {"vanilla": PromptKind.VANILLA_COT, "budgeted": PromptKind.BUDGETED_COT}[input_style]
    prompt = build_prompt(question, kind, budget=budget, templates=backend.templates)
    positive = answer.usage.output_tokens
    sft = SftExample(
        input=prompt.user,
        target=answer.text,
        meta={"question_id": question.id, "optimal_budget": budget, "output_tokens": positive},
    )
    rejected = backend.ask(question, PromptKind.VANILLA_COT)
    if positive >= rejected.usage.output_tokens:
        return sft, Skip(question_id=question.id, reason="length_inversion")
    return sft, PreferencePair(
        input=prompt.user,
        chosen=sft.target,
        rejected=rejected.text,
        meta={"question_id": question.id, "optimal_budget": budget,
              "positive_tokens": positive, "negative_tokens": rejected.usage.output_tokens},
    )


def demo_question(tmp_path, qid):
    write_demo_files(tmp_path)
    scenario = parse_scripted_file(str(tmp_path / "demo_dataset.json"))
    backend = make_backend(ScriptedBackend, scenario,
                           cache=ResponseCache(str(tmp_path / "cache.jsonl"), SCRIPTED_TAG))
    return next(q for q in scenario.questions if q.id == qid), backend


# ---------------------------------------------------------------------------
# generate_target
# ---------------------------------------------------------------------------


def test_generate_target_uses_search_optimum(rebound_question, rebound_backend):
    example = generate_target(
        rebound_backend, rebound_question,
        search_optimal_budget(rebound_backend, rebound_question, "probe"), "vanilla"
    )
    assert isinstance(example, SftExample)
    assert example.meta == {
        "question_id": "rebound",
        "optimal_budget": 64,
        "output_tokens": 70,
    }
    # Default input style: budget-free vanilla instruction.
    assert example.input.endswith("Let's think step by step:")
    assert "use less than" not in example.input


def test_generate_target_budgeted_input_style(rebound_question, rebound_backend):
    record = search_optimal_budget(rebound_backend, rebound_question, "probe")
    example = generate_target(rebound_backend, rebound_question, record, input_style="budgeted")
    assert example.input.endswith("use less than 64 tokens:")


def test_generate_target_skips_vanilla_incorrect():
    question, backend = wrong_vanilla_question()
    skip = generate_target(backend, question, search_optimal_budget(backend, question, "probe"),
                           "vanilla")
    assert skip == Skip(question_id="wrong", reason="vanilla_incorrect")


def test_error_record_is_a_backend_error_skip(rebound_question, rebound_backend):
    record = SearchRecord(question_id="rebound", status="error", error="interrupted")
    expected = Skip(question_id="rebound", reason="backend_error: interrupted")
    assert generate_target(rebound_backend, rebound_question, record, "vanilla") == expected
    assert build_preference_pair(rebound_backend, rebound_question, record, "vanilla") == expected


@pytest.mark.parametrize("input_style", ["vanilla", "budgeted"])
@pytest.mark.parametrize("case", ["rebound", "mono", "wrong", "upper-bound"])
def test_records_equal_those_built_from_the_search_result(tmp_path, case, input_style):
    """The demo questions, and a curve whose optimum is the upper bound."""
    if case == "upper-bound":
        question, backend = upper_bound_question(
            cache=ResponseCache(str(tmp_path / "cache.jsonl"), SCRIPTED_TAG))
    else:
        question, backend = demo_question(tmp_path, case)
    record = search_optimal_budget(backend, question, "probe")
    assert (case == "upper-bound") == (record.optimal_budget == record.upper_bound)
    sft, dpo = reference_records(backend, question, input_style)
    assert generate_target(backend, question, record, input_style) == sft
    assert build_preference_pair(backend, question, record, input_style) == dpo


# ---------------------------------------------------------------------------
# build_preference_pair
# ---------------------------------------------------------------------------


def test_preference_pair_positive_shorter_than_negative(rebound_question, rebound_backend):
    record = search_optimal_budget(rebound_backend, rebound_question, "probe")
    pair = build_preference_pair(rebound_backend, rebound_question, record, "vanilla")
    assert isinstance(pair, PreferencePair)
    assert pair.meta["positive_tokens"] == 70
    assert pair.meta["negative_tokens"] == 256
    assert pair.meta["positive_tokens"] < pair.meta["negative_tokens"]


def test_preference_pair_negative_reuses_cached_vanilla(tmp_path, rebound_question):
    behavior = behavior_from_curve(
        vanilla_tokens=256,
        curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
    )
    backend = scripted_backend(
        {rebound_question: behavior},
        cache=ResponseCache(str(tmp_path / "cache.jsonl"), SCRIPTED_TAG),
    )
    misses = count_misses(backend)
    record = search_optimal_budget(backend, rebound_question, "probe")
    # vanilla + probe + three halving candidates.
    assert misses() == 5
    build_preference_pair(backend, rebound_question, record, "vanilla")
    # The negative is a cache hit.
    assert misses() == 5


def test_preference_pair_skips_length_inversion():
    question, backend = upper_bound_question()
    # First candidate infeasible, so the target is the vanilla output itself:
    # equal token counts violate the strict inequality.
    skip = build_preference_pair(backend, question,
                                 search_optimal_budget(backend, question, "probe"), "vanilla")
    assert skip == Skip(question_id="inv", reason="length_inversion")


def test_preference_pair_skips_vanilla_incorrect():
    question, backend = wrong_vanilla_question()
    skip = build_preference_pair(backend, question,
                                 search_optimal_budget(backend, question, "probe"), "vanilla")
    assert skip.reason == "vanilla_incorrect"


# ---------------------------------------------------------------------------
# export / load
# ---------------------------------------------------------------------------


def test_export_counts_and_round_trip(tmp_path, rebound_question, rebound_backend):
    example = generate_target(
        rebound_backend, rebound_question,
        search_optimal_budget(rebound_backend, rebound_question, "probe"), "vanilla"
    )
    other = SftExample(
        input="Second question?\nLet's think step by step:",
        target="The answer is 4.",
        meta={"question_id": "q2", "optimal_budget": 8, "output_tokens": 5},
    )
    records = [example, other, Skip("q3", "vanilla_incorrect")]

    def export(path):
        return export_corpus(
            records,
            SFT_FORMAT,
            path,
            dataset_name="fixture",
            model_id="scripted-v1", config_hash="",
        )

    path = str(tmp_path / "corpus_sft.jsonl")
    manifest = export(path)
    assert manifest["counts"] == {
        "attempted": 3, "succeeded": 2, "skipped": {"vanilla_incorrect": 1}}

    loaded = read_jsonl(path, SftExample)
    assert loaded == [example, other]

    with open(tmp_path / "corpus_sft.manifest.json") as handle:
        on_disk = json.load(handle)
    assert on_disk == manifest
    assert on_disk["dataset"] == "fixture"

    # No timestamp: exporting the same records again gives the same manifest bytes.
    (tmp_path / "again").mkdir()
    export(str(tmp_path / "again" / "corpus_sft.jsonl"))
    with open(tmp_path / "corpus_sft.manifest.json", "rb") as first, \
            open(tmp_path / "again" / "corpus_sft.manifest.json", "rb") as second:
        assert first.read() == second.read()


def test_export_dpo_round_trip(tmp_path, rebound_question, rebound_backend):
    record = search_optimal_budget(rebound_backend, rebound_question, "probe")
    pair = build_preference_pair(rebound_backend, rebound_question, record, "vanilla")
    path = str(tmp_path / "corpus_dpo.jsonl")
    export_corpus([pair], DPO_FORMAT, path, dataset_name="", model_id="", config_hash="")
    assert read_jsonl(path, PreferencePair) == [pair]
    with open(path) as handle:
        record = json.loads(handle.readline())
    assert set(record) == {"input", "chosen", "rejected", "meta"}


@pytest.mark.parametrize("line, problem", [
    ('{"input": "Q?", "target": "A.", "meta": {}, "extra": 1}', "'extra'"),
    ('{"input": "Q?", "meta": {}}', "'target'"),
    ('["Q?", "A."]', "not a JSON object"),
    ('{"input": "Q?", "tar', "malformed JSON"),
])
def test_load_corpus_names_the_file_and_line_of_a_bad_record(tmp_path, line, problem):
    path = tmp_path / "corpus_sft.jsonl"
    good = '{"input": "Q?", "target": "A.", "meta": {}}'
    path.write_text(f"{good}\n\n{line}\n")
    with pytest.raises(DatasetError, match=r"corpus_sft\.jsonl: line 3: ") as excinfo:
        read_jsonl(str(path), SftExample)
    assert problem in str(excinfo.value)


def test_load_corpus_reads_literal_corpus_lines(tmp_path):
    """Lines in the on-disk format (keys chosen and rejected) load unchanged."""
    sft = tmp_path / "corpus_sft.jsonl"
    sft.write_text(
        '{"input": "Q?", "meta": {"optimal_budget": 64, "output_tokens": 70, '
        '"question_id": "q1"}, "target": "The answer is 18."}\n'
    )
    dpo = tmp_path / "corpus_dpo.jsonl"
    dpo.write_text(
        '{"chosen": "The answer is 18.", "input": "Q?", "meta": {"negative_tokens": 256, '
        '"optimal_budget": 64, "positive_tokens": 70, "question_id": "q1"}, '
        '"rejected": "Step one, step two. The answer is 18."}\n\n'
    )
    assert read_jsonl(str(sft), SftExample) == [
        SftExample(
            input="Q?",
            target="The answer is 18.",
            meta={"optimal_budget": 64, "output_tokens": 70, "question_id": "q1"},
        )
    ]
    assert read_jsonl(str(dpo), PreferencePair) == [
        PreferencePair(
            input="Q?",
            chosen="The answer is 18.",
            rejected="Step one, step two. The answer is 18.",
            meta={
                "negative_tokens": 256,
                "optimal_budget": 64,
                "positive_tokens": 70,
                "question_id": "q1",
            },
        )
    ]


def test_export_rejects_empty_input(tmp_path, capsys):
    # The CLI refuses an empty cohort, so it never exports a corpus of no record.
    empty = tmp_path / "empty.json"
    empty.write_text('{"questions": []}')
    error = main_refuses(tmp_path, capsys, "ptdata", "--dataset", str(empty))
    assert error == f"error: {empty}: the dataset holds no questions\n"


def test_export_aborts_on_schema_violation_with_index(tmp_path):
    good = SftExample(
        input="q?\nLet's think step by step:",
        target="The answer is 1.",
        meta={"question_id": "a", "optimal_budget": 4, "output_tokens": 3},
    )
    bad = SftExample(input="", target="x", meta={"question_id": "b"})
    with pytest.raises(ValueError, match="record 1"):
        export_corpus([good, bad], SFT_FORMAT, str(tmp_path / "c.jsonl"),
                      dataset_name="", model_id="", config_hash="")


def test_stale_targets_regrades_each_found_target(rebound_question, rebound_backend):
    wrong, wrong_backend = wrong_vanilla_question()
    records = {
        "rebound": search_optimal_budget(rebound_backend, rebound_question, "probe"),
        "wrong": search_optimal_budget(wrong_backend, wrong, "probe"),
    }
    assert records["wrong"].status == "vanilla_incorrect"
    assert stale_targets(records, [rebound_question, wrong]) == []
    records["rebound"].target_output = "The answer is 999."
    assert stale_targets(records, [wrong, rebound_question]) == ["rebound"]


def test_export_enforces_pair_length_invariant(tmp_path, rebound_question):
    inverted = PreferencePair(
        input="q",
        chosen="The answer is 3.",
        rejected="The answer is 3 as well.",
        meta={
            "question_id": "rebound",
            "optimal_budget": 64,
            "positive_tokens": 70,
            "negative_tokens": 70,
        },
    )
    with pytest.raises(ValueError, match="record 0"):
        export_corpus([inverted], DPO_FORMAT, str(tmp_path / "c.jsonl"),
                      dataset_name="", model_id="", config_hash="")


def test_export_unknown_format_rejected(tmp_path, capsys):
    error = main_refuses(tmp_path, capsys, "ptdata", "--format", "parquet", code=2)
    assert "argument --format: invalid choice: 'parquet' (choose from 'sft', 'dpo')" in error
