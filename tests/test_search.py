"""Budget search, ideal-range analysis, estimator quality, monotonicity audit."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, fields

import pytest

from tokenbudget.backend import ScriptedEntry
from tokenbudget.core import Dataset, ModelPricing
from tokenbudget.errors import DatasetError
from tokenbudget.evaluate import (_SAMPLE_TYPES, MethodSpec, SampleRecord, encode_record,
                                  read_jsonl, run_method)
from tokenbudget.prompting import PromptTemplates
from tokenbudget.search import (
    STATUS_FIELDS,
    IdealRange,
    SearchRecord,
    TracePoint,
    estimator_quality,
    halving_candidates,
    ideal_budget_range,
    monotonic_fraction,
    monotonicity_audit,
    search_optimal_budget,
)

from conftest import (behavior_from_curve, count_misses, main_refuses, make_question,
                      scripted_backend)

# The CLI's --multipliers default.
MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
PRICING = ModelPricing("scripted-v1", 0.15, 0.60)


def trace_of(costs, budgets=None, correct=None) -> tuple[TracePoint, ...]:
    n = len(costs)
    budgets = budgets or [2 ** (n + 2 - i) for i in range(n)]
    correct = correct or [True] * n
    return tuple(TracePoint(b, c, ok) for b, c, ok in zip(budgets, costs, correct))


# ---------------------------------------------------------------------------
# search_optimal_budget
# ---------------------------------------------------------------------------


def test_rebound_curve_finds_64(rebound_question, rebound_backend):
    # Probe at 256 costs 130; 128 (120) and 64 (70) are accepted, 32 rebounds
    # to 90 >= 70 and terminates the walk.
    result = search_optimal_budget(rebound_backend, rebound_question, "probe")
    assert result.status == "found"
    assert result.optimal_budget == 64
    observed = [(p.budget, p.output_tokens, p.correct) for p in result.trace]
    assert observed == [(256, 130, True), (128, 120, True), (64, 70, True), (32, 90, True)]


def test_overridden_budgeted_suffix_finds_the_same_optimum(rebound_question):
    # The search renders with the templates the mock parses with: both come
    # from the backend, so an override cannot split them.
    behavior = behavior_from_curve(
        vanilla_tokens=256,
        curve={256: (130, True), 128: (120, True), 64: (70, True), 32: (90, True)},
        default=(300, False),
    )
    templates = PromptTemplates(budgeted_suffix="Think briefly, at most {budget} tokens:")
    default = search_optimal_budget(scripted_backend({rebound_question: behavior}),
                                    rebound_question, "probe")
    overridden = search_optimal_budget(
        scripted_backend({rebound_question: behavior}, templates=templates), rebound_question,
        "probe",
    )

    def observed(result):
        return [(p.budget, p.output_tokens, p.correct) for p in result.trace]

    assert overridden.optimal_budget == default.optimal_budget == 64
    assert observed(overridden) == observed(default)
    fingerprints = [
        {p.response_fingerprint for p in result.trace}
        for result in (default, overridden)
    ]
    assert fingerprints[0].isdisjoint(fingerprints[1])


def test_vanilla_incorrect_aborts(rebound_question):
    backend = scripted_backend(
        {
            rebound_question: behavior_from_curve(
                vanilla_tokens=256, curve={}, vanilla_correct=False
            )
        }
    )
    result = search_optimal_budget(backend, rebound_question, "probe")
    assert result.status == "vanilla_incorrect"
    assert result.optimal_budget is None
    assert result.target_output is None
    assert len(result.trace) == 0
    assert result.upper_bound == 256


def test_cost_tie_fails_strict_decrease():
    # Strictly decreasing until cost(1) == cost(2): the tie is infeasible,
    # so the last accepted candidate 2 wins.
    question = make_question(qid="tie", text="Tie case?", gold="18")
    curve = {256: (130, True), 128: (100, True), 64: (60, True), 32: (30, True),
             16: (14, True), 8: (7, True), 4: (3, True), 2: (1, True), 1: (1, True)}
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=256, curve=curve)}
    )
    result = search_optimal_budget(backend, question, "probe")
    assert result.optimal_budget == 2
    assert result.trace[-1].budget == 1
    assert result.trace[-1].output_tokens == 1


def test_unreasonable_budget_rejected_reasonable_kept():
    # Budget 10 costs 157 while budget 50's tier costs 86: the rebound tier
    # is rejected and the search settles on the cheaper one.
    question = make_question(qid="tiers", text="Tier case?", gold="18")
    curve = {100: (120, True), 50: (86, True), 25: (157, True)}
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=100, curve=curve)}
    )
    result = search_optimal_budget(backend, question, "probe")
    assert result.optimal_budget == 50
    rejected = result.trace[-1]
    assert rejected.budget == 25 and rejected.output_tokens == 157


def test_first_candidate_infeasible_falls_back_to_upper_bound():
    question = make_question(qid="fb", text="Fallback?", gold="3")
    behavior = behavior_from_curve(
        vanilla_tokens=100,
        curve={100: (60, True), 50: (70, True)},
    )
    # Vanilla text made distinguishable from the budgeted responses.
    behavior.vanilla = ScriptedEntry(
        output_tokens=100, correct=True, text="Step one, step two. The answer is 3."
    )
    backend = scripted_backend({question: behavior})
    result = search_optimal_budget(backend, question, "probe")
    assert result.status == "found"
    assert result.optimal_budget == 100
    assert result.target_output == "Step one, step two. The answer is 3."
    assert result.upper_bound == 100


def test_vanilla_baseline_skips_probe(rebound_question, rebound_backend):
    result = search_optimal_budget(rebound_backend, rebound_question, baseline="vanilla")
    assert result.optimal_budget == 64
    observed = [(p.budget, p.output_tokens) for p in result.trace]
    assert observed == [(128, 120), (64, 70), (32, 90)]


def test_invalid_baseline_rejected(tmp_path, capsys):
    error = main_refuses(tmp_path, capsys, "search", "--baseline", "nope", code=2)
    assert "argument --baseline: invalid choice: 'nope' (choose from 'probe', 'vanilla')" in error


def test_upper_bound_one_has_no_candidates():
    question = make_question(qid="tiny", text="Tiny?", gold="1")
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=1, curve={})}
    )
    result = search_optimal_budget(backend, question, "probe")
    assert result.status == "found"
    assert result.optimal_budget == 1
    assert len(result.trace) == 0


def test_zero_token_vanilla_means_no_feasible_budget():
    assert _zero_vanilla_record().status == "no_feasible_budget"


def test_halving_candidates():
    assert halving_candidates(256) == [128, 64, 32, 16, 8, 4, 2, 1]
    assert halving_candidates(3) == [1]
    assert halving_candidates(1) == []


def test_search_query_bound(rebound_question, rebound_backend):
    misses = count_misses(rebound_backend)
    search_optimal_budget(rebound_backend, rebound_question, "probe")
    bound = (256 - 1).bit_length() + 2
    assert misses() <= bound


def test_trace_budgets_strictly_decreasing_enforced():
    for trace in ([TracePoint(10, 5, True), TracePoint(10, 6, True)],
                  [{"budget": 8, "output_tokens": 5, "correct": True},
                   {"budget": 16, "output_tokens": 6, "correct": True}]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            SearchRecord("q", "no_feasible_budget", upper_bound=0, trace=trace)


# ---------------------------------------------------------------------------
# ideal_budget_range
# ---------------------------------------------------------------------------


def test_window_example_k2():
    trace = trace_of([100, 80, 60, 70, 90, 120], budgets=[640, 320, 160, 80, 40, 20])
    window = ideal_budget_range(trace, k=2)
    assert window.total_cost == 130
    assert window.budgets == (160, 80)
    assert window.window_size == 2


def test_window_tie_breaks_to_smallest_start():
    trace = trace_of([50, 50, 50], budgets=[64, 32, 16])
    window = ideal_budget_range(trace, k=1)
    assert window.budgets == (64,)


def test_window_auto_k_is_n_over_3():
    trace = trace_of([6, 5, 4, 3, 2, 1], budgets=[64, 32, 16, 8, 4, 2])
    window = ideal_budget_range(trace, k="auto")
    assert window.window_size == 2
    assert window.budgets == (4, 2)


def test_window_auto_k_floors_at_one():
    trace = trace_of([9, 1], budgets=[8, 4])
    assert ideal_budget_range(trace, k="auto").window_size == 1


def test_window_filters_to_correct_points():
    trace = trace_of(
        [100, 5, 60, 70],
        budgets=[128, 64, 32, 16],
        correct=[True, False, True, True],
    )
    window = ideal_budget_range(trace, k=2)
    # The cheap-but-wrong 64-budget point cannot participate.
    assert window.budgets == (32, 16)
    assert window.total_cost == 130


def test_window_of_a_single_correct_point():
    only = trace_of([42], budgets=[8])
    among_wrong = trace_of([5, 42, 7], budgets=[32, 16, 8], correct=[False, True, False])
    for trace, budget in ((only, 8), (among_wrong, 16)):
        for k in ("auto", 1):
            assert ideal_budget_range(trace, k=k) == IdealRange(
                budgets=(budget,), window_size=1, total_cost=42)


def test_window_domain_errors():
    with pytest.raises(ValueError):
        ideal_budget_range((), k=1)
    with pytest.raises(ValueError):
        ideal_budget_range(trace_of([1, 2]), k=3)
    wrong_only = trace_of([5], budgets=[4], correct=[False])
    with pytest.raises(ValueError):
        ideal_budget_range(wrong_only, k=1)


def test_ideal_range_membership_and_distance():
    window = IdealRange(budgets=(80, 60, 40), window_size=3, total_cost=10)
    assert window.contains(40) and window.contains(80) and window.contains(55)
    assert not window.contains(39) and not window.contains(100)
    assert window.distance(55) == 0
    assert window.distance(100) == 20
    assert window.distance(10) == 30


# ---------------------------------------------------------------------------
# estimator_quality
# ---------------------------------------------------------------------------


def window_40_80() -> IdealRange:
    return IdealRange(budgets=(80, 60, 40), window_size=3, total_cost=1)


def test_estimator_quality_example():
    samples = [(50, window_40_80()), (100, window_40_80()), (60, window_40_80())]
    quality = estimator_quality(samples)
    assert quality.in_range_accuracy == pytest.approx(2 / 3)
    assert quality.out_of_range_distance == 20
    assert quality.out_of_range_count == 1


def test_estimator_quality_all_in_range_has_no_distance():
    quality = estimator_quality([(50, window_40_80()), (60, window_40_80())])
    assert quality.in_range_accuracy == 1.0
    assert quality.out_of_range_distance is None


def test_adding_in_range_sample_never_increases_distance():
    base = estimator_quality([(100, window_40_80())])
    extended = estimator_quality([(100, window_40_80()), (60, window_40_80())])
    assert extended.out_of_range_distance == base.out_of_range_distance
    assert extended.in_range_accuracy > base.in_range_accuracy


# ---------------------------------------------------------------------------
# monotonicity_audit
# ---------------------------------------------------------------------------


def _threshold_backend(question, optimal, flip_budget=None):
    """Correct iff budget >= optimal, with one optional flipped budget."""
    budgets = sorted({max(1, int(m * optimal)) for m in (0.25, 0.5, 1, 2, 4)})
    curve = {}
    for budget in budgets:
        ok = budget >= optimal
        if flip_budget is not None and budget == flip_budget:
            ok = not ok
        curve[budget] = (100, ok)
    return scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=4 * optimal, curve=curve)}
    )


def test_monotone_pattern_classifies_monotonic():
    question = make_question(qid="mono", text="Monotone?", gold="18")
    backend = _threshold_backend(question, optimal=64)
    audit = monotonicity_audit(backend, question, optimal_budget=64, multipliers=MULTIPLIERS)
    assert [c.correct for c in audit.checks] == [False, False, True, True, True]
    assert audit.is_monotonic


def test_flip_below_breaks_monotonicity():
    question = make_question(qid="flip", text="Flipped?", gold="18")
    backend = _threshold_backend(question, optimal=64, flip_budget=32)
    audit = monotonicity_audit(backend, question, optimal_budget=64, multipliers=MULTIPLIERS)
    assert [c.correct for c in audit.checks] == [False, True, True, True, True]
    assert not audit.is_monotonic


def test_flip_above_breaks_monotonicity():
    question = make_question(qid="flip2", text="Flipped above?", gold="18")
    backend = _threshold_backend(question, optimal=64, flip_budget=128)
    audit = monotonicity_audit(backend, question, optimal_budget=64, multipliers=MULTIPLIERS)
    assert not audit.is_monotonic


def test_multiplier_budgets_floored_and_clamped():
    question = make_question(qid="clamp", text="Clamp?", gold="18")
    backend = _threshold_backend(question, optimal=2)
    audit = monotonicity_audit(backend, question, optimal_budget=2, multipliers=MULTIPLIERS)
    assert [c.budget for c in audit.checks] == [1, 1, 2, 4, 8]


# The CLI refuses a multiplier that monotonicity_audit cannot scale by, before any request.


def test_nonpositive_multiplier_rejected(tmp_path, capsys):
    error = main_refuses(tmp_path, capsys, "audit", "--multipliers", "0.5,-0.0")
    assert error == "error: --multipliers must be finite and > 0, got -0.0\n"


@pytest.mark.parametrize("multiplier", [math.nan, math.inf, -math.inf])
def test_nan_and_infinite_multipliers_rejected_before_any_call(tmp_path, capsys, multiplier):
    error = main_refuses(tmp_path, capsys, "audit", "--multipliers", f"1,{multiplier}")
    assert error == f"error: --multipliers must be finite and > 0, got {multiplier}\n"


def test_monotonic_fraction():
    question = make_question(qid="mf", text="Fraction?", gold="18")
    good = monotonicity_audit(_threshold_backend(question, 64), question, 64, MULTIPLIERS)
    bad = monotonicity_audit(_threshold_backend(question, 64, flip_budget=32), question, 64,
                             MULTIPLIERS)
    assert monotonic_fraction([good, good, bad]) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _zero_vanilla_record():
    question = make_question(qid="zero", text="Zero?", gold="1")
    behavior = behavior_from_curve(vanilla_tokens=0, curve={})
    behavior.vanilla = ScriptedEntry(output_tokens=0, correct=True, text="The answer is 1.")
    return search_optimal_budget(scripted_backend({question: behavior}), question, "probe")


def _wrong_vanilla_record(question):
    backend = scripted_backend(
        {question: behavior_from_curve(vanilla_tokens=256, curve={}, vanilla_correct=False)}
    )
    return search_optimal_budget(backend, question, "probe")


_RESULT_KEYS = {"question_id", "status", "optimal_budget", "upper_bound", "target_output", "trace"}


def test_search_record_round_trip(rebound_question, rebound_backend):
    """Each status: the line read back is the record, and writes the same bytes."""
    records = {
        "found": search_optimal_budget(rebound_backend, rebound_question, "probe"),
        "vanilla_incorrect": _wrong_vanilla_record(rebound_question),
        "no_feasible_budget": _zero_vanilla_record(),
        "error": SearchRecord("rebound", "error", error="interrupted"),
    }
    for status, record in records.items():
        assert record.status == status
        line = record.line()
        assert set(json.loads(line)) == (
            {"question_id", "status", "error"} if status == "error" else _RESULT_KEYS)
        assert line == json.dumps(json.loads(line), sort_keys=True)
        read_back = SearchRecord(**json.loads(line))
        assert read_back == record
        assert read_back.line() == line
    written = json.loads(records["found"].line())
    assert (written["question_id"], written["optimal_budget"], written["upper_bound"]) == (
        "rebound", 64, 256)
    assert written["trace"][0]["response_fingerprint"]


@pytest.mark.parametrize("target", [None, "", 7])
def test_found_record_needs_a_target_text(target):
    with pytest.raises(ValueError, match=rf"found record 'q' has target_output {target!r}, "
                                         r"not a non-empty string"):
        SearchRecord("q", "found", 8, 8, target)


def test_elasticity_rows_are_iteration_ordered(rebound_question, rebound_backend):
    rows = search_optimal_budget(rebound_backend, rebound_question, "probe").elasticity_rows()
    assert rows[0] == ("rebound", 1, 256, 130, True)
    assert rows[-1] == ("rebound", 4, 32, 90, True)
    assert SearchRecord("rebound", "error", error="interrupted").elasticity_rows() == []


# ---------------------------------------------------------------------------
# Read-back: written lines corrupted by one field
# ---------------------------------------------------------------------------

_SEARCH_DEFAULTS = {f.name: [] if f.default == () else f.default
                    for f in fields(SearchRecord) if f.default is not MISSING}
_ROW_DEFAULTS = {"response_fingerprint": None}
_SAMPLE_DEFAULTS = {f.name: f.default for f in fields(SampleRecord) if f.default is not MISSING}


@functools.lru_cache(maxsize=None)
def _written_lines() -> tuple[tuple[object, str], ...]:
    """(reader, line) for lines as their writers write them: SearchRecord.line()
    of each status, and encode_record of run_method's ep and direct records."""
    question = make_question(qid="rebound", text="What is 12 + 6 halved three times?", gold="18")
    found = search_optimal_budget(scripted_backend({question: behavior_from_curve(
        vanilla_tokens=256, curve={256: (130, True), 128: (120, True), 64: (70, True),
                                   32: (90, True)}, default=(300, False))}), question, "probe")
    searched = [found, _wrong_vanilla_record(question), _zero_vanilla_record(),
                SearchRecord("rebound", "error", error="TransportError")]
    estimated = make_question(qid="ep", text="How many eggs are left?", gold="18")
    backend = scripted_backend({estimated: behavior_from_curve(
        vanilla_tokens=258, curve={50: (86, True)}, estimate="50", default=(200, True))})
    dataset = Dataset("fixture", [estimated])
    sampled = [record for method in (MethodSpec("ep", alpha=1.5), MethodSpec("direct"))
               for record in run_method(backend, dataset, method, PRICING, concurrency=1,
                                        include_estimation_tokens=False)]
    return (*((SearchRecord, record.line()) for record in searched),
            *((SampleRecord.read, encode_record(vars(record))) for record in sampled))


def _read(path, reader) -> tuple[str, str]:
    """("read", the line the record read from ``path`` writes) or ("refused", why)."""
    try:
        [record] = read_jsonl(str(path), reader)
    except DatasetError as exc:
        return "refused", str(exc)
    return "read", record.line() if reader is SearchRecord else encode_record(vars(record))


def _json_type(value) -> str:
    return "number" if value.__class__ in (int, float) else value.__class__.__name__


# A value of each JSON type, and values outside the set a field allows.
_ANY_VALUES = [None, True, 0, 7, 1.5, "", "x", [], {}]
_OUTSIDE = {"status": ["done"], "upper_bound": [-1], "optimal_budget": [0, 999], "error": [""],
            "target_output": [""], "budget": [0, -3], "output_tokens": [-1],
            "estimated_budget": [0, -2]}
_FLOAT_FIELDS = {name for name, kind in _SAMPLE_TYPES.items() if kind is float}
_DROP = object()


def _corruptions(reader, text: str):
    """Each line that ``text`` becomes when one key, of the line or of its
    first trace row, is dropped, added with any value, given a value of
    another JSON type (an int in a float field is a number still) or a value
    outside its set, or when that row is replaced by a value of any JSON type."""
    def copy(in_row: bool) -> tuple[dict, dict]:
        line = json.loads(text)
        return line, line["trace"][0] if in_row else line

    defaults = _SEARCH_DEFAULTS if reader is SearchRecord else _SAMPLE_DEFAULTS
    traced = bool(json.loads(text).get("trace"))
    for value in _ANY_VALUES if traced else ():
        line, _ = copy(False)
        line["trace"][0] = value
        yield line
    for in_row in (False, True) if traced else (False,):
        _, target = copy(in_row)
        known = _ROW_DEFAULTS if in_row else defaults
        changes = [(key, _DROP) for key in target]
        changes += [(key, value) for key in ["extra", *known.keys() - target.keys()]
                    for value in _ANY_VALUES]
        changes += [(key, value) for key in target for value in _ANY_VALUES
                    if _json_type(value) != _json_type(target[key])
                    and not (key in _FLOAT_FIELDS and value.__class__ is int)]
        changes += [(key, value) for key in target.keys() & _OUTSIDE.keys()
                    for value in _OUTSIDE[key]]
        for key, value in changes:
            line, target = copy(in_row)
            if value is _DROP:
                del target[key]
            else:
                target[key] = value
            yield line


def _expected_line(reader, line: dict) -> str | None:
    """The line that the record read from ``line`` writes, if the reader reads
    it: a key the writer writes and the line lacks takes its default, and a
    key the writer leaves out is read only at its default. None when no
    record writes it."""
    if reader is SearchRecord:
        keys = {"question_id", "status", *STATUS_FIELDS[line["status"]][0]}
        defaults = _SEARCH_DEFAULTS
    else:
        keys, defaults = set(_SAMPLE_TYPES), _SAMPLE_DEFAULTS
    if any(encode_record(line[key]) != encode_record(defaults.get(key, ...))
           for key in line.keys() - keys):
        return None
    expected = {key: line[key] if key in line else defaults[key] for key in keys}
    if "trace" in expected:
        expected["trace"] = [dict(_ROW_DEFAULTS, **row) for row in expected["trace"]]
    return encode_record(expected)


def test_a_line_corrupted_in_one_field_is_refused_or_read_as_it_is(tmp_path):
    """Every corruption of every written line is refused, naming the line, or
    read as a record that writes the line back, a dropped key at its default."""
    path = tmp_path / "corrupted.jsonl"
    verdicts = []
    for reader, text in _written_lines():
        for mutated in _corruptions(reader, text):
            path.write_text(encode_record(mutated) + "\n")
            verdict, written = _read(path, reader)
            verdicts.append(verdict)
            if verdict == "refused":
                assert written.startswith(f"{path}: line 1: ")
            else:
                assert written == _expected_line(reader, mutated), mutated
    assert verdicts.count("read") > 50 and verdicts.count("refused") > 300, len(verdicts)
