"""Token-budget-aware LLM reasoning harness.

Searches question-specific optimal token budgets, runs the
estimate-then-prompt pipeline, exports budget-efficient training corpora,
and evaluates methods over live OpenAI-compatible endpoints or a
deterministic scripted mock.
"""

from .backend import (
    LiveBackend,
    ResponseCache,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    ScriptedBehavior,
    ScriptedEntry,
    ScriptedScenario,
    parse_scripted_file,
)
from .core import (
    AnswerKind,
    CompletionOutcome,
    CountingSource,
    Dataset,
    ModelPricing,
    PricingTable,
    Question,
    TokenUsage,
    compute_expense,
    count_tokens_approx,
)
from .ep import EpResult, run_ep, scale_budget
from .errors import (
    ConfigError,
    DatasetError,
    HarnessError,
    ProtocolError,
    RateLimitError,
    TransportError,
)
from .evaluate import (
    EvalReport,
    MethodSpec,
    load_dataset,
    render_report,
    run_method,
    sample_dataset,
    token_reduction,
)
from .grading import Verdict, grade
from .prompting import (
    Prompt,
    PromptKind,
    PromptTemplates,
    build_estimation_prompt,
    build_prompt,
)
from .ptdata import (
    PreferencePair,
    SftExample,
    Skip,
    build_preference_pair,
    export_corpus,
    generate_target,
)
from .search import (
    EstimatorQuality,
    IdealRange,
    MonotonicityAudit,
    SearchRecord,
    TracePoint,
    estimator_quality,
    ideal_budget_range,
    monotonicity_audit,
    monotonic_fraction,
    search_optimal_budget,
)

__version__ = "0.1.0"
