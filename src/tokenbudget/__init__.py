"""Token-budget-aware LLM reasoning harness.

Searches question-specific optimal token budgets, runs the
estimate-then-prompt pipeline, exports budget-efficient training corpora,
and evaluates methods over live OpenAI-compatible endpoints or a
deterministic scripted mock.
"""
