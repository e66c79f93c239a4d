"""Runs one workload's verb sequence in a fresh process and records what it cost.

    python3 bench/worker.py SPEC.json RESULT.json

The spec (written by run.py) names the config, the dataset, the verbs and
where the out-dir lives. Every pass runs with the same out-dir path, so the
manifests it writes can be compared byte for byte; after a pass the out-dir
is renamed to ``pass<k>``. A warm pass starts from a copy of ``seed_dir``,
which holds only the filled ``cache.jsonl``.

Untraced, the worker repeats the sequence until ``seconds`` have passed,
at least ``min_passes`` times. Traced, it runs an untraced, a traced and
another untraced pass and reports per-layer numbers from the traced one.
Set-up samples are taken between passes. Each pass and verb records its wall
time and this process's CPU time. Peak RSS is this process's own, so each
workload run uses one fresh worker.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import urllib.request

# Set-up is sampled in slots of SETUP_SLOT_S between passes. One sample
# repeats set-up for at least SETUP_BATCH_S and averages: the host's CPU
# speed switches between states every fraction of a second, so a single
# 5 ms set-up lands wholly in one state and a median of such samples flips
# between them.
SETUP_SLOT_S = 1.0
SETUP_BATCH_S = 0.25


def sequence(spec: dict, out_dir: str) -> list[tuple[str, list[str]]]:
    common = ["--config", spec["config"], "--dataset", spec["dataset"],
              "--out-dir", out_dir, "--concurrency", str(spec["concurrency"])]
    results = os.path.join(out_dir, "search_results.jsonl")
    argvs = {
        "search": ["search"] + common,
        "eval": ["eval"] + common + ["--methods", spec["methods"], "--format", "json"],
        "ptdata": ["ptdata"] + common + ["--format", "dpo"],
        "audit": ["audit"] + common + ["--search-output", results],
        "elasticity": ["elasticity", "--config", spec["config"], "--out-dir", out_dir,
                       "--search-output", results,
                       "--estimates", os.path.join(out_dir, "records_ep.jsonl")],
    }
    return [(verb, argvs[verb]) for verb in spec["verbs"]]


def cache_lines(out_dir: str) -> list[str]:
    path = os.path.join(out_dir, "cache.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle if line.strip()]


def fake_call(spec: dict, path: str, method: str = "GET") -> dict:
    request = urllib.request.Request(spec["fake"] + path, method=method,
                                     data=b"" if method == "POST" else None)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class Harness:
    """The package under test, imported from the checkout's source tree."""

    def __init__(self, src: str):
        sys.path.insert(0, src)
        import tokenbudget
        from tokenbudget import cli
        from tokenbudget.core import CountingSource, TokenUsage, compute_expense
        from tokenbudget.evaluate import load_dataset
        if not os.path.abspath(tokenbudget.__file__).startswith(os.path.abspath(src)):
            raise RuntimeError(f"tokenbudget imported from {tokenbudget.__file__}, not {src}")
        self.cli = cli
        self.load_dataset = load_dataset
        self.usage = lambda i, o: TokenUsage(i, o, CountingSource.PROVIDER_REPORTED)
        self.compute_expense = compute_expense
    def setup_sample(self, spec: dict, out_dir: str) -> float:
        """CPU seconds of load_config + load_dataset + build_backend, as every
        verb starts, averaged over a batch of at least SETUP_BATCH_S."""
        count, begin, cpu = 0, time.perf_counter(), time.process_time()
        while count == 0 or time.perf_counter() - begin < SETUP_BATCH_S:
            config = self.cli.load_config(spec["config"])
            self.load_dataset(spec["dataset"], "scripted_json")
            self.cli.build_backend(config, out_dir, spec["dataset"])
            count += 1
        return (time.process_time() - cpu) / count

    def scripted_spend(self, spec: dict, out_dir: str, seeded: int) -> dict:
        """Cache misses of the pass: the cache lines it appended after the
        ``seeded`` lines it started with, priced from the usage they record."""
        config = self.cli.load_config(spec["config"])
        pricing = config.pricing.for_model(config.model_id)
        added = cache_lines(out_dir)[seeded:]
        tokens, expense = 0, 0.0
        for line in added:
            usage = json.loads(line)["outcome"]["usage"]
            tokens += usage["output_tokens"]
            expense += self.compute_expense(
                self.usage(usage["input_tokens"], usage["output_tokens"]), pricing)
        return {"calls": len(added), "output_tokens": tokens, "expense": expense}

    def run_pass(self, spec: dict, work: str, name: str) -> dict:
        out_dir = os.path.join(work, "out")
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        if spec.get("seed_dir"):
            shutil.copytree(spec["seed_dir"], out_dir)
        seeded = len(cache_lines(out_dir))
        if spec.get("fake"):
            fake_call(spec, "/reset", "POST")
        verbs, verbs_cpu, codes = {}, {}, {}
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start, cpu = time.perf_counter(), time.process_time()
            for verb, argv in sequence(spec, out_dir):
                begin, begin_cpu = time.perf_counter(), time.process_time()
                codes[verb] = self.cli.main(argv)
                verbs[verb] = time.perf_counter() - begin
                verbs_cpu[verb] = time.process_time() - begin_cpu
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if spec.get("fake"):
            stats = fake_call(spec, "/stats")
            pricing = self.cli.load_config(spec["config"]).pricing
            usage = self.usage(stats["input_tokens"], stats["output_tokens"])
            spend = {"calls": stats["requests"], "output_tokens": stats["output_tokens"],
                     "expense": self.compute_expense(usage, pricing.for_model(spec["model_id"]))}
        else:
            stats = None
            spend = self.scripted_spend(spec, out_dir, seeded)
        final = os.path.join(work, name)
        os.rename(out_dir, final)
        return {"out_dir": final, "verbs": verbs, "verbs_cpu": verbs_cpu, "codes": codes,
                "wall_s": wall, "cpu_s": cpu, "spend": spend, "fake": stats}


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec.get("env"):
        os.environ.update(spec["env"])
    harness = Harness(spec["src"])
    work = spec["work"]
    result: dict = {"passes": []}

    setup_dir = spec.get("seed_dir") or os.path.join(work, "setup-empty")
    setup = result["setup_s"] = []

    def setup_slot() -> None:
        # Set-up samples are spread over the run, so that one slow stretch
        # of the machine cannot move their median.
        if spec["setup"]:
            begin = time.perf_counter()
            while True:
                setup.append(harness.setup_sample(spec, setup_dir))
                if time.perf_counter() - begin >= SETUP_SLOT_S:
                    break

    prefix = spec.get("prefix", "pass")
    if spec["trace"]:
        from tracing import Tracer, pool_idle_share, summarize
        # The traced pass sits between two untraced ones, so that a steady
        # drift of the machine cancels out of the overhead.
        setup_slot()
        result["passes"].append(harness.run_pass(spec, work, f"{prefix}1"))
        tracer = Tracer()
        tracer.install()
        try:
            traced = harness.run_pass(spec, work, "traced")
        finally:
            tracer.uninstall()
        result["passes"].append(harness.run_pass(spec, work, f"{prefix}2"))
        tracer.write(os.path.join(spec["trace_dir"], f"spans_{spec['workload']}.jsonl"))
        result["traced"] = traced
        result["spans"] = summarize(tracer.spans)
        result["counts"] = dict(tracer.counts)
        result["idle_share"] = pool_idle_share(tracer.spans, spec["concurrency"])
    else:
        start = time.perf_counter()
        while True:
            setup_slot()
            index = len(result["passes"]) + 1
            result["passes"].append(harness.run_pass(spec, work, f"{prefix}{index}"))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in result["passes"])
            if index >= spec["min_passes"] and elapsed + typical > spec["seconds"]:
                break
        setup_slot()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("reference"):
        # Scripted search over the same cohort: the live run's expected records.
        reference = dict(spec, **spec["reference"], verbs=["search"], seed_dir=None, fake=None)
        result["reference"] = harness.run_pass(reference, work, "reference")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
