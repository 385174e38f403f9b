"""Per-layer tracing from outside the program.

While installed, the tracer replaces the public function of each module (and
the pipeline's stage methods) with a wrapper that records a span: name,
start, end, parent span and example id. It patches every module namespace
that holds the function, so calls through ``from .x import f`` are seen
too, and puts the originals back when it is removed. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute, key of the call's input for distinct_share)
FUNCTIONS = [
    ("retrieval.top_k", "sqlmend.retrieval", "top_k", lambda a: (a["query"], a["k"])),
    ("retrieval.build_index", "sqlmend.retrieval", "build_index", None),
    ("schema.render_schema_prompt", "sqlmend.schema", "render_schema_prompt",
     lambda a: a["catalog"].db_id),
    ("schema.load_tables_json", "sqlmend.schema", "load_tables_json", None),
    ("prompts.build_prompt", "sqlmend.prompts", "build_prompt", None),
    ("prompts.extract_sql_block", "sqlmend.prompts", "extract_sql_block", None),
    ("sql_analysis.tokenize_sql", "sqlmend.sql_analysis", "tokenize_sql", None),
    ("sql_analysis.extract_skeleton", "sqlmend.sql_analysis", "extract_skeleton", None),
    ("sql_analysis.extract_entities", "sqlmend.sql_analysis", "extract_entities", None),
    ("alignment.parse_alignment", "sqlmend.alignment", "parse_alignment", None),
    ("alignment.score_alignment", "sqlmend.alignment", "score_alignment", None),
    ("comparison.compare_entities", "sqlmend.comparison", "compare_entities", None),
    ("comparison.compare_skeletons", "sqlmend.comparison", "compare_skeletons", None),
    ("evaluation.execute_sql", "sqlmend.evaluation", "execute_sql",
     lambda a: (a["sql"], a["catalog"].db_id)),
    ("evaluation.results_match", "sqlmend.evaluation", "results_match", None),
    ("evaluation.classify_errors", "sqlmend.evaluation", "classify_errors", None),
    ("datasets.load_dataset", "sqlmend.datasets", "load_dataset", None),
    ("datasets.load_alignment_sidecar", "sqlmend.datasets", "load_alignment_sidecar", None),
    ("pipeline.write_traces", "sqlmend.pipeline", "write_traces", None),
]

# (span name, module, class, method)
METHODS = [
    ("backends.ReplayStore.load", "sqlmend.backends", "ReplayStore", "__init__"),
    ("backends.ReplayStore.append", "sqlmend.backends", "ReplayStore", "append"),
    ("pipeline.generate_initial_sql", "sqlmend.pipeline", "MendPipeline", "generate_initial_sql"),
    ("pipeline.link_entities", "sqlmend.pipeline", "MendPipeline", "link_entities"),
    ("pipeline.parse_question_skeleton", "sqlmend.pipeline", "MendPipeline",
     "parse_question_skeleton"),
    ("pipeline.correct", "sqlmend.pipeline", "MendPipeline", "correct"),
    ("pipeline.run_example", "sqlmend.pipeline", "MendPipeline", "run_example"),
]

# Reported metrics: (metric name, span name, statistic, unit). Statistics:
# calls (per example), us (inclusive µs per call), self_us (µs per call less
# the spans it caused), ms (total), ms_per_example, self_ms_per_example,
# distinct (distinct inputs per call).
METRICS = [
    ("retrieval.top_k.calls_per_example", "retrieval.top_k", "calls", "calls/example"),
    ("retrieval.top_k.us_per_call", "retrieval.top_k", "us", "us"),
    ("retrieval.top_k.distinct_share", "retrieval.top_k", "distinct", "share"),
    ("retrieval.build_index.ms", "retrieval.build_index", "ms", "ms"),
    ("schema.render_schema_prompt.calls_per_example", "schema.render_schema_prompt", "calls",
     "calls/example"),
    ("schema.render_schema_prompt.us_per_call", "schema.render_schema_prompt", "us", "us"),
    ("schema.render_schema_prompt.distinct_share", "schema.render_schema_prompt", "distinct",
     "share"),
    ("schema.load_tables_json.ms", "schema.load_tables_json", "ms", "ms"),
    ("prompts.build_prompt.calls_per_example", "prompts.build_prompt", "calls", "calls/example"),
    ("prompts.build_prompt.self_us_per_call", "prompts.build_prompt", "self_us", "us"),
    ("prompts.extract_sql_block.us_per_call", "prompts.extract_sql_block", "us", "us"),
    ("sql_analysis.tokenize_sql.calls_per_example", "sql_analysis.tokenize_sql", "calls",
     "calls/example"),
    ("sql_analysis.tokenize_sql.us_per_call", "sql_analysis.tokenize_sql", "us", "us"),
    ("sql_analysis.extract_skeleton.calls_per_example", "sql_analysis.extract_skeleton",
     "calls", "calls/example"),
    ("sql_analysis.extract_skeleton.self_us_per_call", "sql_analysis.extract_skeleton",
     "self_us", "us"),
    ("sql_analysis.extract_entities.calls_per_example", "sql_analysis.extract_entities",
     "calls", "calls/example"),
    ("sql_analysis.extract_entities.self_us_per_call", "sql_analysis.extract_entities",
     "self_us", "us"),
    ("alignment.parse_alignment.us_per_call", "alignment.parse_alignment", "us", "us"),
    ("alignment.score_alignment.us_per_call", "alignment.score_alignment", "us", "us"),
    ("comparison.compare_entities.self_us_per_call", "comparison.compare_entities", "self_us",
     "us"),
    ("comparison.compare_skeletons.self_us_per_call", "comparison.compare_skeletons",
     "self_us", "us"),
    ("backends.complete.calls_per_example", "backends.complete", "calls", "calls/example"),
    ("backends.complete.ms_per_example", "backends.complete", "ms_per_example", "ms"),
    ("backends.ReplayStore.load_ms", "backends.ReplayStore.load", "ms", "ms"),
    ("backends.ReplayStore.append_us_per_call", "backends.ReplayStore.append", "us", "us"),
    ("evaluation.execute_sql.calls_per_example", "evaluation.execute_sql", "calls",
     "calls/example"),
    ("evaluation.execute_sql.us_per_call", "evaluation.execute_sql", "us", "us"),
    ("evaluation.execute_sql.distinct_share", "evaluation.execute_sql", "distinct", "share"),
    ("evaluation.results_match.us_per_call", "evaluation.results_match", "us", "us"),
    ("evaluation.classify_errors.self_us_per_call", "evaluation.classify_errors", "self_us",
     "us"),
    ("pipeline.generate_initial_sql.ms_per_example", "pipeline.generate_initial_sql",
     "ms_per_example", "ms"),
    ("pipeline.link_entities.ms_per_example", "pipeline.link_entities", "ms_per_example", "ms"),
    ("pipeline.parse_question_skeleton.ms_per_example", "pipeline.parse_question_skeleton",
     "ms_per_example", "ms"),
    ("pipeline.correct.ms_per_example", "pipeline.correct", "ms_per_example", "ms"),
    ("pipeline.run_example.self_ms_per_example", "pipeline.run_example", "self_ms_per_example",
     "ms"),
    ("pipeline.write_traces.ms", "pipeline.write_traces", "ms", "ms"),
    ("datasets.load_dataset.ms", "datasets.load_dataset", "ms", "ms"),
    ("datasets.load_alignment_sidecar.ms", "datasets.load_alignment_sidecar", "ms", "ms"),
]


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent id, example id, input key)
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def set_example(self, example_id: str) -> None:
        self._local.example = example_id

    def _wrap(self, name: str, fn, key=None):
        signature = inspect.signature(fn) if key else None
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                arguments = signature.bind(*args, **kwargs).arguments if key else None
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "example", None), key(arguments) if key else None))
        return wrapper

    def _patch(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def wrap_instance(self, obj, method: str, name: str) -> None:
        self._patch(obj, method, self._wrap(name, getattr(obj, method)))

    @contextlib.contextmanager
    def installed(self):
        for name, module_name, attribute, key in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrap(name, original, key)
            for module in [m for m in sys.modules.values() if isinstance(m, types.ModuleType)]:
                for held, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, held, wrapper)
        for name, module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))
        try:
            yield self
        finally:
            while self._undo:
                owner, attribute, value = self._undo.pop()
                setattr(owner, attribute, value)

    def metrics(self, examples: int) -> dict:
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        keys: dict[str, set] = defaultdict(set)
        for span_id, name, start, end, _, _, key in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[span_id]
            if key is not None:
                keys[name].add(key)

        def statistic(name: str, kind: str) -> float:
            n = calls[name]
            if kind == "calls":
                return n / examples
            if kind == "ms":
                return total[name] * 1e3
            if kind == "ms_per_example":
                return total[name] * 1e3 / examples
            if kind == "self_ms_per_example":
                return own[name] * 1e3 / examples
            if not n:
                return 0.0  # a layer this workload never calls
            if kind == "us":
                return total[name] * 1e6 / n
            if kind == "self_us":
                return own[name] * 1e6 / n
            return len(keys[name]) / n

        return {metric: (statistic(name, kind), unit) for metric, name, kind, unit in METRICS}

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, example, _ in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                         "parent": parent, "example_id": example}) + "\n")
