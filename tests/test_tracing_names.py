"""Every name the benchmark's tracer wraps must exist in the package, and
the layers a run goes through must still call it by that name.

``perfbench/tracing.py`` patches functions and stage methods by name, and a
name the program no longer has crashes the benchmark's traced pass. This
test reads the tracer's tables from its source, without importing or
running the benchmark, so a dropped name fails here first. A layer that
stops calling a wrapped function through a module name would instead read
as never called, so a mini replay run, and an evaluation of its traces,
check the layers that call it; the run also checks that it reaches each
wrapped pipeline stage by its name.
"""

from __future__ import annotations

import ast
import importlib
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from sqlmend.backends import ReplayBackend, ReplayStore
from sqlmend.evaluation import evaluate_run
from sqlmend.pipeline import MendPipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> list[tuple[str, ...]]:
    """The string fields of each tuple in the module-level list *name*."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return [
                tuple(
                    elt.value
                    for elt in row.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
                for row in node.value.elts
            ]
    raise AssertionError(f"{TRACING} has no {name} table")


@pytest.mark.parametrize("span, module, attribute", _table("FUNCTIONS"))
def test_traced_function_exists(span, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span


@pytest.mark.parametrize("span, module, class_name, method", _table("METHODS"))
def test_traced_method_exists(span, module, class_name, method):
    owner = getattr(importlib.import_module(module), class_name, None)
    assert callable(getattr(owner, method, None)), span


def _count_calls(monkeypatch, span: str) -> list:
    """Wrap the function the tracer names *span* the way the tracer does,
    in every module namespace that holds it; returns the list each call
    appends to."""
    [(module, attribute)] = [row[1:] for row in _table("FUNCTIONS") if row[0] == span]
    original = getattr(importlib.import_module(module), attribute)
    calls: list = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for held_in in [m for m in sys.modules.values() if isinstance(m, types.ModuleType)]:
        for name, value in list(vars(held_in).items()):
            if value is original:
                monkeypatch.setattr(held_in, name, wrapper)
    return calls


def _replay(mini_env, replay_store_path, oracle: str = "none") -> list[dict]:
    pipeline = mini_env.pipeline(ReplayBackend(ReplayStore(replay_store_path)), oracle=oracle)
    return [trace.to_dict() for trace in pipeline.run(mini_env.examples)]


def test_replay_run_reaches_the_traced_layers(mini_env, replay_store_path, monkeypatch):
    executions = _count_calls(monkeypatch, "evaluation.execute_sql")
    linkings = _count_calls(monkeypatch, "alignment.parse_alignment")
    traces = _replay(mini_env, replay_store_path)
    # Every example's database has a file, so each runs the execution check;
    # each of the ten linking answers is decoded.
    assert len(executions) >= 10
    assert len(linkings) == len(mini_env.examples) == 10

    executions.clear()
    scoring = {span: _count_calls(monkeypatch, span) for span in (
        "evaluation.results_match", "evaluation.classify_errors", "alignment.score_alignment",
    )}
    report = evaluate_run(traces, mini_env.examples, mini_env.catalogs)
    # Each gold query runs; one example stays wrong, so its final SQL is
    # classified; each trace with a linking answer is scored.
    assert len(executions) >= 10
    assert len(scoring["evaluation.results_match"]) >= 10
    assert scoring["evaluation.classify_errors"]
    linked = [record for record in report.records if record.linking is not None]
    assert len(scoring["alignment.score_alignment"]) == len(linked) > 0


@pytest.mark.parametrize("oracle", ["none", "both"])
def test_replay_run_calls_each_traced_stage_once_per_example(
    mini_env, replay_store_path, monkeypatch, oracle
):
    # A stage method that is inlined or renamed would read 0 ms in a traced
    # run; wrapped on the class, as the tracer wraps it, each must see every
    # example once.
    calls: Counter = Counter()
    stages = [row[3] for row in _table("METHODS") if row[2] == "MendPipeline"]
    assert sorted(stages) == sorted([
        "generate_initial_sql", "link_entities", "parse_question_skeleton", "correct",
        "run_example",
    ])
    for stage in stages:
        original = getattr(MendPipeline, stage)

        def wrapper(*args, _stage=stage, _original=original, **kwargs):
            calls[_stage, args[1].example_id] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(MendPipeline, stage, wrapper)
    _replay(mini_env, replay_store_path, oracle)
    assert calls == Counter(
        {(stage, example.example_id): 1 for stage in stages for example in mini_env.examples}
    )


def test_evaluate_tokenizes_each_text_of_a_trace_at_most_once(
    mini_env, replay_store_path, monkeypatch
):
    traces = _replay(mini_env, replay_store_path) + _replay(mini_env, replay_store_path, "both")
    traces += [  # misses in both stages, texts that do not tokenize, the gold itself
        {"example_id": "2", "initial_sql": "SELECT `x` FROM t",
         "final_sql": "SELECT age FROM singer"},
        {"example_id": "5", "initial_sql": "", "final_sql": "SELECT venue FROM concert"},
        {"example_id": "8", "initial_sql": "SELECT count(*) FROM concert", "final_sql": "@"},
    ]
    gold = {example.example_id: example.gold_sql for example in mini_env.examples}
    tokenized = _count_calls(monkeypatch, "sql_analysis.tokenize_sql")
    for trace in traces:
        tokenized.clear()
        evaluate_run([trace], mini_env.examples, mini_env.catalogs)
        texts = Counter(args[0] for args in tokenized)
        trace_texts = {gold[trace["example_id"]], trace["initial_sql"], trace["final_sql"]}
        assert set(texts) <= trace_texts, trace
        assert max(texts.values()) == 1, trace
