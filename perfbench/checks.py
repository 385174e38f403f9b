"""Output checks made apart from the program under test.

Execution here uses the benchmark's own ``sqlite3`` code, under the EX
semantics the README states: column order matters; rows compare as a
multiset unless the gold query has a top-level ORDER BY; numbers match within
1e-6; NULL equals only NULL. An authorizer refuses everything but reading, so
a statement such as ATTACH is an execution error here and never creates a
file. The verdicts are compared with what the program reported, never with a
saved copy of an earlier run.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from pathlib import Path

TOLERANCE = 1e-6
_READ_ONLY = {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
              sqlite3.SQLITE_RECURSIVE}


def _authorize(action, *_):
    return sqlite3.SQLITE_OK if action in _READ_ONLY else sqlite3.SQLITE_DENY


class Executor:
    """Runs queries on the generated databases and caches each result."""

    def __init__(self, database_dir: str | Path):
        self.database_dir = Path(database_dir)
        self._connections: dict[str, sqlite3.Connection] = {}
        self._results: dict[tuple[str, str], list[tuple] | None] = {}

    def rows(self, db_id: str, sql: str) -> list[tuple] | None:
        """The result rows, or None when the statement fails or is refused."""
        key = (db_id, sql)
        if key not in self._results:
            self._results[key] = self._run(db_id, sql)
        return self._results[key]

    def _run(self, db_id: str, sql: str) -> list[tuple] | None:
        if not sql.strip():
            return None
        conn = self._connections.get(db_id)
        if conn is None:
            path = self.database_dir / db_id / f"{db_id}.sqlite"
            conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, check_same_thread=False)
            conn.set_authorizer(_authorize)
            self._connections[db_id] = conn
        try:
            return conn.execute(sql).fetchall()
        except (sqlite3.Error, OverflowError):
            return None

    def ex(self, db_id: str, predicted: str, gold: str, ordered: bool) -> bool:
        return same_result(self.rows(db_id, predicted), self.rows(db_id, gold), ordered)

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()


def _cell(value):
    if value is None:
        return (0, None)
    if isinstance(value, (int, float)):
        return (1, round(float(value) / TOLERANCE))
    if isinstance(value, bytes):
        return (2, value)
    return (3, value)


def same_result(predicted: list[tuple] | None, gold: list[tuple] | None, ordered: bool) -> bool:
    """Numbers are compared on a 1e-6 grid, so two values within the
    tolerance that straddle a grid line would differ; the generated data hold
    at most two decimals, far from that case."""
    if predicted is None or gold is None or len(predicted) != len(gold):
        return False
    left = [tuple(_cell(c) for c in row) for row in predicted]
    right = [tuple(_cell(c) for c in row) for row in gold]
    if ordered:
        return left == right
    return Counter(left) == Counter(right)


# --------------------------------------------------------------------------
# Run workloads: each trace against the generator's plan
# --------------------------------------------------------------------------

def check_run_traces(trace_lines: list[str], plans: dict[str, dict],
                     executor: Executor) -> list[str]:
    """Problems found in a run's traces; an empty list means all is well."""
    problems = []
    for line in trace_lines:
        trace = json.loads(line)
        plan = plans[trace["example_id"]]
        where = f"example {trace['example_id']} ({plan['plan']})"
        kinds = [r["feedback"]["kind"] for r in trace["rounds"]]
        if kinds != plan["rounds"]:
            problems.append(f"{where}: rounds {kinds} != planned {plan['rounds']}")
        stages = [e["stage"] for e in trace["stage_errors"]]
        if stages != plan["stage_errors"]:
            problems.append(f"{where}: stage errors {stages} != planned {plan['stage_errors']}")
        if trace["final_sql"] != plan["final"]:
            problems.append(f"{where}: final_sql {trace['final_sql']!r} != {plan['final']!r}")
        verdict = executor.ex(plan["db_id"], trace["final_sql"], plan["gold"], plan["ordered"])
        if verdict != plan["ex"]:
            problems.append(f"{where}: EX {verdict} != planned {plan['ex']}")
    return problems


# --------------------------------------------------------------------------
# evaluate-exec: the report against the benchmark's own computation
# --------------------------------------------------------------------------

LINK_TYPES = ("tbl", "col", "val")


def _pairs(records: list[dict], kind: str) -> set:
    return {(i, (r["schema"] or "").lower()) for i, r in enumerate(records) if r["type"] == kind}


def _share(part: set, whole: set, other: set) -> float:
    if not whole:
        return 1.0 if not other else 0.0
    return len(part) / len(whole)


def linking_score(predicted: list[dict], gold: list[dict]) -> tuple[float, float, float]:
    """Macro precision, recall and F1 over the three link types, on
    (token index, lower-cased entity) pairs; a type absent from both sides
    scores 1."""
    precision = recall = f1 = 0.0
    for kind in LINK_TYPES:
        pred = _pairs(predicted, kind)
        ref = _pairs(gold, kind)
        p = _share(pred & ref, pred, ref)
        r = _share(pred & ref, ref, pred)
        precision += p
        recall += r
        f1 += 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return precision / 3, recall / 3, f1 / 3


def expected_report(traces: list[dict], examples: list[dict], gold_alignments: list,
                    executor: Executor) -> dict:
    """ex_accuracy, ex_accuracy_initial, invalid_gold and linking P/R/F for
    a traces file, computed without the program."""
    by_id = {str(i): (e, a) for i, (e, a) in enumerate(zip(examples, gold_alignments))}
    count = ex_final = ex_initial = 0
    invalid = []
    scores = []
    for trace in traces:
        example, gold_alignment = by_id[trace["example_id"]]
        gold = example["query"]
        if executor.rows(example["db_id"], gold) is None:
            invalid.append(trace["example_id"])
            continue
        count += 1
        ordered = example["ordered"]
        ex_initial += executor.ex(example["db_id"], trace["initial_sql"], gold, ordered)
        ex_final += executor.ex(example["db_id"], trace["final_sql"], gold, ordered)
        if gold_alignment is not None and trace["alignment"] is not None:
            scores.append(linking_score(trace["alignment"], gold_alignment))
    linking = None
    if scores:
        linking = {name: sum(s[i] for s in scores) / len(scores)
                   for i, name in enumerate(("precision", "recall", "f1"))}
        linking["scored_examples"] = len(scores)
    return {
        "record_count": count,
        "ex_accuracy": ex_final / count,
        "ex_accuracy_initial": ex_initial / count,
        "invalid_gold": invalid,
        "linking_scores": linking,
    }


def compare_report(report: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("record_count", "ex_accuracy", "ex_accuracy_initial", "invalid_gold"):
        if report[key] != expected[key]:
            problems.append(f"report {key} {report[key]!r} != expected {expected[key]!r}")
    got, want = report["linking_scores"], expected["linking_scores"]
    if (got is None) != (want is None):
        problems.append(f"report linking_scores {got!r} != expected {want!r}")
    elif got is not None:
        for key in ("precision", "recall", "f1"):
            if abs(got[key] - want[key]) > 1e-9:
                problems.append(f"report linking {key} {got[key]} != expected {want[key]}")
        if got["scored_examples"] != want["scored_examples"]:
            problems.append("report linking scored_examples differs")
    return problems
