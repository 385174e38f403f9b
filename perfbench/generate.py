"""Generate the benchmark's inputs from a seed.

    python3 perfbench/generate.py --seed 7 --out DIR           # corpus, plans, traces
    python3 perfbench/generate.py --record-fewshot --out DIR   # the fewshot-replay store

The first form writes a Spider-shaped corpus (``tables.json``, SQLite dev
databases with rows, a demonstration pool and a dev set with their alignment
sidecars), the scripted responder's per-example plans, and the
``evaluate-exec`` dataset and traces. The traces are written here, not by the
program, so that changes to the run layers leave the evaluate input alone.

The second form records the ``fewshot-replay`` store anew: it runs the
pipeline over the whole dev set with the scripted responder behind
``RecordingBackend``, split over two processes.
"""

from __future__ import annotations

import argparse
import json
import random
import sqlite3
import subprocess
import sys
from pathlib import Path

import corpus
from checks import Executor

# The program under test, from the checkout's own sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqlmend.pipeline  # noqa: E402
from responder import ScriptedResponder  # noqa: E402
from sqlmend.backends import RecordingBackend, ReplayStore  # noqa: E402
from workloads import ATTACH_TRACES, FEWSHOT, Inputs, attach_paths, build_pipeline  # noqa: E402

DEV_EXAMPLES = 1000
POOL_QUESTIONS = 7000
EVAL_EXAMPLES = 500
RECORD_PROCESSES = 2

EVAL_BLOCK = (
    ["right"] * 19 + ["fixed_entity"] * 3 + ["fixed_skeleton"] * 3 + ["fixed_exec"] * 3
    + ["broken"] * 3 + ["wrong"] * 8 + ["no_such_column"] * 4 + ["syntax"] * 2
    + ["failing_fixed"] * 2 + ["empty"] * 1 + ["invalid_gold"] * 2
)
_ALL = list(corpus.TEMPLATES)
EVAL_TEMPLATES = {
    "right": _ALL, "fixed_entity": corpus.PLAN_TEMPLATES["entity"], "fixed_skeleton": _ALL,
    "fixed_exec": corpus.PLAN_TEMPLATES["exec"], "broken": _ALL,
    "wrong": corpus.PLAN_TEMPLATES["unseen"], "no_such_column": _ALL, "syntax": _ALL,
    "failing_fixed": _ALL, "empty": _ALL, "invalid_gold": _ALL,
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _write_database(path: Path, rng: random.Random, db: corpus.Database) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA journal_mode = OFF")
        conn.execute("PRAGMA synchronous = OFF")
        for table in db.tables:
            conn.execute(corpus.ddl(table))
            marks = ", ".join("?" * len(table.columns))
            conn.executemany(f"INSERT INTO {table.name} VALUES ({marks})",
                             corpus.table_rows(rng, db, table))
        conn.commit()
    finally:
        conn.close()


def _feedback(kind: str, case: corpus.Case, error: str | None = None) -> dict:
    return {
        "kind": kind,
        "missing_tables": [],
        "missing_columns": ["name"] if kind == "missing_entities" else [],
        "expected_skeleton": case.skeleton if kind == "skeleton_mismatch" else None,
        "error_message": error if kind == "execution_error" else None,
    }


def _round(kind: str, case: corpus.Case, corrected: str, error: str = "no such column") -> dict:
    return {"feedback": _feedback(kind, case, error), "prompt_sha256": "0" * 64,
            "corrected_sql": corrected}


def _predicted_alignment(index: int, case: corpus.Case) -> list[dict] | None:
    """Mostly the gold alignment; some drop a link, some link a wrong
    column, some are missing as if linking had failed."""
    records = case.alignment()
    slot = index % 20
    if slot >= 17:
        return None
    linked = [r for r in records if r["type"] in ("tbl", "col")]
    if 12 <= slot < 15 and linked:
        linked[0]["schema"] = linked[0]["type"] = None
    elif 15 <= slot < 17:
        for record in records:
            if record["type"] == "col":
                record["schema"] = "id"
                break
    return records


def _eval_trace(example_id: str, kind: str, index: int, case: corpus.Case, db) -> dict:
    gold = case.gold
    missing = f"SELECT no_such_column FROM {case.table}"
    initial, final, rounds, stage_errors = gold, gold, [], []
    if kind == "fixed_entity":
        initial, rounds = case.entity_wrong, [_round("missing_entities", case, gold)]
    elif kind == "fixed_skeleton":
        initial, rounds = case.skeleton_wrong, [_round("skeleton_mismatch", case, gold)]
    elif kind == "fixed_exec":
        initial = case.exec_wrong
        rounds = [_round("execution_error", case, gold, "ambiguous column name: name")]
    elif kind == "broken":
        final = case.skeleton_wrong
        rounds = [_round("skeleton_mismatch", case, final)]
    elif kind == "wrong":
        initial = final = case.unseen_wrong[0]
    elif kind == "no_such_column":
        initial = final = missing
        rounds = [_round("execution_error", case, missing)]
    elif kind == "syntax":
        broken = (gold.replace("SELECT", "SELEC", 1) if index % 2
                  else f"SELECT name FROM {case.table} WHERE name = 'unterminated")
        initial = final = broken
    elif kind == "failing_fixed":
        initial, rounds = missing, [_round("execution_error", case, gold)]
    elif kind == "empty":
        initial = final = ""
        stage_errors = [{"stage": "sql_generation", "error": "model output is empty"}]
    elif kind == "attach":
        final = f"ATTACH '{attach_paths()[index]}' AS x"
        rounds = [_round("execution_error", case, final)]
    alignment = _predicted_alignment(index, case)
    skeleton_slot = index % 10
    parsed = None if skeleton_slot >= 8 else ("SELECT _ FROM _" if skeleton_slot == 7
                                              else case.skeleton)
    return {
        "example_id": example_id,
        "initial_sql": initial,
        "alignment": alignment,
        "hallucinated_sql": case.hallucinated(db) if parsed else None,
        "parsed_skeleton": parsed,
        "rounds": rounds,
        "final_sql": final,
        "stage_errors": stage_errors,
    }


def _unique_case(rng, dbs, template, seen):
    """A case whose question is new, on the first database that still has
    one for this template."""
    for db in dbs:
        for _ in range(50):
            case = corpus.make_case(rng, db, template)
            if case.question not in seen:
                seen.add(case.question)
                return db, case
    raise RuntimeError(f"no unused question for {template}")


def _dev_plan(example_id: str, plan: str, case: corpus.Case, db, executor: Executor) -> dict | None:
    """The responder's script for one example, or None when the case cannot
    carry the plan (an unseen-wrong variant that happens to give the gold
    result)."""
    gold = case.gold
    initial = {"entity": case.entity_wrong, "skeleton": case.skeleton_wrong,
               "exec": case.exec_wrong}.get(plan, gold)
    if plan == "unseen":
        differing = [sql for sql in case.unseen_wrong
                     if not executor.ex(case.db_id, sql, gold, case.ordered)]
        if not differing:
            return None
        initial = differing[0]
    final = initial if plan == "unseen" else gold
    linking = ("The question mentions no schema entity." if plan == "unparsable_link"
               else repr(case.alignment()))
    skeleton = ("I cannot answer without the schema." if plan == "unparsable_skeleton"
                else f"```sql\n{case.hallucinated(db)}\n```")
    return {
        "example_id": example_id, "plan": plan, "template": case.template,
        "question": case.question, "tokens": " ".join(case.tokens), "db_id": case.db_id,
        "gold": gold, "ordered": case.ordered, "initial": initial,
        "linking_response": linking, "skeleton_response": skeleton,
        "final": final, "rounds": corpus.PLAN_ROUNDS[plan],
        "stage_errors": corpus.PLAN_STAGE_ERRORS.get(plan, []), "ex": plan != "unseen",
    }


def generate(seed: int, out: Path) -> None:
    def rng(purpose: str) -> random.Random:
        return random.Random(f"{seed}:{purpose}")

    out.mkdir(parents=True, exist_ok=True)
    schema_rng = rng("schemas")
    dev_dbs = [corpus.make_database(schema_rng, f"dev_db_{i:02d}", n, with_rows=True)
               for i, n in enumerate(corpus.DEV_TABLE_COUNTS)]
    train_dbs = [
        corpus.make_database(schema_rng, f"train_db_{i:03d}",
                             corpus.TRAIN_TABLE_COUNTS[i % len(corpus.TRAIN_TABLE_COUNTS)],
                             with_rows=False)
        for i in range(corpus.TRAIN_DATABASES)
    ]
    _write_json(out / "tables.json", [corpus.tables_json_entry(db) for db in train_dbs + dev_dbs])
    row_rng = rng("rows")
    for db in dev_dbs:
        _write_database(out / "database" / db.db_id / f"{db.db_id}.sqlite", row_rng, db)
    executor = Executor(out / "database")

    pool_rng = rng("pool")
    pool = []
    names = list(corpus.TEMPLATES)
    for k in range(POOL_QUESTIONS):
        db = train_dbs[k % len(train_dbs)]
        pool.append(corpus.make_case(pool_rng, db, names[(k // len(train_dbs) + k) % len(names)]))
    _write_json(out / "train.json",
                [{"question": c.question, "db_id": c.db_id, "query": c.gold} for c in pool])
    _write_jsonl(out / "train_alignments.jsonl", [c.alignment() for c in pool])

    dev_rng = rng("dev")
    seen: set[str] = set()
    cases, plans = [], []
    slots = corpus.schedule(DEV_EXAMPLES, corpus.PLAN_BLOCK, corpus.PLAN_TEMPLATES,
                            rng("dev-order"))
    for k, (plan, template) in enumerate(slots):
        dbs = dev_dbs[k % len(dev_dbs):] + dev_dbs[:k % len(dev_dbs)]
        while True:
            db, case = _unique_case(dev_rng, dbs, template, seen)
            if executor.rows(db.db_id, case.gold) is None:
                raise RuntimeError(f"gold query fails: {case.gold}")
            script = _dev_plan(str(k), plan, case, db, executor)
            if script is not None:
                break
        cases.append(case)
        plans.append(script)
    _write_json(out / "dev.json", [{"question": c.question, "db_id": c.db_id, "query": c.gold,
                                    "hardness": c.hardness} for c in cases])
    _write_jsonl(out / "dev_alignments.jsonl", [c.alignment() for c in cases])
    _write_json(out / "plans.json", plans)

    eval_rng = rng("eval")
    eval_slots = [("attach", "select_all")] * ATTACH_TRACES + corpus.schedule(
        EVAL_EXAMPLES, EVAL_BLOCK, EVAL_TEMPLATES, rng("eval-order"))
    records, alignments, traces = [], [], []
    for k, (kind, template) in enumerate(eval_slots):
        db = dev_dbs[k % len(dev_dbs)]
        case = corpus.make_case(eval_rng, db, template)
        query = case.gold
        if kind == "invalid_gold":
            query = query.replace("SELECT ", "SELECT missing_column, ", 1)
        records.append({"question": case.question, "db_id": case.db_id, "query": query,
                        "hardness": case.hardness, "ordered": case.ordered})
        alignments.append(case.alignment())
        traces.append(_eval_trace(str(k), kind, k, case, db))
    _write_json(out / "eval.json", records)
    _write_jsonl(out / "eval_alignments.jsonl", alignments)
    _write_jsonl(out / "eval_traces.jsonl", traces)
    executor.close()


def record_fewshot(out: Path) -> None:
    """Record the fewshot-replay store, one dev slice per process."""
    parts = [out / f"fewshot_store.part{i}.jsonl" for i in range(RECORD_PROCESSES)]
    for part in parts:
        part.unlink(missing_ok=True)
    children = [
        subprocess.Popen([sys.executable, __file__, "--record-part", str(i), "--out", str(out)])
        for i in range(RECORD_PROCESSES)
    ]
    codes = [child.wait() for child in children]
    if any(codes):
        raise RuntimeError(f"recording processes exited with {codes}")
    with (out / "fewshot_store.jsonl").open("w", encoding="utf-8") as store:
        for part in parts:
            store.write(part.read_text(encoding="utf-8"))
            part.unlink()


def _record_part(out: Path, part: int) -> None:
    # The pipeline ranks the pool three times per example, on the same
    # question each time. Ranking each question once gives the same prompts
    # in less than half the time; a prompt that came out different would be
    # a store miss, which fails its example in the timed run.
    rank = sqlmend.pipeline.top_k
    ranked: dict[tuple, list] = {}

    def top_k_once(index, query, k):
        if (query, k) not in ranked:
            ranked[query, k] = rank(index, query, k)
        return ranked[query, k]

    sqlmend.pipeline.top_k = top_k_once
    inputs = Inputs(out)
    backend = RecordingBackend(ScriptedResponder(inputs.plans),
                               ReplayStore(out / f"fewshot_store.part{part}.jsonl"))
    pipeline, examples = build_pipeline(inputs, FEWSHOT, lambda: backend)
    for example in examples[part::RECORD_PROCESSES]:
        pipeline.run_example(example)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--record-fewshot", action="store_true")
    parser.add_argument("--record-part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record_part is not None:
        _record_part(args.out, args.record_part)
    elif args.record_fewshot:
        record_fewshot(args.out)
    elif args.seed is not None:
        generate(args.seed, args.out)
    else:
        parser.error("give --seed or --record-fewshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
