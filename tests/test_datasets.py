from __future__ import annotations

import json

import pytest

from sqlmend.datasets import load_alignment_sidecar, load_dataset
from sqlmend.errors import MalformedDatasetError


def test_load_dataset_spider_shape(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(
        json.dumps(
            [
                {"question": "How many?", "db_id": "d", "query": "SELECT count(*) FROM t"},
                {"question": "Which?", "db_id": "d", "hardness": "easy"},
            ]
        ),
        encoding="utf-8",
    )
    examples = load_dataset(path)
    assert examples[0].example_id == "0"
    assert examples[0].gold_sql == "SELECT count(*) FROM t"
    assert examples[1].gold_sql is None
    assert examples[1].hardness_label == "easy"


def test_load_dataset_requires_question_and_db(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q"}]), encoding="utf-8")
    with pytest.raises(MalformedDatasetError):
        load_dataset(path)


@pytest.mark.parametrize("ids, message", [
    (["x", "y", "x"], "entries 0 and 2 share example_id 'x'"),
    (["1", None], "entries 0 and 1 share example_id '1'"),  # the index is the default id
])
def test_load_dataset_rejects_duplicate_example_ids(tmp_path, ids, message):
    # Scored by id, the later record would shadow the earlier one.
    records = [{"question": f"q{i}", "db_id": "d"} for i in range(len(ids))]
    for record, example_id in zip(records, ids):
        if example_id is not None:
            record["example_id"] = example_id
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(MalformedDatasetError, match=message):
        load_dataset(path)


def test_sidecar_lines_attach_by_index(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_text(
        json.dumps([{"token": "many", "schema": "head", "type": "tbl"}]) + "\n\n",
        encoding="utf-8",
    )
    alignments = load_alignment_sidecar(path, ["How many?", "Second?"])
    assert alignments[0].entries[0].schema_entity == "head"
    assert alignments[1] is None


def test_sidecar_with_too_many_lines_rejected(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_text("[]\n[]\n[]\n", encoding="utf-8")
    with pytest.raises(MalformedDatasetError):
        load_alignment_sidecar(path, ["only one"])


def test_sidecar_bad_json_names_line(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(MalformedDatasetError, match="line 1"):
        load_alignment_sidecar(path, ["q"])
