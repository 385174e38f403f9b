from __future__ import annotations

import dataclasses
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


@pytest.mark.parametrize("field, value, message", [
    ("question", 5, "question must be a non-blank string, not 5"),
    ("question", "   ", "question must be a non-blank string"),
    ("question", None, "question must be a non-blank string"),
    ("db_id", "", "db_id must be a non-blank string"),
    ("db_id", ["d"], "db_id must be a non-blank string"),
    ("query", 7, "query must be a string, not 7"),
    ("sql", {"select": 1}, "query must be a string"),
    ("hardness", 2, "hardness must be a string, not 2"),
])
def test_load_dataset_rejects_fields_of_the_wrong_type(tmp_path, field, value, message):
    # A question that cannot be tokenized used to fail only inside the run.
    good = {"question": "How many?", "db_id": "d"}
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([good, {**good, field: value}]), encoding="utf-8")
    with pytest.raises(MalformedDatasetError, match=f"dev.json: entry 1: {message}"):
        load_dataset(path)


def test_load_dataset_optional_fields_may_be_null(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(
        json.dumps([{"question": "q", "db_id": "d", "query": None, "hardness": None}]),
        encoding="utf-8",
    )
    [example] = load_dataset(path)
    assert example.gold_sql is None and example.hardness_label is None


@pytest.mark.parametrize("example_id", [None, 1.0, [1], {"id": 1}, True])
def test_load_dataset_rejects_example_ids_of_the_wrong_type(tmp_path, example_id):
    # null used to load as the id "None", and 1.0 as "1.0".
    records = [{"question": "q", "db_id": "d"}, {"question": "q", "db_id": "d"}]
    records[1]["example_id"] = example_id
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(
        MalformedDatasetError,
        match="dev.json: entry 1: example_id must be a string or an integer, not ",
    ):
        load_dataset(path)


def test_load_dataset_integer_example_ids_keep_their_string_form(tmp_path):
    records = [{"question": "q", "db_id": "d", "example_id": example_id}
               for example_id in (7, -3, "x", "")]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    assert [e.example_id for e in load_dataset(path)] == ["7", "-3", "x", ""]


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


def test_sidecar_shares_equal_entries_across_lines(tmp_path):
    path = tmp_path / "alignments.jsonl"
    line = [{"token": "singers", "schema": "singer", "type": "tbl"},
            {"token": "the", "schema": None, "type": None}]
    path.write_text(f"{json.dumps(line)}\n{json.dumps(line[::-1])}\n", encoding="utf-8")
    first, second = load_alignment_sidecar(path, ["the singers", "the singers"])
    assert first.entries[0] is second.entries[1]
    assert first.entries[1] is second.entries[0]
    # A second load builds its own entries.
    again, _ = load_alignment_sidecar(path, ["the singers", "the singers"])
    assert again.entries[0] == first.entries[0] and again.entries[0] is not first.entries[0]


def test_shared_entries_cannot_be_changed(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_text('[{"token": "a", "schema": null, "type": null}]\n', encoding="utf-8")
    [alignment] = load_alignment_sidecar(path, ["a"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        alignment.entries[0].schema_entity = "singer"
