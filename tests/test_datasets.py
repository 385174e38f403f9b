from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.datasets import decode_json, load_alignment_sidecar, load_dataset
from sqlmend.errors import MalformedDatasetError

from support import sidecar_reference


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


@pytest.mark.parametrize("record, message", [
    ("singers", "record 1: not an object: 'singers'"),
    ({"schema": None, "type": None}, "record 1: token must be a non-blank string, not None"),
    ({"token": " ", "schema": None, "type": None},
     "record 1: token must be a non-blank string, not ' '"),
    ({"token": 5, "schema": None, "type": None},
     "record 1: token must be a non-blank string, not 5"),
    ({"token": "singers", "schema": 5, "type": "tbl"},
     "record 1: schema must be a string or null, not 5"),
    ({"token": "singers", "schema": "singer", "type": "table"},
     "record 1: unknown type 'table'"),
    ({"token": "singers", "schema": None, "type": 3}, "record 1: unknown type 3"),
    ({"token": "singers", "schema": "singer", "type": None},
     "record 1: schema 'singer' and type None must both be set or both be null"),
    ({"token": "singers", "schema": None, "type": "tbl"},
     "record 1: schema None and type 'tbl' must both be set or both be null"),
])
def test_sidecar_record_that_would_be_repaired_names_file_and_line(tmp_path, record, message):
    # These used to load silently, only counted in Alignment.repairs.
    path = tmp_path / "alignments.jsonl"
    line = [{"token": "the", "schema": None, "type": None}, record]
    path.write_text(f"[]\n{json.dumps(line)}\n", encoding="utf-8")
    with pytest.raises(MalformedDatasetError) as raised:
        load_alignment_sidecar(path, ["the singers", "the singers"])
    assert str(raised.value) == f"{path}: line 2: {message}"


def test_sidecar_keeps_tab_as_tbl_and_loads_without_repairs(tmp_path):
    path = tmp_path / "alignments.jsonl"
    line = [{"token": "the", "schema": None, "type": None},
            {"token": "singers", "schema": "singer", "type": "tab"}]
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    [alignment] = load_alignment_sidecar(path, ["the singers"])
    assert alignment.entries[1].entity_type == "tbl"
    assert alignment.repairs == 0


def test_sidecar_lines_end_at_newline_only(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw inside a string, and
    # str.splitlines() breaks lines at each of them.
    path = tmp_path / "alignments.jsonl"
    tokens = ["a\u2028b", "c\u2029d", "e\u0085f"]
    lines = [json.dumps([{"token": t, "schema": None, "type": None}], ensure_ascii=False)
             for t in tokens]
    path.write_text("\n".join(lines[:2]), encoding="utf-8")
    alignments = load_alignment_sidecar(path, ["q1", "q2"])
    assert [a.entries[0].token for a in alignments] == tokens[:2]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    alignments = load_alignment_sidecar(path, ["q1", "q2", "q3"])
    assert [a.entries[0].token for a in alignments] == tokens


def test_sidecar_lone_carriage_return_ends_no_line(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_bytes(b'[{"token": "a",\r"schema": null, "type": null}]\n')
    [alignment] = load_alignment_sidecar(path, ["q"])
    assert alignment.entries[0].token == "a"
    path.write_bytes(b"[]\r[]\n")  # one line, which is not JSON
    with pytest.raises(MalformedDatasetError, match="line 1: Extra data"):
        load_alignment_sidecar(path, ["q", "r"])


def test_sidecar_final_newline_adds_no_line(tmp_path):
    path = tmp_path / "alignments.jsonl"
    path.write_text("[]\n", encoding="utf-8")
    assert [a.entries for a in load_alignment_sidecar(path, ["q"])] == [[]]
    path.write_text("[]\n\n", encoding="utf-8")
    assert load_alignment_sidecar(path, ["q", "r"])[1] is None
    with pytest.raises(MalformedDatasetError, match="2 sidecar lines for 1 examples"):
        load_alignment_sidecar(path, ["q"])


# Gold records: mostly ones that pass, and faults that share a token and a
# schema with them, so that a table of checked records that kept too little
# of a record would take a fault for a record that passed.
_PASSING = [("the", None, None), ("singers", "singer", "tbl"), ("singers", "singer", "tab"),
            ("singers", "singer", " COL"), ("singers", "singer", "col"), ("name", "name", "col"),
            ("a}, {b", None, None), ("\u2028", "x", "val")]
_FAULTY = [("singers", "singer", "table"), ("singers", "singer", None), ("singers", None, "tbl"),
           (" ", None, None), ("", None, None), (5, None, None), (None, None, None),
           ("singers", 5, "tbl"), (["x"], None, None), ("singers", ["s"], "tbl"),
           ("singers", {"a": 1}, "tbl"), ("singers", "singer", ["col"]),
           ("singers", "singer", 3), ("singers", "singer", True)]


def _records_of(values: list[tuple]) -> st.SearchStrategy:
    return st.sampled_from(values).map(lambda r: dict(zip(("token", "schema", "type"), r)))


_RECORDS = st.one_of(
    _records_of(_PASSING), _records_of(_PASSING), _records_of(_PASSING), _records_of(_FAULTY),
    st.dictionaries(st.sampled_from(["type", "schema", "token", "extra"]),
                    st.sampled_from(["the", "singer", "tbl", None, 5]), max_size=4),
    st.sampled_from(["singers", 1, [], None]),
)
# The layout json.dumps writes by default, and four others.
_LAYOUTS = [
    json.dumps,
    lambda records: json.dumps(records, separators=(",", ":")),
    lambda records: json.dumps(records, ensure_ascii=False) + " \r",
    lambda records: "  " + json.dumps(records),
    lambda records: json.dumps(records).replace(", ", ",\r"),
]
_LINES = st.one_of(
    st.builds(lambda layout, records: layout(records),
              st.sampled_from(_LAYOUTS), st.lists(_RECORDS, max_size=8)),
    st.sampled_from(["", " ", "{broken", "{}", "[", "[{}]", "null", '[{"token": "a"}, ]',
                     '[{"token": "a"}, {"token": "b"} ]', '[{"token": "a"}, {"token": "a"}]']),
)


def _outcome(load, path, questions):
    try:
        alignments = load(path, questions)
    except MalformedDatasetError as exc:
        return "refused", str(exc)
    return "loaded", alignments


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=8), extra=st.integers(min_value=-1, max_value=2))
def test_sidecar_gives_what_checking_record_by_record_gives(tmp_path_factory, lines, extra):
    path = tmp_path_factory.mktemp("sidecar") / "alignments.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    questions = [f"q{i}" for i in range(max(0, len(lines) + extra))]
    kind, loaded = _outcome(load_alignment_sidecar, path, questions)
    expected = _outcome(sidecar_reference.load_sidecar, path, questions)
    if kind == "refused":
        assert (kind, loaded) == expected  # the same line and the same message
        return
    assert expected[0] == "loaded"
    assert [None if a is None else [dataclasses.astuple(e) for e in a.entries]
            for a in loaded] == expected[1]
    assert all(a is None or a.repairs == 0 for a in loaded)
    # Equal entries are one object, across lines and within them.
    shared = {}
    for entry in (e for a in loaded if a is not None for e in a.entries):
        assert shared.setdefault(dataclasses.astuple(entry), entry) is entry


@pytest.mark.parametrize("earlier", _PASSING)
def test_sidecar_reads_each_record_after_a_passing_one_as_checking_it_alone(tmp_path, earlier):
    # Every record from the lists above, after each that passes: a table of
    # checked records must not take one for an entry it is not.
    path = tmp_path / "alignments.jsonl"
    for record in _PASSING + _FAULTY:
        line = [dict(zip(("token", "schema", "type"), r)) for r in (earlier, record)]
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        kind, loaded = _outcome(load_alignment_sidecar, path, ["q"])
        expected = _outcome(sidecar_reference.load_sidecar, path, ["q"])
        if kind == "loaded":
            loaded = [[dataclasses.astuple(e) for e in loaded[0].entries]]
        assert (kind, loaded) == expected, record


class _CountedPlace:
    """A file name that counts how often it is formatted."""

    def __init__(self):
        self.formatted = 0

    def __format__(self, spec):
        self.formatted += 1
        return "where.json"


@pytest.mark.parametrize("data, cause", [
    ("[1, 2", ValueError),
    (b'["\xff"]', UnicodeDecodeError),
    ("[" * 200_000 + "]" * 200_000, RecursionError),
    (b"[" * 200_000, RecursionError),
], ids=["not-json", "not-utf8", "deep", "deep-bytes"])
@pytest.mark.parametrize("line, where", [(None, "where.json: "), (7, "where.json: line 7: ")])
def test_decode_json_names_the_place_of_what_it_refuses(data, cause, line, where):
    with pytest.raises(MalformedDatasetError) as raised:
        decode_json(data, _CountedPlace(), line)
    assert str(raised.value).startswith(where)
    assert isinstance(raised.value.__cause__, cause)


def test_decode_json_formats_its_place_only_when_it_refuses():
    place = _CountedPlace()
    for number in range(100):
        assert decode_json(f'{{"n": [{number}]}}', place, number) == {"n": [number]}
    assert place.formatted == 0
