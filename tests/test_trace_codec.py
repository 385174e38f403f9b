"""``CorrectionTrace.from_dict`` is the exact inverse of ``to_dict``: every
trace the program writes reads back as itself and re-serialises byte for
byte, an absent or null field takes its default, and anything ``to_dict``
cannot write is refused with the field at fault named, never repaired."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.alignment import LINK_TYPES, Alignment, AlignmentEntry
from sqlmend.cli import main
from sqlmend.comparison import Feedback
from sqlmend.errors import MalformedDatasetError
from sqlmend.pipeline import ORACLE_MODES, CorrectionRound, CorrectionTrace, read_traces

from support.mini import record_store, replay_and_evaluate
from test_golden_run_bytes import GOLDEN, report_sha256


def _line(trace: CorrectionTrace) -> str:
    """The line ``write_traces`` writes for *trace*."""
    return json.dumps(trace.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def golden_runs(mini_paths, mini_env, tmp_path_factory):
    """oracle mode -> the bytes of the golden replay run's ``traces.jsonl``."""
    root = tmp_path_factory.mktemp("codec")
    store = record_store(mini_env, root / "store.jsonl")
    return {oracle: replay_and_evaluate(mini_paths, store, root / oracle, oracle)[0]
            for oracle in ORACLE_MODES}


@pytest.mark.parametrize("oracle", ORACLE_MODES)
def test_golden_run_lines_reencode_byte_for_byte(golden_runs, oracle):
    lines = golden_runs[oracle].decode("utf-8").splitlines()
    assert len(lines) == 10
    for line in lines:
        assert _line(CorrectionTrace.from_dict(json.loads(line))) == line


@pytest.mark.parametrize("oracle", ORACLE_MODES)
def test_fields_evaluate_never_reads_may_be_absent(mini_paths, golden_runs, tmp_path, oracle):
    # Traces of earlier versions may lack them; the report is the golden one.
    traces = tmp_path / "traces.jsonl"
    with traces.open("w", encoding="utf-8") as handle:
        for line in golden_runs[oracle].decode("utf-8").splitlines():
            record = json.loads(line)
            for key in ("rounds", "stage_errors", "hallucinated_sql"):
                del record[key]
            handle.write(json.dumps(record) + "\n")
    assert main([
        "evaluate", str(traces),
        "--dataset", str(mini_paths["dataset"]),
        "--alignments", str(mini_paths["dataset_alignments"]),
        "--databases", str(mini_paths["databases"]),
        "--tables", str(mini_paths["tables"]),
        "--format", "json",
    ]) == 0
    assert report_sha256((tmp_path / "report.json").read_bytes()) == GOLDEN[oracle][1]


_texts = st.text(max_size=8)
_entries = st.one_of(
    st.builds(AlignmentEntry, st.text(min_size=1, max_size=8)),
    st.builds(AlignmentEntry, st.text(min_size=1, max_size=8), _texts,
              st.sampled_from(LINK_TYPES)),
)
# Names the pipeline writes are distinct ignoring case (``linked_entities``).
_names = st.lists(_texts, max_size=3, unique_by=str.lower).map(set)
_feedbacks = st.one_of(
    st.tuples(_names, _names).filter(any).map(lambda names: Feedback(
        "missing_entities", missing_tables=names[0], missing_columns=names[1])),
    st.builds(Feedback, st.just("skeleton_mismatch"), expected_skeleton=_texts),
    st.builds(Feedback, st.just("execution_error"), error_message=_texts),
)
_traces = st.builds(
    CorrectionTrace,
    example_id=_texts,
    initial_sql=_texts,
    alignment=st.none() | st.builds(Alignment, st.lists(_entries, max_size=4)),
    hallucinated_sql=st.none() | _texts,
    parsed_skeleton=st.none() | _texts,
    rounds=st.lists(st.builds(CorrectionRound, _feedbacks, _texts, _texts), max_size=3),
    final_sql=_texts,
    stage_errors=st.lists(st.tuples(_texts, _texts), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(_traces)
def test_built_traces_read_back_as_themselves(trace):
    line = _line(trace)
    decoded = CorrectionTrace.from_dict(json.loads(line))
    assert decoded == trace
    assert _line(decoded) == line


def test_absent_and_null_fields_take_their_defaults():
    assert CorrectionTrace.from_dict({"example_id": "7"}) == CorrectionTrace("7")
    nulls = dict.fromkeys(["initial_sql", "alignment", "hallucinated_sql", "parsed_skeleton",
                           "rounds", "final_sql", "stage_errors"])
    assert CorrectionTrace.from_dict({"example_id": "7", **nulls}) == CorrectionTrace("7")
    feedback = {"kind": "skeleton_mismatch", "expected_skeleton": ""}
    assert Feedback.from_dict(feedback) == Feedback("skeleton_mismatch", expected_skeleton="")


def test_blank_token_the_linking_parser_keeps_reads_back():
    records = [{"token": " ", "schema": None, "type": None},
               {"token": "singers", "schema": "singer", "type": "tbl"}]
    trace = CorrectionTrace.from_dict({"example_id": "0", "alignment": records})
    assert trace.alignment.to_records() == records


_ROUND = {
    "feedback": {"kind": "missing_entities", "missing_tables": ["singer"],
                 "missing_columns": [], "expected_skeleton": None, "error_message": None},
    "prompt_sha256": "0" * 64,
    "corrected_sql": "SELECT name FROM singer",
}


def _link(token, schema, kind):
    return {"token": token, "schema": schema, "type": kind}


@pytest.mark.parametrize("fields, message", [
    ({"example_id": None}, "example_id must be a string, not None"),
    ({"initial_sql": 5}, "initial_sql must be a string or null, not 5"),
    ({"hallucinated_sql": ["x"]}, "hallucinated_sql must be a string or null, not ['x']"),
    ({"alignment": {"token": "a"}}, "alignment must be a list or null, not {'token': 'a'}"),
    ({"alignment": [_link("a", None, None), 1]}, "alignment[1] must be an object, not 1"),
    ({"alignment": [_link("", None, None)]},
     "alignment[0].token must be a non-empty string, not ''"),
    ({"alignment": [_link(5, None, None)]}, "alignment[0].token must be a non-empty string, not 5"),
    ({"alignment": [_link("a", 5, "col")]}, "alignment[0].schema must be a string or null, not 5"),
    ({"alignment": [_link("a", None, "col")]},
     "alignment[0].type must be null, as the schema is, not 'col'"),
    ({"alignment": [_link("a", "singer", None)]},
     "alignment[0].type must be one of ('tbl', 'col', 'val'), not None"),
    # ``parse_alignment`` reads the synonym ``tab``; a trace holds only ``tbl``.
    ({"alignment": [_link("a", "singer", "tab")]},
     "alignment[0].type must be one of ('tbl', 'col', 'val'), not 'tab'"),
    ({"rounds": {}}, "rounds must be a list or null, not {}"),
    ({"rounds": [_ROUND, None]}, "rounds[1] must be an object, not None"),
    ({"rounds": [{**_ROUND, "feedback": "missing_entities"}]},
     "rounds[0].feedback must be an object, not 'missing_entities'"),
    ({"rounds": [{**_ROUND, "prompt_sha256": None}]},
     "rounds[0].prompt_sha256 must be a string, not None"),
    ({"rounds": [{**_ROUND, "corrected_sql": 0}]},
     "rounds[0].corrected_sql must be a string, not 0"),
    ({"rounds": [{**_ROUND, "feedback": {**_ROUND["feedback"], "missing_tables": [5]}}]},
     "rounds[0].feedback.missing_tables[0] must be a string, not 5"),
    ({"rounds": [{**_ROUND, "feedback": {**_ROUND["feedback"], "kind": None}}]},
     "rounds[0].feedback.kind must be a string, not None"),
    ({"rounds": [{**_ROUND, "feedback": {**_ROUND["feedback"], "error_message": "boom"}}]},
     "rounds[0].feedback: inconsistent feedback fields for kind 'missing_entities'"),
    ({"rounds": [{**_ROUND, "feedback": {"kind": "direct"}}]},
     "rounds[0].feedback: inconsistent feedback fields for kind 'direct'"),
    ({"stage_errors": [["correction", "boom"]]},
     "stage_errors[0] must be an object, not ['correction', 'boom']"),
    ({"stage_errors": [{"stage": "correction"}]},
     "stage_errors[0].error must be a string, not None"),
])
def test_what_to_dict_cannot_write_is_refused_naming_the_field(tmp_path, fields, message):
    record = {"example_id": "0", **fields}
    with pytest.raises(MalformedDatasetError) as raised:
        CorrectionTrace.from_dict(record)
    assert str(raised.value) == message
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps({"example_id": "1"}) + "\n" + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedDatasetError) as raised:
        read_traces(path)
    assert str(raised.value) == f"{path}: line 2: {message}"


def test_a_line_that_is_no_object_is_refused(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(MalformedDatasetError) as raised:
        read_traces(path)
    assert str(raised.value) == f"{path}: line 1: trace must be an object, not [1, 2]"
