"""The one-pass alignment decoder gives what the scan with
``ast.literal_eval`` then ``json.loads`` gives, on every input.

``support/alignment_reference.py`` keeps that scan as it stood. Results are
compared by ``repr``, which tells ``True`` from ``1`` and ``0.0`` from
``-0.0``, and ``None`` (no list found) must match too.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.alignment import _RECORDS, _decode_records, _first_list_literal

from support import alignment_reference as reference
from support.mini import SCRIPT
from test_hostile_output import _hostile

# Whitespace Python and JSON both skip, then some that one or both refuse.
_CLEAN_SPACE = ["", " ", "  ", "\n", "\t", "\r\n", "\r"]
_ODD_SPACE = ["\x0c", "\x0b", "\u00a0", "\u2003", "\u3000"]
_CLEAN_TEXT = st.one_of(
    st.sampled_from(["token", "schema", "type", "tbl", "How", "5,000", "", "a[b]", "{x}",
                     "it's", 'say "hi"', "é", "\U0001f600", "\x7f", "\x85", "\u2028"]),
    st.text(st.characters(blacklist_categories=["Cc", "Cs"], blacklist_characters="\\'\""),
            max_size=8),
)
_TEXT = st.one_of(_CLEAN_TEXT, st.text(max_size=8))
# Values outside the one-pass shape, each of which one decoder or neither takes.
_OTHER_VALUES = ["[1]", "{'a': 1}", "{1, 2}", "'a' 'b'", "u'x'", "b'x'", "r'x'", "1_0",
                 "# c\n1", "\\\n1", "{}", "()", "(1,)", "+1", "- 1", "1.5", "1e3", "inf",
                 "NaN", "Infinity", "-Infinity", "None or 1", "'''x'''", "'\\x41'",
                 "'\\n'", "00", "007", "-01", "12345678901234567890"]


@st.composite
def _rendered_lists(draw):
    """A list of dicts written the way a model might write one: mixed
    quotes and constant spellings, prose around it, and each with a chance
    of its own: whitespace that Python or JSON refuses, trailing commas,
    ints and other values or text the one-pass shape excludes."""
    odd_space, trailing, odd_values, odd_text = (draw(st.integers(0, 3)) == 0 for _ in range(4))
    spaces = st.sampled_from(_CLEAN_SPACE + (_ODD_SPACE if odd_space else []))
    texts = _TEXT if odd_text else _CLEAN_TEXT
    # Most answers keep to one spelling.
    spelling = draw(st.sampled_from(["python", "json", "mixed"]))

    def string(text: str) -> str:
        quote = {"python": "'", "json": '"'}.get(spelling) or draw(st.sampled_from("'\""))
        return quote + text + quote

    def value() -> str:
        kind = draw(st.sampled_from(
            ["string", "constant", "int"] + (["float", "other"] if odd_values else [])
        ))
        if kind == "string":
            return string(draw(texts))
        if kind == "constant":
            python, json_ = ["None", "True", "False"], ["null", "true", "false"]
            names = {"python": python, "json": json_}.get(spelling, python + json_)
            return draw(st.sampled_from(names))
        if kind == "int":
            return str(draw(st.integers() if odd_values else st.integers(-10**17, 10**17)))
        if kind == "float":
            return repr(draw(st.floats(allow_nan=False)))
        return draw(st.sampled_from(_OTHER_VALUES))

    def joined(parts: list[str]) -> str:
        body = "".join(f"{part}{draw(spaces)},{draw(spaces)}" for part in parts[:-1])
        if parts:
            body += parts[-1] + (draw(st.sampled_from(["", ",", " ,"])) if trailing else "")
        return body

    def record() -> str:
        pairs = [
            f"{string(draw(texts))}{draw(spaces)}:{draw(spaces)}{value()}"
            for _ in range(draw(st.integers(0, 4)))
        ]
        return "{" + draw(spaces) + joined(pairs) + draw(spaces) + "}"

    items = [record() for _ in range(draw(st.integers(0, 4)))]
    text = "[" + draw(spaces) + joined(items) + draw(spaces) + "]"
    prefix = draw(st.sampled_from(["", "", "Sure: ", "List[Dict] -> ", "[", "'", "\"", "]"]))
    suffix = draw(st.sampled_from(["", "", " done", "]", " [{'token': 'y'}]", "'"]))
    return prefix + text + suffix


_records = st.lists(
    st.dictionaries(
        _TEXT,
        st.one_of(st.none(), st.booleans(), st.integers(), _TEXT,
                  st.floats(allow_nan=False)),
        max_size=4,
    ),
    max_size=6,
)
# The two exact writings: Python's repr and JSON, indented or not.
_dumped_lists = st.one_of(
    _records.map(repr),
    _records.map(json.dumps),
    _records.map(lambda r: json.dumps(r, ensure_ascii=False, indent=2)),
)


def _assert_same_as_reference(raw: str) -> None:
    assert repr(_first_list_literal(raw)) == repr(reference._first_list_literal(raw))
    start = raw.find("[")
    if start >= 0 and _decode_records(raw, start) is not None:
        # A one-pass match spans exactly what the bracket scan finds.
        assert _RECORDS.match(raw, start).end() - 1 == reference._match_bracket(raw, start)


@settings(max_examples=600, deadline=None)
@given(raw=_rendered_lists())
def test_model_like_lists_decode_as_the_reference_does(raw):
    _assert_same_as_reference(raw)


@settings(max_examples=300, deadline=None)
@given(raw=_dumped_lists)
def test_exact_writings_decode_as_the_reference_does(raw):
    _assert_same_as_reference(raw)


@settings(max_examples=300, deadline=None)
@given(raw=_hostile)
def test_hostile_output_decodes_as_the_reference_does(raw):
    _assert_same_as_reference(raw)


@pytest.mark.parametrize(
    "raw",
    [
        "[]", "[ ]", "[{}]", "no list here", "[", "]",
        "[{'token': 'x', 'schema': None, 'type': None}]",
        '[{"token": "x", "schema": null, "type": null}]',
        # Both spellings: neither decoder takes the first span.
        "[{'token': 'x', 'schema': null}] then [{'token': 'y'}]",
        '[{"token": "x", "schema": None, "type": null}]',
        "[{'a': True, 'b': true}]",
        "[{'token': 'x',}]", "[{'token': 'x'},]", '[{"token": "x"},]',
        "[{'token': 'x'}]]", "[[{'token': 'x'}]]", "[{'token': 'a]b'}]",
        "[{'token': 'a' 'b'}]", "[{'token': 1e3}]", "[{'token': 007}]",
        "[{'token': 12345678901234567890}]", "[{'token': 123456789012345678}]",
        "[{'token': '\\u0041'}]", "[{'token':\x0c'x'}]", "[{'token': 'x'}]",
        "[{'token': 'x'} # note\n]", "[{'token': '\ud800'}]", '[{"token": "\ud800"}]',
        "[{'token': 'x\ny'}]", '[{"token": "x\ty"}]', "[{'a': 1, 'a': 2}]",
        "[{'x': -0}]", '[{"x": -0}]', "[{1: 'x'}]", "[{'x': {1, 2}}]",
        '[{"token":\x0cnull}]', '[{"token": "x",}]', '[{"token": null,}]', '[{"token": null},]',
        "[{'x': " + "1" * 5000 + "}]",
    ],
)
def test_edge_cases_decode_as_the_reference_does(raw):
    _assert_same_as_reference(raw)


def test_every_mini_benchmark_answer_takes_the_one_pass_path():
    answers = [text for (_, kind), text in SCRIPT.items() if kind == "linking"]
    assert answers
    for raw in answers:
        _assert_same_as_reference(raw)
        start = raw.find("[")
        if start >= 0:
            assert _decode_records(raw, start) is not None, raw
