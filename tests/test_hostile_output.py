"""Model output is untrusted text: the parsers that read it may reject it,
but only with ``SqlMendError``, never with any other exception."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.alignment import parse_alignment
from sqlmend.errors import SqlMendError
from sqlmend.prompts import extract_sql_block
from sqlmend.sql_analysis import extract_skeleton

# Pieces of the syntax each parser looks for, so that generated text reaches
# past the first rejection: fences, brackets, quotes, literals, SQL words.
_FRAGMENTS = [
    "```sql\n", "```", "[", "]", "{", "}", "(", ")", "'", '"', "\\", ",", ":",
    ";", "\n", " ", "'token'", '"schema"', "'type'", "None", "null", "'tbl'",
    "'col'", "'val'", "1e999", "-0", "SELECT", "WITH", "FROM", "WHERE",
    "ORDER BY", "GROUP BY", "UNION", "JOIN", "AS", "*", "=", ">", "--", "/*",
    "*/", "`", "x", "T1.a", "count(*)", "\x00", "é",
]
_hostile = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(raw=_hostile)
def test_extract_sql_block_raises_only_package_errors(raw):
    try:
        extract_sql_block(raw)
    except SqlMendError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=_hostile, question=st.text(max_size=60))
def test_parse_alignment_raises_only_package_errors(raw, question):
    try:
        parse_alignment(raw, question)
    except SqlMendError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=_hostile)
def test_extract_skeleton_raises_only_package_errors(raw):
    try:
        extract_skeleton(raw)
    except SqlMendError:
        pass
