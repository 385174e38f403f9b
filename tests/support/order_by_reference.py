"""Reference ORDER BY detection: the separate token-depth scanner that the
``ordered`` flag of ``sql_analysis._analyze`` replaced. A query orders its
rows when ORDER is followed by BY outside every parenthesis; text that does
not tokenize does not."""

from __future__ import annotations

from sqlmend.sql_analysis import tokenize_sql


def has_top_level_order_by(sql: str) -> bool:
    try:
        tokens = tokenize_sql(sql)
    except Exception:
        return False
    depth = 0
    for index, token in enumerate(tokens):
        if token.kind == "punctuation" and token.text == "(":
            depth += 1
        elif token.kind == "punctuation" and token.text == ")":
            depth = max(0, depth - 1)
        elif (
            depth == 0
            and token.kind == "keyword"
            and token.text.upper() == "ORDER"
            and index + 1 < len(tokens)
            and tokens[index + 1].text.upper() == "BY"
        ):
            return True
    return False
