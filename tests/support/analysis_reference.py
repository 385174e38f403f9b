"""Reference SQL analysis: the plan-then-translate analyser that
``sql_analysis._analyze`` replaced. The scan records an ``(action, text)``
piece for every consumed span, and ``extract_skeleton`` translates the plan
into the skeleton afterwards. Kept verbatim so that the one-pass analyser
can be compared with it on any token sequence."""

from __future__ import annotations

from dataclasses import dataclass, field

from sqlmend.schema import SchemaCatalog
from sqlmend.sql_analysis import SqlEntities, SqlToken, tokenize_sql

# Keywords that terminate the table-reference part of a FROM/JOIN clause.
_FROM_TERMINATORS = frozenset(
    """
    ON WHERE GROUP ORDER HAVING LIMIT OFFSET UNION INTERSECT EXCEPT
    SELECT AND OR WHEN THEN ELSE END
    """.split()
)

# Mask-plan actions for each consumed span of tokens.
_KEEP_KEYWORD = "keyword"
_MASK = "mask"
_KEEP = "keep"
_DROP = "drop"
_STAR = "star"


@dataclass
class _Analysis:
    pieces: list[tuple[str, str]] = field(default_factory=list)  # (action, text)
    from_tables: list[str] = field(default_factory=list)
    aliases: dict[str, str | None] = field(default_factory=dict)
    column_refs: list[tuple[str | None, str]] = field(default_factory=list)
    values: list[str] = field(default_factory=list)
    ordered: bool = False  # ORDER then BY outside every parenthesis


def _analyze(tokens: list[SqlToken]) -> _Analysis:
    """Single forward scan classifying every token: table references and
    alias declarations in FROM/JOIN clauses, qualified/bare column
    references elsewhere, literals, and syntax to keep."""
    out = _Analysis()
    # Per-paren-depth state of the FROM-clause scanner.
    NONE, EXPECT_TABLE, AFTER_TABLE, AFTER_ALIAS = 0, 1, 2, 3
    state: dict[int, int] = {0: NONE}
    pending_table: dict[int, str | None] = {}
    depth = 0
    i = 0
    n = len(tokens)

    while i < n:
        token = tokens[i]
        current = state.get(depth, NONE)

        if token.kind == "keyword":
            upper = token.text.upper()
            if upper in ("FROM", "JOIN"):
                state[depth] = EXPECT_TABLE
                out.pieces.append((_KEEP_KEYWORD, upper))
                i += 1
                continue
            if upper == "AS" and current in (AFTER_TABLE, AFTER_ALIAS):
                nxt = tokens[i + 1] if i + 1 < n else None
                if nxt is not None and nxt.kind == "identifier":
                    out.aliases[nxt.text.lower()] = pending_table.get(depth)
                    out.pieces.append((_DROP, token.text))
                    out.pieces.append((_DROP, nxt.text))
                    state[depth] = AFTER_ALIAS
                    i += 2
                    continue
            if upper == "AS":
                nxt = tokens[i + 1] if i + 1 < n else None
                if nxt is not None and nxt.kind == "identifier":
                    # Select-list or CAST alias: dropped, never an entity.
                    out.pieces.append((_DROP, token.text))
                    out.pieces.append((_DROP, nxt.text))
                    i += 2
                    continue
            if upper in _FROM_TERMINATORS:
                state[depth] = NONE
            if upper == "ORDER" and depth == 0 and i + 1 < n:
                out.ordered |= tokens[i + 1].text.upper() == "BY"
            out.pieces.append((_KEEP_KEYWORD, upper))
            i += 1
            continue

        if token.kind == "identifier":
            if current == EXPECT_TABLE:
                out.from_tables.append(token.text)
                pending_table[depth] = token.text
                state[depth] = AFTER_TABLE
                out.pieces.append((_MASK, token.text))
                i += 1
                continue
            if current == AFTER_TABLE:
                # Implicit alias: FROM singer s
                out.aliases[token.text.lower()] = pending_table.get(depth)
                out.pieces.append((_DROP, token.text))
                state[depth] = AFTER_ALIAS
                i += 1
                continue
            if current == AFTER_ALIAS:
                state[depth] = NONE
            # Qualified chain: ident (. ident)* or ident . *
            chain = [token.text]
            j = i + 1
            qualified_star = False
            while (
                j + 1 < n
                and tokens[j].kind == "punctuation"
                and tokens[j].text == "."
                and tokens[j + 1].kind in ("identifier", "star")
            ):
                if tokens[j + 1].kind == "star":
                    qualified_star = True
                    j += 2
                    break
                chain.append(tokens[j + 1].text)
                j += 2
            span_text = "".join(t.text for t in tokens[i:j])
            if qualified_star:
                out.pieces.append((_STAR, span_text))
            elif j < n and tokens[j].kind == "punctuation" and tokens[j].text == "(" and len(chain) == 1:
                # Function call with a non-aggregate name: not a column.
                out.pieces.append((_MASK, span_text))
            else:
                qualifier = chain[-2] if len(chain) >= 2 else None
                out.column_refs.append((qualifier, chain[-1]))
                out.pieces.append((_MASK, span_text))
            i = j
            continue

        if token.kind in ("string", "number"):
            out.values.append(token.text)
            out.pieces.append((_MASK, token.text))
            i += 1
            continue

        if token.kind == "star":
            out.pieces.append((_STAR, token.text))
            i += 1
            continue

        if token.kind == "punctuation":
            if token.text == "(":
                depth += 1
                state[depth] = NONE
                out.pieces.append((_KEEP, token.text))
                i += 1
                continue
            if token.text == ")":
                state.pop(depth, None)
                pending_table.pop(depth, None)
                depth = max(0, depth - 1)
                if state.get(depth) == EXPECT_TABLE:
                    # A derived table just closed: allow an alias for it.
                    pending_table[depth] = None
                    state[depth] = AFTER_TABLE
                out.pieces.append((_KEEP, token.text))
                i += 1
                continue
            if token.text == "," and current in (AFTER_TABLE, AFTER_ALIAS):
                state[depth] = EXPECT_TABLE
                out.pieces.append((_KEEP, token.text))
                i += 1
                continue
            if token.text == ";":
                out.pieces.append((_DROP, token.text))
                i += 1
                continue
            out.pieces.append((_KEEP, token.text))
            i += 1
            continue

        # operator
        out.pieces.append((_KEEP, token.text))
        i += 1

    return out


def extract_entities(sql: str, catalog: SchemaCatalog) -> SqlEntities:
    """Extract the catalog tables, columns, and literal values a query uses.

    Aliases are resolved to their target tables; bare column names are
    matched against every table in the query's FROM scope; anything that
    matches no catalog entity is silently ignored.
    """
    analysis = _analyze(tokenize_sql(sql))
    entities = SqlEntities(values=list(analysis.values))

    scope: list = []
    for name in analysis.from_tables:
        table = catalog.find_table(name)
        if table is not None and table.name not in entities.tables:
            entities.tables.add(table.name)
            scope.append(table)

    alias_targets: dict[str, str | None] = {}
    for alias, target in analysis.aliases.items():
        if target is None:
            alias_targets[alias] = None
        else:
            table = catalog.find_table(target)
            alias_targets[alias] = table.name if table is not None else None

    for qualifier, column in analysis.column_refs:
        if qualifier is not None:
            key = qualifier.lower()
            if key in alias_targets:
                target = alias_targets[key]
            else:
                table = catalog.find_table(qualifier)
                target = table.name if table is not None else None
            if target is None:
                continue
            resolved = catalog.find_table(target)
            col = resolved.find_column(column) if resolved else None
            if col is not None:
                entities.columns.add(col.name)
            continue
        for table in scope:
            col = table.find_column(column)
            if col is not None:
                entities.columns.add(col.name)
                break
    return entities


def extract_skeleton(sql: str) -> str:
    """Mask a query down to its canonical skeleton string."""
    analysis = _analyze(tokenize_sql(sql))
    parts: list[str] = []
    for action, text in analysis.pieces:
        if action == _DROP:
            continue
        if action == _MASK:
            parts.append("_")
        elif action == _STAR:
            parts.append("*")
        else:
            parts.append(text)
    return " ".join(parts)
