"""Deterministic SQL analysis: tokenizing, entity extraction, and skeleton
masking for the SQLite-flavoured SELECT subset that Spider-style datasets
execute.

The skeleton of a query is its text with every schema reference and literal
replaced by ``_``: keywords are uppercased, a qualified reference such as
``T1.name`` collapses to a single ``_``, alias declarations disappear, and
the fixed aggregate names (COUNT, SUM, AVG, MIN, MAX) plus DISTINCT are kept
as keywords. Tokens are joined with single spaces, so skeletons compare by
plain string equality.

Entity extraction is best-effort by design: identifiers that match nothing
in the catalog are ignored rather than rejected, because model-generated SQL
is routinely malformed and the comparison step must still run. Double-quoted
text is treated as a string literal (the common usage in this corpus), not
as a quoted identifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import EmptyInputError, TokenizationError

if TYPE_CHECKING:
    from .schema import SchemaCatalog

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET
    JOIN INNER LEFT RIGHT FULL OUTER CROSS NATURAL ON USING AS
    AND OR NOT IN EXISTS BETWEEN LIKE GLOB IS NULL
    DISTINCT ALL ANY UNION INTERSECT EXCEPT
    CASE WHEN THEN ELSE END ASC DESC WITH RECURSIVE CAST
    COUNT SUM AVG MIN MAX
    """.split()
)

# Keywords that terminate the table-reference part of a FROM/JOIN clause.
_FROM_TERMINATORS = frozenset(
    """
    ON USING WHERE GROUP ORDER HAVING LIMIT OFFSET UNION INTERSECT EXCEPT
    SELECT AND OR WHEN THEN ELSE END
    """.split()
)

_OPERATORS_2 = ("<=", ">=", "<>", "!=", "||", "==")
_OPERATORS_1 = "=<>+-/%"
_PUNCTUATION = "(),;."


@dataclass
class SqlToken:
    kind: str  # keyword | identifier | number | string | operator | punctuation | star
    text: str
    position: int


@dataclass
class SqlEntities:
    """Schema entities a query uses: canonically cased table/column names
    plus literal values in source order."""

    tables: set[str] = field(default_factory=set)
    columns: set[str] = field(default_factory=set)
    values: list[str] = field(default_factory=list)


def tokenize_sql(sql: str) -> list[SqlToken]:
    """Tokenize a SQL string, covering the whole input except whitespace.

    String literals keep their inner text with doubled-quote escapes intact;
    an unterminated literal raises :class:`TokenizationError` with its offset.
    """
    if not sql or not sql.strip():
        raise EmptyInputError("cannot tokenize empty SQL")

    tokens: list[SqlToken] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ("'", '"'):
            end = _scan_string(sql, i, ch)
            tokens.append(SqlToken("string", sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (
            ch == "."
            and i + 1 < n
            and sql[i + 1].isdigit()
            and (not tokens or tokens[-1].kind != "identifier")
        ):
            end = _scan_number(sql, i)
            tokens.append(SqlToken("number", sql[i:end], i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i + 1
            while end < n and (sql[end].isalnum() or sql[end] == "_"):
                end += 1
            text = sql[i:end]
            kind = "keyword" if text.upper() in KEYWORDS else "identifier"
            tokens.append(SqlToken(kind, text, i))
            i = end
            continue
        if sql[i : i + 2] in _OPERATORS_2:
            tokens.append(SqlToken("operator", sql[i : i + 2], i))
            i += 2
            continue
        if ch == "*":
            tokens.append(SqlToken("star", ch, i))
            i += 1
            continue
        if ch in _OPERATORS_1:
            tokens.append(SqlToken("operator", ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(SqlToken("punctuation", ch, i))
            i += 1
            continue
        raise TokenizationError(f"unexpected character {ch!r} at offset {i}", offset=i)
    return tokens


def _scan_string(sql: str, start: int, quote: str) -> int:
    """Return the index of the closing quote, honouring doubled-quote escapes."""
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i
        i += 1
    raise TokenizationError(
        f"unterminated string literal starting at offset {start}", offset=start
    )


def _scan_number(sql: str, start: int) -> int:
    i = start
    n = len(sql)
    while i < n and sql[i].isdigit():
        i += 1
    if i < n and sql[i] == ".":
        i += 1
        while i < n and sql[i].isdigit():
            i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            i = j
            while i < n and sql[i].isdigit():
                i += 1
    return i


# --------------------------------------------------------------------------
# Structural annotation shared by entity extraction and skeleton masking
# --------------------------------------------------------------------------

@dataclass
class SqlAnalysis:
    """What one scan of a query's tokens finds; empty, with ``tokenizes``
    False, for text that does not tokenize."""

    skeleton: str = ""  # each token "_", "*" or kept text, space-joined
    from_tables: list[str] = field(default_factory=list)
    aliases: dict[str, str | None] = field(default_factory=dict)
    column_refs: list[tuple[str | None, str]] = field(default_factory=list)
    values: list[str] = field(default_factory=list)
    ordered: bool = False  # ORDER then BY outside every parenthesis
    tokenizes: bool = True


def _analyze(tokens: list[SqlToken]) -> SqlAnalysis:
    """Single forward scan classifying every token: table references and
    alias declarations in FROM/JOIN clauses, qualified/bare column
    references elsewhere, literals, and syntax to keep. The skeleton is
    written as the scan goes; a dropped token is not appended."""
    out = SqlAnalysis()
    skeleton: list[str] = []
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
                skeleton.append(upper)
                i += 1
                continue
            if upper == "AS" and i + 1 < n and tokens[i + 1].kind == "identifier":
                # Dropped with its name. After a table it declares an alias;
                # a select-list or CAST alias is never an entity.
                if current in (AFTER_TABLE, AFTER_ALIAS):
                    out.aliases[tokens[i + 1].text.lower()] = pending_table.get(depth)
                    state[depth] = AFTER_ALIAS
                i += 2
                continue
            if upper in _FROM_TERMINATORS:
                state[depth] = NONE
            if upper == "ORDER" and depth == 0 and i + 1 < n:
                out.ordered |= tokens[i + 1].text.upper() == "BY"
            skeleton.append(upper)
            i += 1
            continue

        if token.kind == "identifier":
            if current == EXPECT_TABLE:
                out.from_tables.append(token.text)
                pending_table[depth] = token.text
                state[depth] = AFTER_TABLE
                skeleton.append("_")
                i += 1
                continue
            if current == AFTER_TABLE:
                # Implicit alias, dropped: FROM singer s
                out.aliases[token.text.lower()] = pending_table.get(depth)
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
            if qualified_star:
                skeleton.append("*")
            else:
                skeleton.append("_")
                # A non-aggregate function call is not a column.
                call = j < n and tokens[j].kind == "punctuation" and tokens[j].text == "("
                if not (call and len(chain) == 1):
                    qualifier = chain[-2] if len(chain) >= 2 else None
                    out.column_refs.append((qualifier, chain[-1]))
            i = j
            continue

        if token.kind in ("string", "number"):
            out.values.append(token.text)
            skeleton.append("_")
            i += 1
            continue

        if token.kind == "punctuation":
            if token.text == "(":
                depth += 1
                state[depth] = NONE
            elif token.text == ")":
                state.pop(depth, None)
                pending_table.pop(depth, None)
                depth = max(0, depth - 1)
                if state.get(depth) == EXPECT_TABLE:
                    # A derived table just closed: allow an alias for it.
                    pending_table[depth] = None
                    state[depth] = AFTER_TABLE
            elif token.text == "," and current in (AFTER_TABLE, AFTER_ALIAS):
                state[depth] = EXPECT_TABLE
            elif token.text == ";":
                i += 1
                continue

        # star, operator or kept punctuation
        skeleton.append(token.text)
        i += 1

    out.skeleton = " ".join(skeleton)
    return out


def analyze_sql(sql: str) -> SqlAnalysis:
    """Analyse a query once: its skeleton, the parts ``entities_of``
    resolves and its ORDER BY flag, for the checks and the EX verdict to
    read. Empty or untokenizable text gets an empty analysis with
    ``tokenizes`` False."""
    try:
        return _analyze(tokenize_sql(sql))
    except (EmptyInputError, TokenizationError):
        return SqlAnalysis(tokenizes=False)


def extract_entities(sql: str, catalog: SchemaCatalog) -> SqlEntities:
    """Extract the catalog tables, columns, and literal values a query uses.

    Aliases are resolved to their target tables; bare column names are
    matched against every table in the query's FROM scope; anything that
    matches no catalog entity is silently ignored.
    """
    return entities_of(_analyze(tokenize_sql(sql)), catalog)


def entities_of(analysis: SqlAnalysis, catalog: SchemaCatalog) -> SqlEntities:
    """``extract_entities`` of an analysed query."""
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
    return _analyze(tokenize_sql(sql)).skeleton
