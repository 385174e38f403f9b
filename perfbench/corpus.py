"""Seeded, Spider-shaped corpus: schemas, rows, question templates and the
per-example plans the scripted responder follows.

The seed picks names, values and the order of examples; it never changes the
make-up of the inputs. Table counts, row counts, the template mix and the plan
mix are fixed, so the work a run does is the same from seed to seed and only
the data differ. Nothing here imports the program under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

NOUNS = [
    "singer", "concert", "stadium", "student", "course", "teacher", "department",
    "employee", "company", "product", "customer", "purchase", "supplier", "shipment",
    "warehouse", "store", "airport", "flight", "airline", "pilot", "aircraft", "hotel",
    "room", "guest", "booking", "museum", "exhibit", "artist", "painting", "album",
    "song", "band", "festival", "team", "player", "coach", "game", "league", "school",
    "club", "member", "event", "venue", "book", "author", "publisher", "library",
    "patient", "doctor", "hospital", "nurse", "treatment", "movie", "director", "actor",
    "studio", "review", "restaurant", "dish", "chef", "farm", "crop", "ship", "captain",
    "port", "mountain", "river", "park", "building", "architect", "station", "train",
    "route", "vehicle", "courier", "account", "bank", "loan", "branch", "volunteer",
]

# name -> (low, high, real-valued)
NUMERIC = {
    "age": (18, 80, False), "price": (1, 1000, True), "capacity": (50, 90000, False),
    "year": (1950, 2024, False), "rating": (1, 10, True), "budget": (1000, 900000, True),
    "height": (140, 210, False), "weight": (40, 150, True), "salary": (20000, 200000, False),
    "population": (100, 5000000, False), "score": (0, 100, False),
    "duration": (1, 600, False), "length": (1, 5000, True), "speed": (10, 900, False),
    "quantity": (1, 500, False), "cost": (5, 50000, True), "revenue": (1000, 9000000, True),
    "area": (10, 90000, True), "points": (0, 3000, False), "distance": (1, 20000, False),
}

TEXT = {
    "country": ["France", "Japan", "Brazil", "Canada", "Kenya", "Norway", "Peru",
                "Chile", "India", "Spain", "Egypt", "Italy"],
    "city": ["Paris", "Tokyo", "Lima", "Oslo", "Nairobi", "Madrid", "Cairo", "Rome",
             "Toronto", "Santiago", "Mumbai", "Osaka"],
    "genre": ["rock", "jazz", "pop", "folk", "blues", "soul", "metal", "disco"],
    "status": ["active", "retired", "pending", "closed", "open", "suspended"],
    "color": ["red", "blue", "green", "black", "white", "yellow", "purple", "orange"],
    "category": ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"],
    "region": ["north", "south", "east", "west", "central", "coastal"],
    "language": ["English", "French", "Spanish", "Hindi", "Swahili", "Japanese",
                 "Portuguese", "Arabic"],
}

N_NUMERIC = 3
N_TEXT = 2
DEV_DATABASES = 20
TRAIN_DATABASES = 140
DEV_TABLE_COUNTS = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 6, 9, 12, 15]
TRAIN_TABLE_COUNTS = [5, 7, 9, 11, 13, 15, 6, 8, 10, 12, 14]
ROW_COUNTS = [300, 500, 700, 900, 1100, 1300]
NULL_SHARE = 0.02


@dataclass
class Table:
    name: str
    numeric: list[str]
    text: list[str]
    parent: str | None = None
    rows: int = 0

    @property
    def columns(self) -> list[tuple[str, str]]:
        cols = [("id", "number"), ("name", "text")]
        cols += [(c, "number") for c in self.numeric]
        cols += [(c, "text") for c in self.text]
        if self.parent:
            cols.append((f"{self.parent}_id", "number"))
        return cols


@dataclass
class Database:
    db_id: str
    tables: list[Table]

    def table(self, name: str) -> Table:
        return next(t for t in self.tables if t.name == name)

    def children(self) -> list[Table]:
        return [t for t in self.tables if t.parent]


def make_database(rng: random.Random, db_id: str, n_tables: int, with_rows: bool) -> Database:
    """Tables in FK order: each table after the first points at an earlier
    one. Row counts depend only on the table's position."""
    nouns = rng.sample(NOUNS, n_tables)
    tables = []
    for i, noun in enumerate(nouns):
        tables.append(
            Table(
                name=noun,
                numeric=rng.sample(sorted(NUMERIC), N_NUMERIC),
                text=rng.sample(sorted(TEXT), N_TEXT),
                parent=nouns[rng.randrange(i)] if i else None,
                rows=ROW_COUNTS[(i + n_tables) % len(ROW_COUNTS)] if with_rows else 0,
            )
        )
    return Database(db_id=db_id, tables=tables)


def tables_json_entry(db: Database) -> dict:
    """Spider ``tables.json`` layout, with the ``*`` pseudo-column first."""
    column_names = [[-1, "*"]]
    column_types = ["text"]
    primary_keys = []
    id_index = {}
    pending_fks = []
    for t_index, table in enumerate(db.tables):
        for name, kind in table.columns:
            if name == "id":
                id_index[table.name] = len(column_names)
                primary_keys.append(len(column_names))
            if table.parent and name == f"{table.parent}_id":
                pending_fks.append((len(column_names), table.parent))
            column_names.append([t_index, name])
            column_types.append(kind)
    foreign_keys = [[local, id_index[parent]] for local, parent in pending_fks]
    return {
        "db_id": db.db_id,
        "table_names": [t.name.replace("_", " ") for t in db.tables],
        "table_names_original": [t.name for t in db.tables],
        "column_names": [[i, n.replace("_", " ")] for i, n in column_names],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


def ddl(table: Table) -> str:
    parts = []
    for name, kind in table.columns:
        sql_type = {"number": "INTEGER" if name == "id" or name.endswith("_id") else "REAL",
                    "text": "TEXT"}[kind]
        if name in NUMERIC and not NUMERIC[name][2]:
            sql_type = "INTEGER"
        parts.append(f"{name} {sql_type}" + (" PRIMARY KEY" if name == "id" else ""))
    if table.parent:
        parts.append(f"FOREIGN KEY ({table.parent}_id) REFERENCES {table.parent} (id)")
    return f"CREATE TABLE {table.name} ({', '.join(parts)})"


def table_rows(rng: random.Random, db: Database, table: Table) -> list[tuple]:
    parent_rows = db.table(table.parent).rows if table.parent else 0
    label = table.name.title()
    numeric = [NUMERIC[c] for c in table.numeric]
    domains = [TEXT[c] for c in table.text]
    rows = []
    for row_id in range(1, table.rows + 1):
        row = [row_id, f"{label} {row_id}"]
        for low, high, real in numeric:
            if rng.random() < NULL_SHARE:
                row.append(None)
            elif real:
                row.append(round(rng.uniform(low, high), 2))
            else:
                row.append(rng.randint(low, high))
        row.extend(rng.choice(domain) for domain in domains)
        if table.parent:
            row.append(rng.randint(1, parent_rows))
        rows.append(tuple(row))
    return rows


# --------------------------------------------------------------------------
# Question templates
# --------------------------------------------------------------------------

def plural(noun: str) -> str:
    if noun.endswith("y") and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    if noun.endswith(("s", "ch", "sh")):
        return noun + "es"
    return noun + "s"


def _link(token, schema, kind):
    return (str(token), str(schema), kind)


@dataclass
class Case:
    """One question with its gold SQL and the wrong variants a plan can use."""

    template: str
    hardness: str
    db_id: str
    words: list
    punct: str
    gold: str
    ordered: bool
    skeleton: str
    skeleton_wrong: str
    entity_wrong: str | None = None
    exec_wrong: str | None = None
    unseen_wrong: list[str] = field(default_factory=list)
    table: str = ""

    @property
    def question(self) -> str:
        return " ".join(w if isinstance(w, str) else w[0] for w in self.words) + self.punct

    @property
    def tokens(self) -> list[str]:
        return [w if isinstance(w, str) else w[0] for w in self.words] + [self.punct]

    def alignment(self) -> list[dict]:
        records = []
        for w in self.words:
            if isinstance(w, str):
                records.append({"token": w, "schema": None, "type": None})
            else:
                records.append({"token": w[0], "schema": w[1], "type": w[2]})
        records.append({"token": self.punct, "schema": None, "type": None})
        return records

    def hallucinated(self, db: Database) -> str:
        """The gold query with plural table names, as a model without the
        schema would write it; its skeleton equals the gold skeleton."""
        sql = self.gold
        for table in db.tables:
            sql = re.sub(rf"\b{table.name}\b", plural(table.name), sql)
        return sql


def _threshold(rng, column):
    """A literal from the middle of the column's range, and literals far
    from it for the variants that must give another result."""
    low, high, _ = NUMERIC[column]
    value = int(low + (high - low) * rng.uniform(0.3, 0.7))
    shifted = [int(low + (high - low) * f) for f in (0.85, 0.15, 0.95, 0.05)]
    return value, [v for v in shifted if v != value]


def _group_threshold(rng, table, column):
    """A HAVING count near the average group size, so that some groups pass."""
    if not table.rows:
        return rng.randint(2, 9), []
    size = table.rows // len(TEXT[column])
    value = max(2, size + rng.randint(-size // 10 - 1, size // 10 + 1))
    return value, [max(1, value // 2), value * 3, 1]


def t_select_all(rng, db, t):
    return Case("select_all", "easy", db.db_id,
                ["List", "the", _link("names", "name", "col"), "of", "all",
                 _link(plural(t.name), t.name, "tbl")], ".",
                f"SELECT name FROM {t.name}", False, "SELECT _ FROM _",
                skeleton_wrong=f"SELECT DISTINCT name FROM {t.name}",
                entity_wrong=f"SELECT {t.text[0]} FROM {t.name}")


def t_count(rng, db, t):
    other = next(x for x in db.tables if x.name != t.name)
    return Case("count", "easy", db.db_id,
                ["How", "many", _link(plural(t.name), t.name, "tbl"), "are", "there"], "?",
                f"SELECT count(*) FROM {t.name}", False, "SELECT COUNT ( * ) FROM _",
                skeleton_wrong=f"SELECT count(DISTINCT name) FROM {t.name}",
                entity_wrong=f"SELECT count(*) FROM {other.name}")


def t_where_num(rng, db, t):
    num, num2 = t.numeric[0], t.numeric[1]
    v, shifted = _threshold(rng, num)
    base = f"SELECT name FROM {t.name} WHERE"
    return Case("where_num", "easy", db.db_id,
                ["What", "are", "the", _link("names", "name", "col"), "of",
                 _link(plural(t.name), t.name, "tbl"), "with", _link(num, num, "col"),
                 "greater", "than", _link(v, v, "val")], "?",
                f"{base} {num} > {v}", False, "SELECT _ FROM _ WHERE _ > _",
                skeleton_wrong=f"{base} {num} < {v}",
                entity_wrong=f"{base} {num2} > {v}",
                unseen_wrong=[f"{base} {num} > {s}" for s in shifted])


def t_agg(rng, db, t):
    num, num2 = t.numeric[0], t.numeric[2]
    return Case("agg", "easy", db.db_id,
                ["What", "is", "the", "average", _link(num, num, "col"), "of", "all",
                 _link(plural(t.name), t.name, "tbl")], "?",
                f"SELECT avg({num}) FROM {t.name}", False, "SELECT AVG ( _ ) FROM _",
                skeleton_wrong=f"SELECT max({num}) FROM {t.name}",
                entity_wrong=f"SELECT avg({num2}) FROM {t.name}")


def t_where_text(rng, db, t):
    num, num2, col = t.numeric[1], t.numeric[2], t.text[0]
    val = rng.choice(TEXT[col])
    others = [v for v in TEXT[col] if v != val][:4]
    return Case("where_text", "medium", db.db_id,
                ["What", "is", "the", _link(num, num, "col"), "of",
                 _link(plural(t.name), t.name, "tbl"), "whose", _link(col, col, "col"), "is",
                 _link(val, val, "val")], "?",
                f"SELECT {num} FROM {t.name} WHERE {col} = '{val}'", False,
                "SELECT _ FROM _ WHERE _ = _",
                skeleton_wrong=f"SELECT {num} FROM {t.name} WHERE {col} != '{val}'",
                entity_wrong=f"SELECT {num2} FROM {t.name} WHERE {col} = '{val}'",
                unseen_wrong=[f"SELECT {num} FROM {t.name} WHERE {col} = '{o}'" for o in others])


def t_order_limit(rng, db, t):
    num, num2 = t.numeric[2], t.numeric[0]
    base = f"SELECT name FROM {t.name} ORDER BY"
    return Case("order_limit", "medium", db.db_id,
                ["Which", _link(t.name, t.name, "tbl"), "has", "the", "highest",
                 _link(num, num, "col")], "?",
                f"{base} {num} DESC LIMIT 1", True, "SELECT _ FROM _ ORDER BY _ DESC LIMIT _",
                skeleton_wrong=f"{base} {num} ASC LIMIT 1",
                entity_wrong=f"{base} {num2} DESC LIMIT 1",
                unseen_wrong=[f"{base} {num} DESC LIMIT 3", f"{base} {num} DESC LIMIT 2"])


def t_order_all(rng, db, t):
    num, num2 = t.numeric[1], t.numeric[0]
    return Case("order_all", "medium", db.db_id,
                ["List", "the", _link("names", "name", "col"), "of",
                 _link(plural(t.name), t.name, "tbl"), "sorted", "by", _link(num, num, "col")], ".",
                f"SELECT name FROM {t.name} ORDER BY {num}", True, "SELECT _ FROM _ ORDER BY _",
                skeleton_wrong=f"SELECT name FROM {t.name} ORDER BY {num} DESC",
                entity_wrong=f"SELECT name FROM {t.name} ORDER BY {num2}")


def t_group_count(rng, db, t):
    col, col2 = t.text
    return Case("group_count", "medium", db.db_id,
                ["How", "many", _link(plural(t.name), t.name, "tbl"), "are", "there", "for",
                 "each", _link(col, col, "col")], "?",
                f"SELECT {col}, count(*) FROM {t.name} GROUP BY {col}", False,
                "SELECT _ , COUNT ( * ) FROM _ GROUP BY _",
                skeleton_wrong=f"SELECT {col}, count(*) FROM {t.name} GROUP BY {col} "
                               "ORDER BY count(*) DESC",
                entity_wrong=f"SELECT {col2}, count(*) FROM {t.name} GROUP BY {col2}")


def _join(parent: Table, child: Table) -> str:
    return (f"FROM {parent.name} AS T1 JOIN {child.name} AS T2 "
            f"ON T1.id = T2.{parent.name}_id")


def t_join_where(rng, db, child):
    parent = db.table(child.parent)
    num, num2 = child.numeric[0], child.numeric[1]
    v, shifted = _threshold(rng, num)
    join = _join(parent, child)
    return Case("join_where", "medium", db.db_id,
                ["What", "are", "the", _link("names", "name", "col"), "of",
                 _link(plural(parent.name), parent.name, "tbl"), "with", "a",
                 _link(child.name, child.name, "tbl"), "whose", _link(num, num, "col"), "is",
                 "above", _link(v, v, "val")], "?",
                f"SELECT T1.name {join} WHERE T2.{num} > {v}", False,
                "SELECT _ FROM _ JOIN _ ON _ = _ WHERE _ > _",
                skeleton_wrong=f"SELECT T1.name {join} WHERE T2.{num} < {v}",
                entity_wrong=f"SELECT T1.name {join} WHERE T2.{num2} > {v}",
                exec_wrong=f"SELECT name {join} WHERE T2.{num} > {v}",
                unseen_wrong=[f"SELECT T1.name {join} WHERE T2.{num} > {s}" for s in shifted])


def t_having(rng, db, t):
    col, col2 = t.text
    v, shifted = _group_threshold(rng, t, col)
    return Case("having", "hard", db.db_id,
                ["Which", _link(col, col, "col"), "values", "have", "more", "than",
                 _link(v, v, "val"), _link(plural(t.name), t.name, "tbl")], "?",
                f"SELECT {col} FROM {t.name} GROUP BY {col} HAVING count(*) > {v}", False,
                "SELECT _ FROM _ GROUP BY _ HAVING COUNT ( * ) > _",
                skeleton_wrong=f"SELECT {col} FROM {t.name} GROUP BY {col} HAVING count(*) < {v}",
                entity_wrong=f"SELECT {col2} FROM {t.name} GROUP BY {col2} HAVING count(*) > {v}",
                unseen_wrong=[f"SELECT {col} FROM {t.name} GROUP BY {col} HAVING count(*) > {s}"
                              for s in shifted])


def t_join_group(rng, db, child):
    parent = db.table(child.parent)
    join = _join(parent, child)
    tail = "GROUP BY T1.id ORDER BY count(*)"
    return Case("join_group", "hard", db.db_id,
                ["Which", _link(parent.name, parent.name, "tbl"), "has", "the", "most",
                 _link(plural(child.name), child.name, "tbl")], "?",
                f"SELECT T1.name {join} {tail} DESC LIMIT 1", True,
                "SELECT _ FROM _ JOIN _ ON _ = _ GROUP BY _ ORDER BY COUNT ( * ) DESC LIMIT _",
                skeleton_wrong=f"SELECT T1.name {join} {tail} ASC LIMIT 1",
                exec_wrong=f"SELECT name {join} {tail} DESC LIMIT 1",
                unseen_wrong=[f"SELECT T1.name {join} {tail} DESC LIMIT 3"])


def t_nested(rng, db, t):
    num, num2 = t.numeric[0], t.numeric[1]
    return Case("nested", "hard", db.db_id,
                ["List", "the", _link("names", "name", "col"), "of",
                 _link(plural(t.name), t.name, "tbl"), "whose", _link(num, num, "col"), "is",
                 "above", "the", "average"], ".",
                f"SELECT name FROM {t.name} WHERE {num} > (SELECT avg({num}) FROM {t.name})",
                False, "SELECT _ FROM _ WHERE _ > ( SELECT AVG ( _ ) FROM _ )",
                skeleton_wrong=f"SELECT name FROM {t.name} WHERE {num} < "
                               f"(SELECT avg({num}) FROM {t.name})",
                entity_wrong=f"SELECT name FROM {t.name} WHERE {num2} > "
                             f"(SELECT avg({num2}) FROM {t.name})")


def t_not_in(rng, db, child):
    parent = db.table(child.parent)
    inner = f"(SELECT {parent.name}_id FROM {child.name})"
    return Case("not_in", "extra", db.db_id,
                ["List", "the", _link("names", "name", "col"), "of",
                 _link(plural(parent.name), parent.name, "tbl"), "that", "have", "no",
                 _link(plural(child.name), child.name, "tbl")], ".",
                f"SELECT name FROM {parent.name} WHERE id NOT IN {inner}", False,
                "SELECT _ FROM _ WHERE _ NOT IN ( SELECT _ FROM _ )",
                skeleton_wrong=f"SELECT name FROM {parent.name} WHERE id IN {inner}")


def _set_op(name, op, wrong_op, joiner):
    def template(rng, db, t):
        num, num2, col = t.numeric[0], t.numeric[1], t.text[0]
        v, shifted = _threshold(rng, num)
        val = rng.choice(TEXT[col])

        def sql(op_, column, value):
            return (f"SELECT name FROM {t.name} WHERE {column} > {value} {op_} "
                    f"SELECT name FROM {t.name} WHERE {col} = '{val}'")

        return Case(name, "extra", db.db_id,
                    ["Which", _link(plural(t.name), t.name, "tbl"), "have",
                     _link(num, num, "col"), "above", _link(v, v, "val"), *joiner,
                     _link(col, col, "col"), _link(val, val, "val")], "?",
                    sql(op, num, v), False,
                    f"SELECT _ FROM _ WHERE _ > _ {op} SELECT _ FROM _ WHERE _ = _",
                    skeleton_wrong=sql(wrong_op, num, v),
                    entity_wrong=sql(op, num2, v),
                    unseen_wrong=[sql(op, num, s) for s in shifted])
    return template


TEMPLATES = {
    "select_all": t_select_all, "count": t_count, "where_num": t_where_num, "agg": t_agg,
    "where_text": t_where_text, "order_limit": t_order_limit, "order_all": t_order_all,
    "group_count": t_group_count, "join_where": t_join_where, "having": t_having,
    "join_group": t_join_group, "nested": t_nested, "not_in": t_not_in,
    "union": _set_op("union", "UNION", "INTERSECT", ["or"]),
    "intersect": _set_op("intersect", "INTERSECT", "UNION", ["and"]),
    "except": _set_op("except", "EXCEPT", "UNION", ["but", "not"]),
}
JOIN_TEMPLATES = {"join_where", "join_group", "not_in"}


def make_case(rng: random.Random, db: Database, template: str) -> Case:
    candidates = db.children() if template in JOIN_TEMPLATES else db.tables
    table = rng.choice(candidates)
    case = TEMPLATES[template](rng, db, table)
    case.table = table.name
    return case


# --------------------------------------------------------------------------
# Plans: how the scripted responder treats each dev example
# --------------------------------------------------------------------------

# An assumption, not a measured rate: the source paper's per-channel fix
# rates are not in this repository. Each channel gets at least 3 examples in
# 50 so that every run exercises it, which gives 0.36 correction rounds per
# example.
PLAN_BLOCK = (
    ["right"] * 20 + ["entity"] * 7 + ["skeleton"] * 7 + ["exec"] * 4 + ["unseen"] * 6
    + ["unparsable_link"] * 3 + ["unparsable_skeleton"] * 3
)

PLAN_TEMPLATES = {
    "right": list(TEMPLATES),
    "entity": [t for t in TEMPLATES if t not in ("join_group", "not_in")],
    "skeleton": list(TEMPLATES),
    "exec": ["join_where", "join_group"],
    "unseen": ["where_num", "where_text", "order_limit", "having", "join_where",
               "join_group", "union", "intersect", "except"],
    "unparsable_link": list(TEMPLATES),
    "unparsable_skeleton": list(TEMPLATES),
}

# Expected trace shape per plan: round kinds and the stage that records an error.
PLAN_ROUNDS = {
    "right": [], "entity": ["missing_entities"], "skeleton": ["skeleton_mismatch"],
    "exec": ["execution_error"], "unseen": [], "unparsable_link": [],
    "unparsable_skeleton": [],
}
PLAN_STAGE_ERRORS = {"unparsable_link": ["entity_linking"],
                     "unparsable_skeleton": ["skeleton_parsing"]}


def schedule(n: int, block: list[str], options: dict[str, list[str]],
             rng: random.Random) -> list[tuple[str, str]]:
    """(kind, template) slots: every block of ``len(block)`` slots holds the
    same kinds, each kind walks its feasible templates in turn, and the seed
    only shuffles the order inside a block."""
    cursors = {kind: 0 for kind in options}
    slots = []
    while len(slots) < n:
        chunk = []
        for kind in block:
            templates = options[kind]
            chunk.append((kind, templates[cursors[kind] % len(templates)]))
            cursors[kind] += 1
        rng.shuffle(chunk)
        slots.extend(chunk)
    return slots[:n]
