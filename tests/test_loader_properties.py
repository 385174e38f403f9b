"""One rule for every input file, checked by mutation: whatever is wrong with
an input, ``sqlmend run --backend replay`` and ``sqlmend evaluate`` end with
exit 0, 2 or 3, and no exception escapes ``main``.

Each example copies the mini benchmark's inputs (dataset, both alignment
sidecars, ``tables.json``, pool, a ``manifest.json`` naming them, and the
replay store), mutates one file and runs both commands on the copy. A
mutation drops a key or a list item, retypes a value to null, an int, a
list or an object, nests a value deeper than the JSON decoder can go, or
cuts the file short.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.cli import main

from support.mini import run_args

# The manifest's name for each input file; the store is ``replay_store``.
FILES = {
    "dataset": "dataset",
    "alignments": "dataset_alignments",
    "tables": "tables",
    "pool": "pool",
    "pool_alignments": "pool_alignments",
}
JSON_LINES = {"alignments", "pool_alignments", "replay_store"}

RETYPED = st.one_of(
    st.none(),
    st.integers(-2, 9),
    st.lists(st.sampled_from([0, "x", None]), max_size=2),
    st.dictionaries(st.sampled_from(["token", "db_id", "k"]), st.sampled_from([0, "x", None]),
                    max_size=2),
)

DEEP = "[" * 200_000 + "]" * 200_000  # deeper than json.loads can go
# Holds the deep value's place until the document is text, because
# json.dumps cannot write the deep value either.
DEEP_MARK = "deeply nested value"


def _positions(value: object, path: tuple = ()):
    """The path of *value* and of every value inside it."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _positions(child, (*path, key))


def _mutated(text: str, json_lines: bool, data) -> str:
    kind = data.draw(st.sampled_from(["drop", "retype", "cut", "deep"]))
    if kind == "cut":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    # A JSON-lines file is mutated as the list of its lines' values.
    document = [json.loads(line) for line in text.splitlines()] if json_lines else json.loads(text)
    positions = [p for p in _positions(document) if p or not json_lines]
    if kind == "drop":
        positions = [p for p in positions if p]
    path = data.draw(st.sampled_from(positions))
    value = DEEP_MARK if kind == "deep" else data.draw(RETYPED) if kind == "retype" else None
    if not path:
        document = value
    else:
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    if json_lines:
        text = "".join(json.dumps(entry) + "\n" for entry in document)
    else:
        text = json.dumps(document)
    return text.replace(json.dumps(DEEP_MARK), DEEP)


@pytest.fixture(scope="module")
def clean_traces(mini_paths, replay_store_path, tmp_path_factory) -> Path:
    output = tmp_path_factory.mktemp("clean")
    assert main(run_args(mini_paths, replay_store_path, output)) == 0
    return output / "traces.jsonl"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_2_or_3(mini_paths, replay_store_path, clean_traces, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        sources = {key: mini_paths[name] for key, name in FILES.items()}
        sources["replay_store"] = replay_store_path
        manifest = {key: str(root / path.name) for key, path in sources.items()}
        manifest.update(databases=str(mini_paths["databases"]), backend="replay",
                        oracle="none", shots=5, workers=1)
        texts = {key: path.read_text(encoding="utf-8") for key, path in sources.items()}
        texts["manifest"] = json.dumps(manifest)
        target = data.draw(st.sampled_from(sorted(texts)))
        texts[target] = _mutated(texts[target], target in JSON_LINES, data)
        for key, text in texts.items():
            path = root / "manifest.json" if key == "manifest" else Path(manifest[key])
            path.write_text(text, encoding="utf-8")

        given_manifest = ["--manifest", str(root / "manifest.json")]
        assert main(["run", *given_manifest, "--output", str(root / "run")]) in (0, 2, 3)
        assert main(["evaluate", str(clean_traces), *given_manifest,
                     "--report-out", str(root / "report.json")]) in (0, 2, 3)
