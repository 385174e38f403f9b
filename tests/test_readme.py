"""The README's library quickstart runs as written, on the mini benchmark,
and each test its Guarantees section names exists (read from the test files'
source, running nothing)."""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

from sqlmend.backends import RecordingBackend, ReplayStore
from sqlmend.datasets import load_dataset
from sqlmend.pipeline import MendPipeline, PipelineConfig
from sqlmend.retrieval import build_index, load_demonstration_pool
from sqlmend.schema import load_tables_json
from sqlmend.sql_analysis import extract_skeleton

from support.mini import ScriptedBackend

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
NODE_ID = re.compile(r"`(tests/[\w/]+\.py(?:::\w+)+)`")


def _quickstart_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_prints_the_first_final_skeleton(
    mini_paths, tmp_path, monkeypatch, capsys
):
    shutil.copy(mini_paths["tables"], tmp_path / "tables.json")
    shutil.copy(mini_paths["pool"], tmp_path / "train.json")
    shutil.copy(mini_paths["dataset"], tmp_path / "dev.json")
    monkeypatch.chdir(tmp_path)
    # Record the store in the quickstart's own configuration, so that its
    # replay finds every prompt.
    pool = load_demonstration_pool("train.json")
    recorded = MendPipeline(
        catalogs={c.db_id: c for c in load_tables_json("tables.json")},
        pool=pool,
        index=build_index(pool),
        backend=RecordingBackend(ScriptedBackend(), ReplayStore("store.jsonl")),
        config=PipelineConfig(shots=5),
    ).run(load_dataset("dev.json"))

    namespace: dict = {}
    exec(compile(_quickstart_code(), str(README), "exec"), namespace)

    first = namespace["traces"][0]
    assert first.to_dict() == recorded[0].to_dict()
    assert capsys.readouterr().out == f"{extract_skeleton(first.final_sql)}\n"


def _guarantees() -> list[str]:
    """The bullets of the README's Guarantees section, each on one line."""
    section = README.read_text(encoding="utf-8").split("\n## Guarantees\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [" ".join(bullet.split()) for bullet in section.split("\n- ")[1:]]


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the test file at *path* defines the class and function path
    *names*, such as ``["TestRun", "test_x"]``."""
    body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return isinstance(found[0], ast.FunctionDef) and names[-1].startswith("test_")


def test_every_guarantee_names_a_test_or_says_it_is_unpinned():
    guarantees = _guarantees()
    assert len(guarantees) >= 10
    for guarantee in guarantees:
        assert NODE_ID.search(guarantee) or "unpinned" in guarantee, guarantee


@pytest.mark.parametrize(
    "node_id", sorted({node_id for line in _guarantees() for node_id in NODE_ID.findall(line)})
)
def test_named_test_exists(node_id):
    path, *names = node_id.split("::")
    assert (REPO / path).is_file(), node_id
    assert _defines(REPO / path, names), node_id
