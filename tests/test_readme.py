"""The README's library quickstart runs as written, on the mini benchmark."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from sqlmend.backends import RecordingBackend, ReplayStore
from sqlmend.datasets import load_dataset
from sqlmend.pipeline import MendPipeline, PipelineConfig
from sqlmend.retrieval import build_index, load_demonstration_pool
from sqlmend.schema import load_tables_json
from sqlmend.sql_analysis import extract_skeleton

from support.mini import ScriptedBackend

README = Path(__file__).resolve().parent.parent / "README.md"


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
