"""What a command loads: replaying and evaluating never import the HTTP
client, which only ``HttpBackend`` uses, and the demonstration pool is read
only by a command whose prompts show demonstrations.

The HTTP check runs in a fresh interpreter, because this one has already
imported ``requests`` for the HTTP backend's tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import sqlmend
import sqlmend.cli
from sqlmend.backends import RecordingBackend, ReplayStore
from sqlmend.cli import main

from support.mini import ScriptedBackend, run_args

REPLAY_THEN_EVALUATE = """
import json, sys
from pathlib import Path

import sqlmend
import sqlmend.cli
from sqlmend import HttpBackend

from support.mini import MiniEnv, build_mini_benchmark, record_store, replay_and_evaluate

root = Path(sys.argv[1])
paths = build_mini_benchmark(root)
store = record_store(MiniEnv(paths), root / "store.jsonl", ("none",))
replay_and_evaluate(paths, store, root / "run", "none")
print(json.dumps(sorted(name for name in ("requests", "urllib3") if name in sys.modules)))
"""


def test_replay_and_evaluate_do_not_import_the_http_client(tmp_path):
    source = Path(sqlmend.__file__).parents[1]
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), str(tests)])}
    done = subprocess.run(
        [sys.executable, "-c", REPLAY_THEN_EVALUATE, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_evaluate_manifest_ignores_the_pool_keys(mini_paths, replay_store_path, tmp_path):
    run = tmp_path / "run"
    assert main(run_args(mini_paths, replay_store_path, run)) == 0
    traces = str(run / "traces.jsonl")
    assert main([
        "evaluate", traces, "--report-out", str(tmp_path / "flags.json"),
        "--dataset", str(mini_paths["dataset"]),
        "--alignments", str(mini_paths["dataset_alignments"]),
        "--databases", str(mini_paths["databases"]),
        "--tables", str(mini_paths["tables"]),
    ]) == 0
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest.update(pool=str(tmp_path / "moved.json"),
                    pool_alignments=str(tmp_path / "moved.jsonl"))
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["evaluate", traces, "--manifest", str(run / "manifest.json"),
                 "--report-out", str(tmp_path / "manifest.json")]) == 0
    assert (tmp_path / "manifest.json").read_bytes() == (tmp_path / "flags.json").read_bytes()


def test_zero_shot_run_reads_no_pool(mini_paths, mini_env, tmp_path, monkeypatch):
    store = tmp_path / "store.jsonl"
    recorder = RecordingBackend(ScriptedBackend(), ReplayStore(store))
    mini_env.pipeline(recorder, shots=0).run(mini_env.examples)
    read = []

    def refused(name):
        def call(*args, **kwargs):
            read.append(name)
            raise AssertionError(f"a zero-shot run called {name}")
        return call

    sidecar = sqlmend.cli.load_alignment_sidecar
    def load_sidecar(path, questions):
        read.append(str(path))
        return sidecar(path, questions)

    monkeypatch.setattr(sqlmend.cli, "load_demonstration_pool", refused("load_demonstration_pool"))
    monkeypatch.setattr(sqlmend.cli, "build_index", refused("build_index"))
    monkeypatch.setattr(sqlmend.cli, "load_alignment_sidecar", load_sidecar)
    assert main(run_args(mini_paths, store, tmp_path / "run", "--shots", "0")) == 0
    assert read == [str(mini_paths["dataset_alignments"])]
