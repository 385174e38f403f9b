"""What a command loads: replaying and evaluating never import the HTTP
client, which only ``HttpBackend`` uses.

The check runs in a fresh interpreter, because this one has already
imported ``requests`` for the HTTP backend's tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import sqlmend

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
