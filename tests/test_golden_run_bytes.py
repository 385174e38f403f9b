"""Replay traces and the report do not change by one byte.

The mini benchmark is recorded with the scripted model under every oracle
mode, then replayed through ``sqlmend run --oracle <mode>`` and scored with
``sqlmend evaluate``. The hashes below were computed once, before the code
they guard was changed, and are never re-derived from the code under test.
The report is hashed over its ten original keys only, so that a key added
later leaves these hashes alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from sqlmend.pipeline import ORACLE_MODES

from support.mini import record_store, replay_and_evaluate

REPORT_KEYS = (
    "record_count", "ex_accuracy", "ex_accuracy_initial", "ex_delta", "skeleton_accuracy",
    "parsed_skeleton_accuracy", "error_histogram", "linking_scores", "per_hardness",
    "invalid_gold",
)

# oracle mode -> (sha256 of traces.jsonl, sha256 of the report's REPORT_KEYS)
GOLDEN = {
    "none": (
        "7b5cda08567a3115399010f9722167afe6b01b2e71ab515d2ec9a6eef5af891d",
        "07bf5c67e6ddeb00521ddc4a095b044a58090c90910920014f2e855bbdcde266",
    ),
    "entities": (
        "b49e47f2daf1540c1c9ebecdb474646df5120c0c864ce08fa1bf16fa893d63eb",
        "3942cc7f6275cd59e3b456229496d589538a37a1d22a7a2c9b1244cfc0f20311",
    ),
    "skeleton": (
        "8a19c5e1460f9fd0ffa2d2785a5c746701b8e445ee7998810ab7676e1c2dbfcd",
        "07bf5c67e6ddeb00521ddc4a095b044a58090c90910920014f2e855bbdcde266",
    ),
    "both": (
        "bda539eea1334e831d00bd8236f79d5fb71fbe5d0aecf64bb352ba45581d1944",
        "3942cc7f6275cd59e3b456229496d589538a37a1d22a7a2c9b1244cfc0f20311",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_sha256(report: bytes) -> str:
    """The hash of ``report.json`` restricted to ``REPORT_KEYS``, written the
    way ``sqlmend evaluate`` writes it."""
    restricted = {key: json.loads(report)[key] for key in REPORT_KEYS}
    return _sha256((json.dumps(restricted, indent=2, sort_keys=True) + "\n").encode())


@pytest.fixture(scope="module")
def all_modes_store(mini_paths, mini_env, tmp_path_factory):
    return record_store(mini_env, tmp_path_factory.mktemp("golden") / "store.jsonl")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("oracle", ORACLE_MODES)
def test_replay_traces_and_report_bytes(mini_paths, all_modes_store, tmp_path, oracle, workers):
    traces, report = replay_and_evaluate(
        mini_paths, all_modes_store, tmp_path / "out", oracle, "--workers", workers
    )
    assert (_sha256(traces), report_sha256(report)) == GOLDEN[oracle]
