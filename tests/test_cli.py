from __future__ import annotations

import argparse
import json
import re
from dataclasses import fields
from json import dumps
from types import SimpleNamespace

import pytest
import requests

from sqlmend.backends import ModelRequest
from sqlmend.cli import RunManifest, build_parser, main
from sqlmend.pipeline import PipelineConfig

from support.mini import ScriptedBackend

pytestmark = pytest.mark.usefixtures("replay_store_path")


def _run_args(mini_paths, replay_store_path, output, extra=()):
    return [
        "run",
        "--dataset", str(mini_paths["dataset"]),
        "--databases", str(mini_paths["databases"]),
        "--tables", str(mini_paths["tables"]),
        "--pool", str(mini_paths["pool"]),
        "--alignments", str(mini_paths["dataset_alignments"]),
        "--pool-alignments", str(mini_paths["pool_alignments"]),
        "--backend", "replay",
        "--replay-store", str(replay_store_path),
        "--output", str(output),
        *extra,
    ]


class TestRun:
    def test_replay_run_writes_traces_and_manifest(
        self, mini_paths, replay_store_path, tmp_path, capsys
    ):
        output = tmp_path / "out"
        assert main(_run_args(mini_paths, replay_store_path, output)) == 0
        traces = (output / "traces.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(traces) == 10
        manifest = json.loads((output / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend"] == "replay"
        assert manifest["dataset"].endswith("dataset.json")
        captured = capsys.readouterr()
        assert "wrote 10 traces" in captured.out

    def test_missing_fixture_exits_with_listing(
        self, mini_paths, tmp_path, capsys
    ):
        empty_store = tmp_path / "empty.jsonl"
        empty_store.write_text("", encoding="utf-8")
        output = tmp_path / "out"
        code = main(_run_args(mini_paths, empty_store, output))
        assert code == 3
        assert "fixture missing" in capsys.readouterr().err

    def test_unreadable_store_line_exits_with_usage_code(self, mini_paths, tmp_path, capsys):
        store = tmp_path / "corrupt.jsonl"
        store.write_text("not json\n{}\n", encoding="utf-8")
        assert main(_run_args(mini_paths, store, tmp_path / "out")) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("response_text", 5), ("response_text", ["x"]), ("response_text", None),
        ("prompt_sha256", 5), ("backend_id", 5),
    ])
    def test_store_field_of_the_wrong_type_exits_2_naming_the_line(
        self, mini_paths, replay_store_path, tmp_path, capsys, key, value
    ):
        # An int response text used to end in an AttributeError traceback,
        # and a null one in "fixture missing" for a recorded hash.
        lines = replay_store_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record[key] = value
        lines[1] = json.dumps(record)
        store = tmp_path / "store.jsonl"
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(_run_args(mini_paths, store, tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {store}: line 2 is not a replay record: {key} must be "
        )

    def test_bad_dataset_path_nonzero(self, mini_paths, replay_store_path, tmp_path, capsys):
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out")
        args[args.index("--dataset") + 1] = str(tmp_path / "missing.json")
        assert main(args) != 0

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_databases_not_a_directory_exits_2_naming_it(
        self, mini_paths, replay_store_path, tmp_path, capsys, command, kind
    ):
        # A missing directory used to turn the execution channel off silently.
        databases = tmp_path / "databases"
        if kind == "file":
            databases.write_text("", encoding="utf-8")
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out")
        args[args.index("--databases") + 1] = str(databases)
        if command == "evaluate":
            traces = tmp_path / "traces.jsonl"
            traces.write_text("", encoding="utf-8")
            args = ["evaluate", str(traces), "--dataset", str(mini_paths["dataset"]),
                    "--tables", str(mini_paths["tables"]), "--databases", str(databases)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {databases}: not a directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("question", [5, "   "])
    def test_untokenizable_question_exits_2_naming_the_entry(
        self, mini_paths, replay_store_path, tmp_path, capsys, question
    ):
        records = json.loads(mini_paths["dataset"].read_text(encoding="utf-8"))
        records[3]["question"] = question
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(records), encoding="utf-8")
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out")
        args[args.index("--dataset") + 1] = str(dataset)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {dataset}: entry 3: question ")

    @pytest.mark.parametrize("flag", ["--tables", "--dataset"])
    def test_input_not_given_exits_2(self, mini_paths, replay_store_path, tmp_path, capsys, flag):
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out")
        at = args.index(flag)
        del args[at:at + 2]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {flag} is required\n"

    @pytest.mark.parametrize("flags, manifest, message", [
        (["--backend", "replay"], None, "replay backend requires --replay-store"),
        (["--backend", "http"], None, "http backend requires --base-url and --model"),
        (["--backend", "record", "--base-url", "http://model.invalid/v1", "--model", "m"], None,
         "record backend requires --replay-store"),
        ([], {"backend": "carrier-pigeon"}, "unknown backend 'carrier-pigeon'"),
    ])
    def test_backend_settings_refused_exit_2(
        self, mini_paths, tmp_path, capsys, flags, manifest, message
    ):
        args = _run_args(mini_paths, "", tmp_path / "out")
        at = args.index("--replay-store")
        del args[at:at + 2]
        at = args.index("--backend")
        del args[at:at + 2]
        if manifest is not None:
            manifest_path = tmp_path / "manifest.json"
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            flags = [*flags, "--manifest", str(manifest_path)]
        assert main([*args, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_oracle_flag(self, mini_paths, replay_store_path, tmp_path):
        output = tmp_path / "oracle_out"
        code = main(
            _run_args(mini_paths, replay_store_path, output, extra=["--oracle", "both"])
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in (output / "traces.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert all(r["hallucinated_sql"] is None for r in records)

    def test_manifest_copy_reproduces_run_byte_identically(
        self, mini_paths, replay_store_path, tmp_path
    ):
        first = tmp_path / "first"
        assert main(_run_args(mini_paths, replay_store_path, first)) == 0
        second = tmp_path / "second"
        code = main(
            [
                "run",
                "--manifest", str(first / "manifest.json"),
                "--output", str(second),
            ]
        )
        assert code == 0
        assert (second / "traces.jsonl").read_bytes() == (
            first / "traces.jsonl"
        ).read_bytes()

    def test_manifest_file_with_flag_override(
        self, mini_paths, replay_store_path, tmp_path
    ):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "dataset": str(mini_paths["dataset"]),
                    "databases": str(mini_paths["databases"]),
                    "tables": str(mini_paths["tables"]),
                    "pool": str(mini_paths["pool"]),
                    "alignments": str(mini_paths["dataset_alignments"]),
                    "pool_alignments": str(mini_paths["pool_alignments"]),
                    "backend": "http",
                    "replay_store": str(replay_store_path),
                    "output": str(tmp_path / "ignored"),
                }
            ),
            encoding="utf-8",
        )
        output = tmp_path / "override_out"
        # flags win: backend http in the file, replay on the command line
        code = main(
            [
                "run",
                "--manifest", str(manifest_path),
                "--backend", "replay",
                "--output", str(output),
            ]
        )
        assert code == 0
        assert (output / "traces.jsonl").exists()


class TestInputNotUtf8:
    """A byte that is not UTF-8 in any input file is a malformed input."""

    @pytest.mark.parametrize("route", [
        "tables", "dataset", "pool", "dataset_alignments", "pool_alignments",
        "manifest", "traces",
    ])
    def test_exits_2_naming_the_file(self, mini_paths, replay_store_path, tmp_path, capsys,
                                     route):
        paths = dict(mini_paths)
        bad = tmp_path / f"{route}.bad"
        if route == "manifest":
            data = b'{"shots": 5}'
        elif route == "traces":
            data = b'{"example_id": "0", "final_sql": "SELECT 1"}\n'
        else:
            data, paths[route] = paths[route].read_bytes(), bad
        middle = len(data) // 2
        bad.write_bytes(data[:middle] + b"\xff\xfe" + data[middle:])
        if route == "traces":
            argv = ["evaluate", str(bad), "--dataset", str(paths["dataset"]),
                    "--tables", str(paths["tables"])]
        else:
            argv = _run_args(paths, replay_store_path, tmp_path / "out")
            if route == "manifest":
                argv += ["--manifest", str(bad)]
        assert main(argv) == 2
        assert f"error: {bad}" in capsys.readouterr().err


DEEP = b"[" * 200_000 + b"]" * 200_000  # deeper than json.loads can go


class TestInputNestedTooDeep:
    """A JSON value nested deeper than the decoder can go, in any input
    file, is a malformed input that names the file and, in a JSON-lines
    file, the line."""

    @pytest.mark.parametrize("route, line", [
        ("tables", None), ("dataset", None), ("pool", None), ("dataset_alignments", 2),
        ("pool_alignments", 2), ("manifest", None), ("traces", 1), ("replay_store", 2),
    ])
    def test_exits_2_naming_the_file(self, mini_paths, replay_store_path, tmp_path, capsys,
                                     route, line):
        paths, store = dict(mini_paths), replay_store_path
        bad = tmp_path / f"{route}.bad"
        if route == "manifest":
            data = b'{"shots": ' + DEEP + b"}"
        elif route == "traces":
            data = b'{"example_id": "0", "final_sql": "SELECT 1", "rounds": ' + DEEP + b"}\n"
        elif route == "replay_store":
            first, rest = store.read_bytes().split(b"\n", 1)
            data, store = first + b"\n" + DEEP + b"\n" + rest, bad
        elif line is None:  # a JSON array, whose first entry becomes the deep value
            data = b"[" + DEEP + b", " + paths[route].read_bytes().lstrip()[1:]
            paths[route] = bad
        else:  # a JSON-lines sidecar, whose line 2 becomes the deep value
            lines = paths[route].read_bytes().split(b"\n")
            lines[1] = DEEP
            data, paths[route] = b"\n".join(lines), bad
        bad.write_bytes(data)
        if route == "traces":
            argv = ["evaluate", str(bad), "--dataset", str(paths["dataset"]),
                    "--tables", str(paths["tables"])]
        else:
            argv = _run_args(paths, store, tmp_path / "out")
            if route == "manifest":
                argv += ["--manifest", str(bad)]
        assert main(argv) == 2
        named = f"error: {bad}" if line is None else f"error: {bad}: line {line}"
        assert named in capsys.readouterr().err


class TestEvaluate:
    @pytest.fixture()
    def trace_dir(self, mini_paths, replay_store_path, tmp_path):
        output = tmp_path / "run_out"
        assert main(_run_args(mini_paths, replay_store_path, output)) == 0
        return output

    def test_report_written_and_summary_printed(self, mini_paths, trace_dir, capsys):
        code = main(
            [
                "evaluate", str(trace_dir / "traces.jsonl"),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--alignments", str(mini_paths["dataset_alignments"]),
            ]
        )
        assert code == 0
        report = json.loads((trace_dir / "report.json").read_text(encoding="utf-8"))
        assert report["ex_accuracy"] == 0.9
        assert report["ex_accuracy_initial"] == 0.5
        out = capsys.readouterr().out
        assert "EX (final SQL)" in out
        assert "error histogram" in out

    def test_text_report_prints_the_per_hardness_block(
        self, mini_paths, trace_dir, tmp_path, capsys
    ):
        records = json.loads(mini_paths["dataset"].read_text(encoding="utf-8"))
        for index, record in enumerate(records):
            record["hardness"] = "hard" if index < 4 else "easy"
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(records), encoding="utf-8")
        code = main(
            [
                "evaluate", str(trace_dir / "traces.jsonl"),
                "--dataset", str(dataset),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--report-out", str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["per_hardness"] == {
            "easy": {"count": 6, "ex_initial": 3, "ex_final": 6},
            "hard": {"count": 4, "ex_initial": 2, "ex_final": 3},
        }
        out = capsys.readouterr().out
        assert (
            "per-hardness EX (initial/final of count):\n"
            "  easy         3/6 -> 6/6\n"
            "  hard         2/4 -> 3/4\n"
        ) in out

    def test_unknown_db_id_is_listed_in_invalid_gold(
        self, mini_paths, replay_store_path, tmp_path, capsys
    ):
        records = json.loads(mini_paths["dataset"].read_text(encoding="utf-8"))
        records[3]["db_id"] = "zzz"
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(records), encoding="utf-8")
        output = tmp_path / "out"
        paths = {**mini_paths, "dataset": dataset}
        assert main(_run_args(paths, replay_store_path, output)) == 0
        code = main(
            [
                "evaluate", str(output / "traces.jsonl"),
                "--dataset", str(dataset),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code == 0
        report = json.loads((output / "report.json").read_text(encoding="utf-8"))
        assert report["invalid_gold"] == ["3"]
        assert report["record_count"] == 9

    def test_json_format_is_parseable(self, mini_paths, trace_dir, capsys):
        code = main(
            [
                "evaluate", str(trace_dir / "traces.jsonl"),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--format", "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["record_count"] == 10
        assert "report written to" in captured.err

    def test_json_error_histogram(self, mini_paths, trace_dir, capsys):
        code = main(
            [
                "evaluate", str(trace_dir / "traces.jsonl"),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--format", "json",
            ]
        )
        assert code == 0
        histogram = json.loads(capsys.readouterr().out)["error_histogram"]
        assert set(histogram) == {"initial", "final"}
        assert histogram["initial"]["column_error"] == 3
        assert histogram["initial"]["skeleton_error"] == 2
        assert histogram["initial"]["execution_error"] == 1
        assert all(count == 0 for count in histogram["final"].values())

    def test_empty_traces_file(self, mini_paths, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        traces.write_text("", encoding="utf-8")
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["record_count"] == 0
        assert report["ex_accuracy"] is None

    @pytest.mark.parametrize("bad_line", [
        "{not json",
        "[1, 2]",
        '{"example_id": "1", "initial_sql": 5}',
        '{"example_id": "1", "final_sql": ["x"]}',
        '{"example_id": ["x"]}',
        '{"initial_sql": "SELECT 1"}',
        '{"example_id": "1", "parsed_skeleton": 3}',
        '{"example_id": "1", "alignment": {"token": "a"}}',
    ])
    def test_malformed_trace_line_exits_2_naming_it(self, mini_paths, tmp_path, capsys, bad_line):
        traces = tmp_path / "traces.jsonl"
        good = json.dumps({"example_id": "0", "initial_sql": "", "final_sql": ""})
        traces.write_text(f"{good}\n{bad_line}\n", encoding="utf-8")
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {traces}: line 2: ")

    def test_repeated_example_id_exits_2_naming_both_lines(self, mini_paths, tmp_path, capsys):
        # A repeated trace used to be scored twice, so it counted twice in EX.
        traces = tmp_path / "traces.jsonl"
        lines = [json.dumps({"example_id": i, "initial_sql": "", "final_sql": ""})
                 for i in ("0", "1", "0")]
        traces.write_text(f"{lines[0]}\n{lines[1]}\n\n{lines[2]}\n", encoding="utf-8")
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {traces}: lines 1 and 4 share example_id '0'\n"
        )
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("db_id", 5, "entry 1: db_id must be a non-blank string, not 5"),
        ("db_id", "  ", "entry 1: db_id must be a non-blank string, not '  '"),
        ("db_id", None, "entry 1: db_id must be a non-blank string, not None"),
        ("table_names_original", None,
         "entry 1 (market): table_names_original must be a list, not None"),
        ("column_names_original", {"0": "idx_name"},
         "entry 1 (market): column_names_original must be a list, not {'0': 'idx_name'}"),
        ("column_types", "text", "entry 1 (market): column_types must be a list, not 'text'"),
        ("primary_keys", 0, "entry 1 (market): primary_keys must be a list, not 0"),
        ("foreign_keys", None, "entry 1 (market): foreign_keys must be a list, not None"),
        # Names that are not strings used to reach str.lower.
        ("table_names_original", [5],
         "entry 1 (market): table name 0 must be a string, not 5"),
        ("column_names_original", [[-1, "*"], [0, 7], [0, "earnings"], [0, "volume"]],
         "entry 1 (market): column entry 1 is not a [table index, name] pair"),
        ("column_names_original", [[-1, "*"], ["0", "idx_name"], [0, "earnings"], [0, "volume"]],
         "entry 1 (market): column entry 1 is not a [table index, name] pair"),
    ])
    def test_tables_json_field_of_the_wrong_type_exits_2_naming_the_entry(
        self, mini_paths, tmp_path, capsys, key, value, message
    ):
        # A null table list used to raise a bare TypeError, and an int db_id
        # loaded as a catalog keyed by the int.
        entries = json.loads(mini_paths["tables"].read_text(encoding="utf-8"))
        entries[1][key] = value
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(entries), encoding="utf-8")
        traces = tmp_path / "traces.jsonl"
        traces.write_text(
            json.dumps({"example_id": "0", "initial_sql": "", "final_sql": ""}) + "\n",
            encoding="utf-8",
        )
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(tables),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {tables}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        # A lenient rebuild used to drop the 1 and move every later entry up
        # one token index, scoring the linking instead of refusing it.
        (lambda t: t["alignment"].insert(0, 1), "alignment[0] must be an object, not 1"),
        (lambda t: t.update(rounds=[t["rounds"][0], "skeleton_mismatch"]),
         "rounds[1] must be an object, not 'skeleton_mismatch'"),
        (lambda t: t["rounds"][0]["feedback"].update(kind="execution_error"),
         "rounds[0].feedback: inconsistent feedback fields for kind 'execution_error'"),
    ], ids=["alignment-record-not-an-object", "round-not-an-object", "feedback-contradicts-kind"])
    def test_trace_run_cannot_write_exits_2_naming_line_and_field(
        self, mini_paths, trace_dir, tmp_path, capsys, edit, message
    ):
        lines = (trace_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        assert first["alignment"] and len(first["rounds"]) == 2
        edit(first)
        traces = tmp_path / "traces.jsonl"
        traces.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--alignments", str(mini_paths["dataset_alignments"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {traces}: line 1: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_unknown_ids_nonzero(self, mini_paths, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        traces.write_text(
            json.dumps({"example_id": "999", "initial_sql": "", "final_sql": ""}) + "\n",
            encoding="utf-8",
        )
        code = main(
            [
                "evaluate", str(traces),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
            ]
        )
        assert code != 0
        assert "999" in capsys.readouterr().err


class _ScriptedSession:
    """Stands in for ``requests.Session``: answers each chat-completions POST
    with the mini benchmark's scripted model, and counts the POSTs."""

    posts = 0

    def __init__(self):
        self.model = ScriptedBackend()

    def post(self, url, json=None, headers=None, timeout=None):
        type(self).posts += 1
        prompt = json["messages"][0]["content"]
        answer = {"choices": [{"message": {"content": self.model.complete(
            ModelRequest(prompt=prompt)).text}}]}
        return SimpleNamespace(status_code=200, headers={}, content=dumps(answer).encode())


class TestLiveBackends:
    """The ``http`` and ``record`` routes of ``_make_backend``, over a fake
    session: no request leaves the process."""

    def test_record_replay_and_http_write_the_same_traces(
        self, mini_paths, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(requests, "Session", _ScriptedSession)
        monkeypatch.setattr(_ScriptedSession, "posts", 0)
        store = tmp_path / "store.jsonl"
        live = ["--base-url", "http://model.invalid/v1", "--model", "scripted"]

        def run(name, *flags):
            args = _run_args(mini_paths, store, tmp_path / name, flags)
            if name == "http":  # a live run with no store
                at = args.index("--replay-store")
                del args[at:at + 2]
                assert str(store) not in args
            assert main(args) == 0
            return (tmp_path / name / "traces.jsonl").read_bytes()

        recorded = run("record", "--backend", "record", *live)
        recorded_posts = _ScriptedSession.posts
        assert recorded_posts > 0
        assert len(store.read_text(encoding="utf-8").splitlines()) == recorded_posts
        assert run("replay") == recorded
        assert _ScriptedSession.posts == recorded_posts
        assert run("http", "--backend", "http", *live) == recorded
        assert _ScriptedSession.posts == 2 * recorded_posts


class TestSkeletonCommand:
    def test_prints_skeleton(self, capsys):
        assert main(["skeleton", "SELECT name FROM singer WHERE age > 20"]) == 0
        assert capsys.readouterr().out.strip() == "SELECT _ FROM _ WHERE _ > _"

    def test_json_format(self, capsys):
        assert main(["skeleton", "SELECT 1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skeleton"] == "SELECT _"

    def test_empty_sql_nonzero(self, capsys):
        assert main(["skeleton", ""]) != 0


def _link_args(mini_paths, store, output_format):
    """``sqlmend link`` on a mini question and its draft, replayed from
    *store*."""
    return [
        "link",
        "How many singers are there?",
        "talent_show",
        "--sql", "SELECT count(*) FROM singer",
        "--databases", str(mini_paths["databases"]),
        "--tables", str(mini_paths["tables"]),
        "--pool", str(mini_paths["pool"]),
        "--pool-alignments", str(mini_paths["pool_alignments"]),
        "--backend", "replay",
        "--replay-store", str(store),
        "--format", output_format,
    ]


class TestLinkCommand:
    def test_replay_linking(self, mini_paths, replay_store_path, capsys):
        code = main(_link_args(mini_paths, replay_store_path, "json"))
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert {"token": "singers", "schema": "singer", "type": "tbl"} in records

    def test_text_format_prints_one_line_per_token(self, mini_paths, replay_store_path, capsys):
        assert main(_link_args(mini_paths, replay_store_path, "json")) == 0
        records = json.loads(capsys.readouterr().out)
        assert main(_link_args(mini_paths, replay_store_path, "text")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            token, linked = line.split(maxsplit=1)
            assert token == record["token"]
            if record["schema"] is None:
                assert linked == "-"
            else:
                assert linked == f"{record['schema']} ({record['type']})"
        assert any(line.split()[-1] == "-" for line in lines)
        assert "singers              singer (tbl)" in lines

    def test_answer_with_no_alignment_list_exits_1(
        self, mini_paths, replay_store_path, tmp_path, capsys
    ):
        store = tmp_path / "prose.jsonl"
        with store.open("w", encoding="utf-8") as out:
            for line in replay_store_path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if record["prompt_text"].startswith("Align the tokens"):
                    record["response_text"] = "Sorry, I cannot align these tokens."
                out.write(json.dumps(record) + "\n")
        assert main(_link_args(mini_paths, store, "text")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entity linking failed" in captured.err
        assert "no decodable alignment list" in captured.err


    def test_replay_store_miss_exits_3_naming_the_prompt(
        self, mini_paths, replay_store_path, tmp_path, capsys
    ):
        # The linking prompt's hash, as the full store records it.
        lines = replay_store_path.read_text(encoding="utf-8").splitlines()
        [digest] = [
            record["prompt_sha256"] for record in map(json.loads, lines)
            if record["prompt_text"].startswith("Align the tokens")
            and record["prompt_text"].endswith("Question: How many singers are there ?\nAlignments:")
        ]
        empty_store = tmp_path / "empty.jsonl"
        empty_store.write_text("", encoding="utf-8")
        assert main(_link_args(mini_paths, empty_store, "json")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fixture missing from replay store: {digest}\n"

    def test_unknown_db_id_exits_2_naming_it(self, mini_paths, replay_store_path, capsys):
        args = _link_args(mini_paths, replay_store_path, "json")
        args[args.index("talent_show")] = "no_such_db"
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown db_id 'no_such_db'\n"

    def test_no_pool_links_zero_shot(self, mini_paths, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(requests, "Session", _ScriptedSession)
        store = tmp_path / "store.jsonl"
        args = _link_args(mini_paths, store, "json")
        at = args.index("--pool")
        del args[at:at + 4]  # --pool and --pool-alignments
        args[args.index("replay")] = "record"
        args += ["--base-url", "http://model.invalid/v1", "--model", "scripted"]
        assert main(args) == 0
        records = json.loads(capsys.readouterr().out)
        assert {"token": "singers", "schema": "singer", "type": "tbl"} in records
        [line] = store.read_text(encoding="utf-8").splitlines()
        prompt = json.loads(line)["prompt_text"]
        assert prompt.count("Question: ") == 1
        assert prompt.endswith("\nSQL: SELECT count(*) FROM singer"
                               "\nQuestion: How many singers are there ?\nAlignments:")


class TestSettings:
    def test_manifest_of_the_earlier_shape_reproduces_its_run(
        self, mini_paths, replay_store_path, tmp_path
    ):
        # The 18 keys manifests had while RunManifest copied the pipeline's
        # settings, with the oracle spelled the old way.
        legacy = {
            "dataset": str(mini_paths["dataset"]),
            "databases": str(mini_paths["databases"]),
            "tables": str(mini_paths["tables"]),
            "pool": str(mini_paths["pool"]),
            "alignments": str(mini_paths["dataset_alignments"]),
            "pool_alignments": str(mini_paths["pool_alignments"]),
            "backend": "replay",
            "replay_store": str(replay_store_path),
            "output": str(tmp_path / "legacy"),
            "workers": 1,
            "shots": 5,
            "oracle": "oracle_both",
            "max_execution_retries": 1,
            "demonstration_order": "nearest-last",
            "temperature": 0.0,
            "max_output_tokens": 512,
            "base_url": "",
            "model": "",
        }
        manifest_path = tmp_path / "legacy.json"
        manifest_path.write_text(json.dumps(legacy), encoding="utf-8")
        assert main(["run", "--manifest", str(manifest_path)]) == 0
        flagged = tmp_path / "flagged"
        assert main(
            _run_args(mini_paths, replay_store_path, flagged, extra=["--oracle", "both"])
        ) == 0
        assert (tmp_path / "legacy" / "traces.jsonl").read_bytes() == (
            flagged / "traces.jsonl"
        ).read_bytes()
        written = json.loads((tmp_path / "legacy" / "manifest.json").read_text(encoding="utf-8"))
        assert written["oracle"] == "both"
        assert set(written) == set(legacy)

    @pytest.mark.parametrize("flags, manifest, key", [
        (["--shots", "-1"], None, "shots"),
        ([], {"oracle": "sideways"}, "oracle"),
        ([], {"workers": "2"}, "workers"),
        ([], {"shots": "0"}, "shots"),
        ([], {"shots": True}, "shots"),
        ([], {"temperature": None}, "temperature"),
        ([], {"temperature": -1.0}, "temperature"),
        ([], {"shot": 3}, "shot"),
        ([], {"resolved": {}}, "resolved"),
        ([], {"config": {"shots": 1}}, "config"),
    ])
    def test_bad_setting_exits_2_naming_it(
        self, mini_paths, replay_store_path, tmp_path, capsys, flags, manifest, key
    ):
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out", extra=flags)
        if manifest is not None:
            manifest_path = tmp_path / "manifest.json"
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            args += ["--manifest", str(manifest_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(rf"\b{key}\b", err)
        assert not (tmp_path / "out" / "traces.jsonl").exists()

    @pytest.mark.parametrize("flags, manifest, message", [
        (["--workers", "-1"], None, "workers must be >= 0"),
        ([], {"max_output_tokens": 0}, "max_output_tokens must be >= 1"),
    ])
    def test_negative_workers_and_no_output_tokens_exit_2(
        self, mini_paths, replay_store_path, tmp_path, capsys, flags, manifest, message
    ):
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out", extra=flags)
        if manifest is not None:
            manifest_path = tmp_path / "manifest.json"
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            args += ["--manifest", str(manifest_path)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_manifest_not_an_object_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text("[]", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest_path)]) == 2
        assert capsys.readouterr().err == f"error: {manifest_path}: expected a JSON object\n"

    def test_int_for_a_float_setting_read_as_float(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text('{"temperature": 1}', encoding="utf-8")
        args = build_parser().parse_args(["run", "--manifest", str(manifest_path)])
        temperature = RunManifest.from_args(args).config.temperature
        assert (type(temperature), temperature) == (float, 1.0)

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest_path)]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_classes_share_no_field(self):
        run = {f.name for f in fields(RunManifest)}
        assert not run & {f.name for f in fields(PipelineConfig)}

    @pytest.mark.parametrize("command", ["run", "link"])
    def test_every_setting_flag_names_one_field(self, command):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        names = [f.name for f in fields(RunManifest)] + [f.name for f in fields(PipelineConfig)]
        # What one invocation reads, not a setting of the run.
        not_settings = {"help", "manifest", "sql", "format"}
        dests = [
            a.dest for a in commands.choices[command]._actions
            if a.option_strings and a.dest not in not_settings
        ]
        assert dests
        for dest in dests:
            assert names.count(dest) == 1, dest
