from __future__ import annotations

import argparse
import json
import re
from dataclasses import fields

import pytest

from sqlmend.cli import RunManifest, _make_backend, build_parser, main
from sqlmend.pipeline import PipelineConfig

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


class TestHttpInFlightCap:
    @pytest.mark.parametrize("backend, workers, cap", [
        ("http", 1, 2), ("http", 3, 6), ("record", 4, 8), ("http", 0, 2),
    ])
    def test_two_completions_per_worker(self, tmp_path, backend, workers, cap):
        manifest = RunManifest(
            backend=backend, base_url="http://model.local/v1", model="m",
            replay_store=str(tmp_path / "s.jsonl"), config=PipelineConfig(workers=workers),
        )
        built = _make_backend(manifest)
        http = built.inner if backend == "record" else built
        assert http.config.max_in_flight == cap
        assert all(http._gate.acquire(blocking=False) for _ in range(cap))
        assert not http._gate.acquire(blocking=False)
        assert built._pool is http._pool


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


class TestLinkCommand:
    def test_replay_linking(self, mini_paths, replay_store_path, capsys):
        code = main(
            [
                "link",
                "How many singers are there?",
                "talent_show",
                "--sql", "SELECT count(*) FROM singer",
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--pool", str(mini_paths["pool"]),
                "--pool-alignments", str(mini_paths["pool_alignments"]),
                "--backend", "replay",
                "--replay-store", str(replay_store_path),
                "--format", "json",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert {"token": "singers", "schema": "singer", "type": "tbl"} in records


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
