from __future__ import annotations

import json

import pytest

from sqlmend.cli import RunManifest, _make_backend, main

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

    def test_bad_dataset_path_nonzero(self, mini_paths, replay_store_path, tmp_path, capsys):
        args = _run_args(mini_paths, replay_store_path, tmp_path / "out")
        args[args.index("--dataset") + 1] = str(tmp_path / "missing.json")
        assert main(args) != 0

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
            workers=workers, replay_store=str(tmp_path / "s.jsonl"),
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
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["record_count"] == 10

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


class TestAnalyzeErrors:
    def test_histogram_printed(self, mini_paths, replay_store_path, tmp_path, capsys):
        output = tmp_path / "out"
        assert main(_run_args(mini_paths, replay_store_path, output)) == 0
        capsys.readouterr()
        code = main(
            [
                "analyze-errors", str(output / "traces.jsonl"),
                "--dataset", str(mini_paths["dataset"]),
                "--databases", str(mini_paths["databases"]),
                "--tables", str(mini_paths["tables"]),
                "--format", "json",
            ]
        )
        assert code == 0
        histogram = json.loads(capsys.readouterr().out)
        assert set(histogram) == {"initial", "final"}
        assert histogram["initial"]["column_error"] == 3
        assert histogram["initial"]["skeleton_error"] == 2
        assert histogram["initial"]["execution_error"] == 1
        assert all(count == 0 for count in histogram["final"].values())
