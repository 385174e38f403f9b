"""Command-line surface: ``run`` the pipeline, ``evaluate`` its traces, and
the ``skeleton`` / ``link`` debugging commands.

Configuration comes from flags with an optional JSON manifest file
(``--manifest``); explicit flags win over manifest values. A manifest is one
flat object whose keys are the fields of ``RunManifest`` and
``PipelineConfig``. API credentials
are read from the environment only (``SQLMEND_API_KEY`` by default), never
from flags. Exit status is nonzero only for infrastructure failures, not for
low accuracy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .backends import (
    HttpBackend,
    HttpBackendConfig,
    ModelBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
)
from .datasets import Example, decode_json, load_alignment_sidecar, load_dataset, read_utf8
from .errors import FixtureMissingError, SqlMendError
from .evaluation import ERROR_CATEGORIES, evaluate_run
from .pipeline import (
    ORACLE_MODES,
    CorrectionTrace,
    MendPipeline,
    PipelineConfig,
    read_traces,
    write_traces,
)
from .retrieval import Bm25Index, Demonstration, build_index, load_demonstration_pool
from .schema import SchemaCatalog, load_database_dir, load_tables_json
from .sql_analysis import extract_skeleton

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FIXTURE_MISSING = 3


# ``oracle`` values as manifests of earlier versions spell them.
_LEGACY_ORACLE = {"oracle_entities": "entities", "oracle_skeleton": "skeleton",
                  "oracle_both": "both"}


@dataclass
class RunManifest:
    """Where a run reads and writes and which model it asks; the pipeline's
    own settings are ``config``."""

    dataset: str = ""
    databases: str = ""
    tables: str = ""
    pool: str = ""
    alignments: str = ""
    pool_alignments: str = ""
    backend: str = "replay"  # http | replay | record
    replay_store: str = ""
    output: str = "runs/latest"
    base_url: str = ""
    model: str = ""
    config: PipelineConfig = field(default_factory=PipelineConfig)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunManifest":
        """The manifest file's keys overridden by the flags given; each key
        sets the field of that name here or in ``PipelineConfig``."""
        values = {}
        if getattr(args, "manifest", None):
            values = decode_json(read_utf8(Path(args.manifest)), args.manifest)
            if not isinstance(values, dict):
                raise SqlMendError(f"{args.manifest}: expected a JSON object")
        own, pipeline = _defaults(cls), _defaults(PipelineConfig)
        defaults = {**own, **pipeline}
        for key in defaults:
            if getattr(args, key, None) is not None:
                values[key] = getattr(args, key)
        for key, value in values.items():
            if key not in defaults:
                raise SqlMendError(f"unknown manifest key {key!r}")
            kind = type(defaults[key])
            if kind is float and type(value) is int:
                values[key] = value = float(value)
            if type(value) is not kind:
                raise SqlMendError(f"{key} must be {kind.__name__}, not {type(value).__name__}")
        if values.get("oracle") in _LEGACY_ORACLE:
            values["oracle"] = _LEGACY_ORACLE[values["oracle"]]
        try:
            config = PipelineConfig(**{k: v for k, v in values.items() if k in pipeline})
        except ValueError as exc:
            raise SqlMendError(str(exc)) from exc
        return cls(**{k: v for k, v in values.items() if k in own}, config=config)

    def resolved(self) -> dict:
        """The flat ``manifest.json`` payload, paths made absolute."""
        payload = asdict(self)
        payload.update(payload.pop("config"))
        for key in ("dataset", "databases", "tables", "pool", "alignments",
                    "pool_alignments", "replay_store", "output"):
            if payload[key]:
                payload[key] = str(Path(payload[key]).resolve())
        return payload


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# One loader per input, so each command reads only what it uses.
def _load_catalogs(manifest: RunManifest) -> dict[str, SchemaCatalog]:
    if not manifest.tables:
        raise SqlMendError("--tables is required")
    catalogs = {c.db_id: c for c in load_tables_json(manifest.tables)}
    if manifest.databases:
        for db_id, path in load_database_dir(manifest.databases).items():
            if db_id in catalogs:
                catalogs[db_id].source_path = path
    return catalogs


def _load_examples(manifest: RunManifest) -> list[Example]:
    if not manifest.dataset:
        raise SqlMendError("--dataset is required")
    examples = load_dataset(manifest.dataset)
    if manifest.alignments:
        sidecar = load_alignment_sidecar(manifest.alignments, [e.question for e in examples])
        for example, alignment in zip(examples, sidecar):
            example.gold_alignment = alignment
    return examples


def _load_pool(manifest: RunManifest) -> tuple[list[Demonstration], Bm25Index | None]:
    """Read only when the prompts show demonstrations (``shots`` > 0)."""
    if not manifest.pool or manifest.config.shots == 0:
        return [], None
    pool = load_demonstration_pool(manifest.pool)
    if manifest.pool_alignments:
        sidecar = load_alignment_sidecar(manifest.pool_alignments, [d.question for d in pool])
        for demo, alignment in zip(pool, sidecar):
            demo.alignment = alignment
    return pool, build_index(pool) if pool else None


def _make_backend(manifest: RunManifest) -> ModelBackend:
    if manifest.backend == "replay":
        if not manifest.replay_store:
            raise SqlMendError("replay backend requires --replay-store")
        return ReplayBackend(ReplayStore(manifest.replay_store))
    if manifest.backend in ("http", "record"):
        if not manifest.base_url or not manifest.model:
            raise SqlMendError(f"{manifest.backend} backend requires --base-url and --model")
        http = HttpBackend(HttpBackendConfig(base_url=manifest.base_url, model=manifest.model))
        if manifest.backend == "record":
            if not manifest.replay_store:
                raise SqlMendError("record backend requires --replay-store")
            return RecordingBackend(http, ReplayStore(manifest.replay_store))
        return http
    raise SqlMendError(f"unknown backend {manifest.backend!r}")


def cmd_run(args: argparse.Namespace) -> int:
    manifest = RunManifest.from_args(args)
    catalogs, examples = _load_catalogs(manifest), _load_examples(manifest)
    pool, index = _load_pool(manifest)
    pipeline = MendPipeline(catalogs, pool, index, _make_backend(manifest), manifest.config)
    output_dir = Path(manifest.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    print(f"running {len(examples)} examples with backend={manifest.backend}")
    try:
        traces = pipeline.run(examples)
    except FixtureMissingError as exc:
        print(f"fixture missing from replay store: {exc.prompt_sha256}", file=sys.stderr)
        return EXIT_FIXTURE_MISSING
    trace_path = output_dir / "traces.jsonl"
    write_traces(traces, trace_path)
    manifest_path = output_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest.resolved(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    corrected = sum(1 for t in traces if t.rounds)
    print(f"wrote {len(traces)} traces to {trace_path} ({corrected} with correction rounds)")
    return EXIT_OK


def _print_report(report_dict: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report_dict, indent=2, sort_keys=True))
        return
    def pct(value):
        return "n/a" if value is None else f"{value:.4f}"
    print(f"examples evaluated : {report_dict['record_count']}")
    print(f"EX (initial SQL)   : {pct(report_dict['ex_accuracy_initial'])}")
    print(f"EX (final SQL)     : {pct(report_dict['ex_accuracy'])}")
    print(f"EX delta           : {pct(report_dict['ex_delta'])}")
    print(f"skeleton accuracy  : {pct(report_dict['skeleton_accuracy'])}")
    if report_dict.get("parsed_skeleton_accuracy") is not None:
        print(f"parsed skeletons   : {pct(report_dict['parsed_skeleton_accuracy'])}")
    if report_dict.get("linking_scores"):
        scores = report_dict["linking_scores"]
        print(
            "entity linking     : "
            f"P={scores['precision']:.4f} R={scores['recall']:.4f} F={scores['f1']:.4f}"
        )
    print("error histogram (before -> after correction):")
    histogram = report_dict["error_histogram"]
    for category in ERROR_CATEGORIES:
        before = histogram["initial"][category]
        after = histogram["final"][category]
        print(f"  {category:<16} {before:>4} -> {after:<4}")
    if report_dict.get("per_hardness"):
        print("per-hardness EX (initial/final of count):")
        for label, bucket in sorted(report_dict["per_hardness"].items()):
            print(
                f"  {label:<12} {bucket['ex_initial']}/{bucket['count']}"
                f" -> {bucket['ex_final']}/{bucket['count']}"
            )
    if report_dict.get("invalid_gold"):
        print(f"invalid gold (excluded): {report_dict['invalid_gold']}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = RunManifest.from_args(args)
    catalogs, examples = _load_catalogs(manifest), _load_examples(manifest)
    report = evaluate_run(read_traces(args.traces), examples, catalogs)
    report_dict = report.to_dict()
    output = Path(args.report_out) if args.report_out else Path(args.traces).parent / "report.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_report(report_dict, args.format)
    print(f"report written to {output}", file=sys.stderr)
    return EXIT_OK


def cmd_skeleton(args: argparse.Namespace) -> int:
    skeleton = extract_skeleton(args.sql)
    if args.format == "json":
        print(json.dumps({"sql": args.sql, "skeleton": skeleton}, sort_keys=True))
    else:
        print(skeleton)
    return EXIT_OK


def cmd_link(args: argparse.Namespace) -> int:
    manifest = RunManifest.from_args(args)
    catalogs = _load_catalogs(manifest)
    pool, index = _load_pool(manifest)
    if not pool:
        manifest.config.shots = 0
    pipeline = MendPipeline(catalogs, pool, index, _make_backend(manifest), manifest.config)
    example = Example(example_id="adhoc", question=args.question, db_id=args.db_id)
    trace = CorrectionTrace(example_id="adhoc", initial_sql=args.sql)
    pipeline.link_entities(example, trace, pipeline.select_demos(example.question))
    alignment = trace.alignment
    if alignment is None:
        print(f"entity linking failed: {trace.stage_errors}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(alignment.to_records(), sort_keys=True))
    else:
        for record in alignment.to_records():
            linked = (
                f"{record['schema']} ({record['type']})" if record["schema"] else "-"
            )
            print(f"{record['token']:<20} {linked}")
    return EXIT_OK


def _add_data_flags(parser: argparse.ArgumentParser, dataset: bool, pool: bool) -> None:
    parser.add_argument("--manifest", help="JSON manifest with default flag values")
    if dataset:
        parser.add_argument("--dataset", help="dataset JSON (question/db_id/query records)")
        parser.add_argument("--alignments", help="gold alignment sidecar for the dataset")
    parser.add_argument("--databases", help="directory of <db_id>/<db_id>.sqlite files")
    parser.add_argument("--tables", help="Spider-style tables.json")
    if pool:
        parser.add_argument("--pool", help="demonstration pool JSON")
        parser.add_argument("--pool-alignments", dest="pool_alignments",
                            help="gold alignment sidecar for the pool")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["http", "replay", "record"])
    parser.add_argument("--replay-store", dest="replay_store", help="JSONL fixture store")
    parser.add_argument("--base-url", dest="base_url", help="chat-completions base URL")
    parser.add_argument("--model", help="model name for the HTTP backend")
    parser.add_argument("--shots", type=int, help="demonstrations per few-shot prompt")
    parser.add_argument("--oracle", choices=ORACLE_MODES,
                        help="replace sub-task outputs with gold data")
    parser.add_argument("--workers", type=int, help="concurrent examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlmend",
        description="Generate, check, and mend SQL for natural-language questions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the full pipeline over a dataset")
    _add_data_flags(run_parser, dataset=True, pool=True)
    _add_backend_flags(run_parser)
    run_parser.add_argument("--output", help="output directory for traces + manifest")
    run_parser.set_defaults(func=cmd_run)

    eval_parser = sub.add_parser("evaluate", help="score a trace file against its dataset")
    eval_parser.add_argument("traces", help="traces.jsonl produced by run")
    _add_data_flags(eval_parser, dataset=True, pool=False)
    eval_parser.add_argument("--report-out", dest="report_out", help="report JSON path")
    eval_parser.add_argument("--format", choices=["text", "json"], default="text")
    eval_parser.set_defaults(func=cmd_evaluate)

    skeleton_parser = sub.add_parser("skeleton", help="print the skeleton of a SQL string")
    skeleton_parser.add_argument("sql")
    skeleton_parser.add_argument("--format", choices=["text", "json"], default="text")
    skeleton_parser.set_defaults(func=cmd_skeleton)

    link_parser = sub.add_parser("link", help="run entity linking for one question")
    link_parser.add_argument("question")
    link_parser.add_argument("db_id")
    link_parser.add_argument("--sql", default="", help="initial SQL shown to the linker")
    _add_data_flags(link_parser, dataset=False, pool=True)
    _add_backend_flags(link_parser)
    link_parser.add_argument("--format", choices=["text", "json"], default="text")
    link_parser.set_defaults(func=cmd_link)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SqlMendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
