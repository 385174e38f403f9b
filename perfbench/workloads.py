"""The three workloads. Each drives the library as ``sqlmend run`` and
``sqlmend evaluate`` do: the same loaders in the same order, the same
backends, the same trace and report writing.

Run workloads are closed loops: ``workers`` clients each start their next
example when the previous one ends, until the run's time is up.
``evaluate-exec`` repeats whole ``evaluate`` invocations over the same traces
file, so every run attempts whole rounds of the same examples.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from sqlmend.backends import RecordingBackend, ReplayBackend, ReplayStore
from sqlmend.datasets import load_alignment_sidecar, load_dataset
from sqlmend.errors import SqlMendError
from sqlmend.evaluation import evaluate_run
from sqlmend.pipeline import MendPipeline, PipelineConfig, read_traces, write_traces
from sqlmend.retrieval import build_index, load_demonstration_pool
from sqlmend.schema import load_database_dir, load_tables_json

import checks
from responder import PacedBackend, ScriptedResponder

WORK = Path("perfbench/.work")
# evaluate-exec: traces whose final SQL is a model-written ATTACH. Their
# number and text do not depend on the seed; the paths lie in the workload's
# own scratch directory, relative to the checkout root.
ATTACH_TRACES = 4
# Set-up runs in a fresh interpreter at least this many times, and on until
# this many seconds of set-up have passed, so that a quick set-up is timed
# as often as a slow one.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
# Wall time of one paced completion on zeroshot-record: at least ten times
# the CPU time the pipeline spends per completion (about 1.6 ms), so that the
# workload stays bound by its chain of completions; see the README.
COMPLETION_SECONDS = 0.025
# Examples in one traced pass: fixed, so two traced runs count the same calls.
TRACED_EXAMPLES = {"fewshot-replay": 100, "zeroshot-record": 200}


@dataclass(frozen=True)
class RunSettings:
    shots: int
    workers: int


FEWSHOT = RunSettings(shots=5, workers=1)
ZEROSHOT = RunSettings(shots=0, workers=2)


class Inputs:
    """Paths of the generated files."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.tables = self.root / "tables.json"
        self.databases = self.root / "database"
        self.dev = self.root / "dev.json"
        self.dev_alignments = self.root / "dev_alignments.jsonl"
        self.pool = self.root / "train.json"
        self.pool_alignments = self.root / "train_alignments.jsonl"
        self.plans = self.root / "plans.json"
        self.eval = self.root / "eval.json"
        self.eval_alignments = self.root / "eval_alignments.jsonl"
        self.eval_traces = self.root / "eval_traces.jsonl"
        self.fewshot_store = self.root / "fewshot_store.jsonl"


def attach_paths() -> list[str]:
    return [f"{WORK}/evaluate-exec/attach-{k}.sqlite" for k in range(ATTACH_TRACES)]


def _catalogs(inputs: Inputs) -> dict:
    catalogs = {c.db_id: c for c in load_tables_json(inputs.tables)}
    for db_id, path in load_database_dir(inputs.databases).items():
        if db_id in catalogs:
            catalogs[db_id].source_path = path
    return catalogs


def _dataset(path: Path, alignments: Path) -> list:
    examples = load_dataset(path)
    sidecar = load_alignment_sidecar(alignments, [e.question for e in examples])
    for example, alignment in zip(examples, sidecar):
        example.gold_alignment = alignment
    return examples


def build_pipeline(inputs: Inputs, settings: RunSettings, make_backend) -> tuple:
    """What ``sqlmend run`` does before its first example; the pool is
    loaded only for few-shot runs, as a zero-shot invocation omits it."""
    catalogs = _catalogs(inputs)
    examples = _dataset(inputs.dev, inputs.dev_alignments)
    pool = []
    if settings.shots:
        pool = load_demonstration_pool(inputs.pool)
        sidecar = load_alignment_sidecar(inputs.pool_alignments, [d.question for d in pool])
        for demo, alignment in zip(pool, sidecar):
            demo.alignment = alignment
    backend = make_backend()
    config = PipelineConfig(shots=settings.shots, workers=settings.workers,
                            demonstration_order="nearest-last")
    index = build_index(pool) if pool else None
    pipeline = MendPipeline(catalogs=catalogs, pool=pool, index=index, backend=backend,
                            config=config)
    return pipeline, examples


def timed_setups(argv: list[str]) -> float:
    """The median set-up time over several fresh interpreters.

    Each child is ``run.py`` with ``--setup-only``: it starts, imports the
    package, does the workload's set-up and exits at once. Its time runs from
    the start of the command to the point where the first example would
    start, so no memo kept inside one process can make a repeat cheaper.
    """
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 25):
        started = time.perf_counter()
        subprocess.run([sys.executable, *argv, "--setup-only"], check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(pipeline, examples, workers: int, seconds: float | None,
                wrap: bool = False, tracer=None):
    """Run examples in order with ``workers`` clients until the time is up,
    or, with ``seconds`` None, until every example has run once. With
    ``wrap`` the loop starts over past the end of the list; without it the
    clients stop there. Returns (example, trace, seconds) per example, in
    order; the trace is None when the example raised."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    counter = itertools.count()
    done: dict[int, tuple] = {}

    def client():
        while deadline is None or time.perf_counter() < deadline:
            i = next(counter)
            if i >= len(examples) and not (wrap and deadline is not None):
                if deadline is not None:
                    print("ran out of examples before the time was up", file=sys.stderr)
                return
            example = examples[i % len(examples)]
            if tracer is not None:
                tracer.set_example(example.example_id)
            started = time.perf_counter()
            try:
                trace = pipeline.run_example(example)
            except Exception as exc:  # counted as failed; the run goes on
                print(f"example {example.example_id} raised {exc!r}", file=sys.stderr)
                trace = None
            done[i] = (example, trace, time.perf_counter() - started)

    if workers == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [done[i] for i in sorted(done)]


def _write_traces(results, out: Path) -> None:
    write_traces([trace for _, trace, _ in results if trace is not None], out / "traces.jsonl")


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def _overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Tracing overhead: the median example of a fixed pass run traced,
    against the median example of the same pass run untraced."""
    return 100 * (statistics.median(traced) / statistics.median(untraced) - 1)


# --------------------------------------------------------------------------
# Run workloads
# --------------------------------------------------------------------------

class RunWorkload:
    # Whether a run that reaches the end of its examples starts over.
    wrap = False

    def __init__(self, name: str, inputs: Inputs, settings: RunSettings):
        self.name = name
        self.inputs = inputs
        self.settings = settings
        self.out = WORK / name
        self.out.mkdir(parents=True, exist_ok=True)

    def make_backend(self):
        raise NotImplementedError

    def setup(self):
        return build_pipeline(self.inputs, self.settings, self.make_backend)

    def check(self, results) -> list[str]:
        plans = {p["example_id"]: p for p in json.loads(self.inputs.plans.read_text())}
        executor = checks.Executor(self.inputs.databases)
        try:
            lines = (self.out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
            return checks.check_run_traces(lines, plans, executor)
        finally:
            executor.close()

    def measure(self, seconds: float, setup_s: float) -> dict:
        pipeline, examples = self.setup()
        started = time.perf_counter()
        results = closed_loop(pipeline, examples, self.settings.workers, seconds, self.wrap)
        _write_traces(results, self.out)
        wall = time.perf_counter() - started
        peak = _peak_rss_mb()
        repeats = len(results) - len(examples)
        if repeats > 0:
            # The checks still hold, but caches that last across examples
            # would now show a false gain: the dev set must grow.
            print(f"{self.name}: {repeats} of {len(results)} examples repeated an earlier "
                  f"one; the dev set of {len(examples)} is too short for this program")
        times = [t * 1e3 for _, trace, t in results if trace is not None]
        metrics = {
            "setup_s": (setup_s, "s"),
            "examples_per_s": (len(results) / wall, "examples/s"),
            "example_p50_ms": (statistics.median(times), "ms"),
            "example_p95_ms": (_quantile(times, 95), "ms"),
            "peak_rss_mb": (peak, "MB"),
        }
        return self._result(results, metrics)

    def traced(self, tracer) -> dict:
        count = TRACED_EXAMPLES[self.name]
        pipeline, examples = self.setup()
        first = closed_loop(pipeline, examples[:count], self.settings.workers, None)
        del pipeline, examples
        gc.collect()
        with tracer.installed():
            pipeline, examples = self.setup()
            tracer.wrap_instance(pipeline.backend, "complete", "backends.complete")
            results = closed_loop(pipeline, examples[:count], self.settings.workers, None,
                                  tracer=tracer)
            _write_traces(results, self.out)
        tracer.write(self.out / "spans.jsonl")
        rounds = sum(len(trace.rounds) for _, trace, _ in results if trace is not None)
        metrics = tracer.metrics(len(results))
        metrics["pipeline.correction_rounds_per_example"] = (rounds / len(results),
                                                             "rounds/example")
        metrics["tracing.overhead_pct"] = (_overhead_pct([t for _, _, t in first],
                                                        [t for _, _, t in results]), "%")
        return self._result(results, metrics, earlier=first)

    def _result(self, results, metrics, earlier=()) -> dict:
        """The checks cover ``results``; ``earlier`` results, from the
        untraced pass of a traced run, count as attempts only."""
        attempts = list(earlier) + results
        failed = sum(trace is None for _, trace, _ in attempts)
        problems = self.check(results)
        for problem in problems[:20]:
            print(f"check: {problem}", file=sys.stderr)
        return {"correct": not problems, "attempted": len(attempts), "failed": failed,
                "metrics": metrics}


class FewshotReplay(RunWorkload):
    """shots = 5 over the dev set, served from the replay store recorded
    over all of it. A run that outlasts the dev set starts over, and says so."""

    wrap = True

    def __init__(self, inputs: Inputs):
        super().__init__("fewshot-replay", inputs, FEWSHOT)

    def make_backend(self):
        return ReplayBackend(ReplayStore(self.inputs.fewshot_store))


class ZeroshotRecord(RunWorkload):
    """shots = 0; every completion is a store miss, paced to a fixed wall
    time, and appended to a fresh store."""

    def __init__(self, inputs: Inputs):
        super().__init__("zeroshot-record", inputs, ZEROSHOT)
        self.responder = PacedBackend(ScriptedResponder(inputs.plans), COMPLETION_SECONDS)
        self.store = self.out / "store.jsonl"

    def make_backend(self):
        self.store.unlink(missing_ok=True)
        return RecordingBackend(self.responder, ReplayStore(self.store))

    def check(self, results) -> list[str]:
        """Besides the plan: the store this run wrote, replayed over the same
        examples, gives byte-identical traces."""
        problems = super().check(results)
        recorded = (self.out / "traces.jsonl").read_bytes()
        pipeline, _ = build_pipeline(self.inputs, self.settings,
                                     lambda: ReplayBackend(ReplayStore(self.store)))
        try:
            replayed = [pipeline.run_example(example) for example, _, _ in results]
        except SqlMendError as exc:
            return problems + [f"replaying the recorded store failed: {exc}"]
        write_traces(replayed, self.out / "replayed.jsonl")
        if (self.out / "replayed.jsonl").read_bytes() != recorded:
            problems.append("replaying the recorded store gives different traces")
        return problems


# --------------------------------------------------------------------------
# evaluate-exec
# --------------------------------------------------------------------------

class StampedTraces(list):
    """A traces list that stamps the clock each time an item is taken.

    ``evaluate_run`` walks its traces one at a time, so the gap between two
    stamps of its last walk is the time it spent on one example.
    """

    stamps: list[float]

    def __iter__(self):
        self.stamps = []
        for item in list.__iter__(self):
            self.stamps.append(time.perf_counter())
            yield item


class EvaluateExec:
    name = "evaluate-exec"

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.out = WORK / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.attach = [Path(p) for p in attach_paths()]
        self.reports: list[dict] = []

    def setup(self):
        return _catalogs(self.inputs), _dataset(self.inputs.eval, self.inputs.eval_alignments)

    def round(self, catalogs, examples, example_ms: list) -> int:
        """One ``sqlmend evaluate`` over the traces file. Adds each example's
        time to ``example_ms``; returns how many ATTACH traces left their
        file behind."""
        for path in self.attach:
            path.unlink(missing_ok=True)
        traces = StampedTraces(read_traces(self.inputs.eval_traces))
        started = time.perf_counter()
        report = evaluate_run(traces, examples, catalogs)
        ended = time.perf_counter()
        report_dict = report.to_dict()
        (self.out / "report.json").write_text(
            json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        stamps = traces.stamps + [ended]
        if stamps[-1] - stamps[0] < 0.5 * (ended - started):
            raise RuntimeError("evaluate_run no longer walks its traces one at a time; "
                               "the per-example timing needs a new boundary")
        example_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
        self.reports.append(report_dict)
        self.traces_count = len(traces)
        return sum(path.exists() for path in self.attach)

    def measure(self, seconds: float, setup_s: float) -> dict:
        catalogs, examples = self.setup()
        example_ms: list[float] = []
        round_s: list[float] = []
        failed = 0
        started = time.perf_counter()
        while not round_s or time.perf_counter() - started < seconds:
            round_started = time.perf_counter()
            failed += self.round(catalogs, examples, example_ms)
            round_s.append(time.perf_counter() - round_started)
        attempted = len(round_s) * self.traces_count
        metrics = {
            "setup_s": (setup_s, "s"),
            # Every round does the same work: the median round's throughput
            # is not pulled by one round that a busy machine slowed.
            "examples_per_s": (self.traces_count / statistics.median(round_s), "examples/s"),
            "example_p50_ms": (statistics.median(example_ms), "ms"),
            "example_p95_ms": (_quantile(example_ms, 95), "ms"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        return self._result(attempted, failed, metrics)

    def traced(self, tracer) -> dict:
        untraced_ms: list[float] = []
        traced_ms: list[float] = []
        catalogs, examples = self.setup()
        failed = self.round(catalogs, examples, untraced_ms)
        del catalogs, examples
        gc.collect()
        with tracer.installed():
            catalogs, examples = self.setup()
            failed += self.round(catalogs, examples, traced_ms)
        tracer.write(self.out / "spans.jsonl")
        metrics = tracer.metrics(self.traces_count)
        metrics["pipeline.correction_rounds_per_example"] = (0.0, "rounds/example")
        metrics["tracing.overhead_pct"] = (_overhead_pct(untraced_ms, traced_ms), "%")
        return self._result(2 * self.traces_count, failed, metrics)

    def _result(self, attempted: int, failed: int, metrics: dict) -> dict:
        traces = read_traces(self.inputs.eval_traces)
        records = json.loads(self.inputs.eval.read_text(encoding="utf-8"))
        gold = [json.loads(line) for line in
                self.inputs.eval_alignments.read_text(encoding="utf-8").splitlines()]
        executor = checks.Executor(self.inputs.databases)
        try:
            expected = checks.expected_report(traces, records, gold, executor)
        finally:
            executor.close()
        problems = []
        for report in self.reports:
            problems += checks.compare_report(report, expected)
        for problem in problems[:20]:
            print(f"check: {problem}", file=sys.stderr)
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}


WORKLOADS = {"fewshot-replay": FewshotReplay, "zeroshot-record": ZeroshotRecord,
             "evaluate-exec": EvaluateExec}
