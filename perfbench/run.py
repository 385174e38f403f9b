"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload fewshot-replay --seed 1 --seconds 22 --trace 0

Inputs are generated from the seed by ``generate.py`` in its own process and
kept under ``perfbench/.work/inputs`` until the seed or the code changes.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` a fixed pass runs untraced and then traced, and the result
holds the per-layer metrics. ``--setup-only`` (used by the set-up timing)
does the workload's set-up and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
INPUTS = BENCH / ".work" / "inputs"
WORKLOAD_NAMES = ("fewshot-replay", "zeroshot-record", "evaluate-exec")


def _digest(seed: int) -> str:
    """Seed plus every source file the inputs depend on: the recorded store
    holds prompts the program builds."""
    digest = hashlib.sha256(str(seed).encode())
    for path in sorted(BENCH.glob("*.py")) + sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _generate(argv: list[str]) -> None:
    subprocess.run([sys.executable, str(BENCH / "generate.py"), *argv, "--out", str(INPUTS)],
                   check=True, stdout=sys.stderr)


def _flush(root: Path) -> None:
    """Write the inputs to disk now. Left to the kernel, tens of MB of new
    files are written back some 30 s later, in the middle of a timed run."""
    for path in root.rglob("*"):
        if path.is_file():
            with path.open("rb") as handle:
                os.fsync(handle.fileno())


def ensure_inputs(seed: int, need_store: bool) -> None:
    stamp = INPUTS / "stamp.json"
    digest = _digest(seed)
    state = json.loads(stamp.read_text()) if stamp.exists() else {}
    if state.get("digest") != digest:
        shutil.rmtree(INPUTS, ignore_errors=True)
        _generate(["--seed", str(seed)])
        state = {"digest": digest}
        stamp.write_text(json.dumps(state))
    if need_store and not state.get("store"):
        _generate(["--record-fewshot"])
        state["store"] = True
        stamp.write_text(json.dumps(state))
    _flush(INPUTS)


def main() -> int:
    parser = argparse.ArgumentParser(description="sqlmend offline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "sqlmend" / "__init__.py").is_file():
        print(f"no sqlmend sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the ATTACH paths in the evaluate traces are relative to it
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if not args.setup_only:
        ensure_inputs(args.seed, need_store=args.workload == "fewshot-replay")

    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.Inputs(INPUTS))
    if args.setup_only:
        workload.setup()
        sys.stdout.flush()
        os._exit(0)  # the time ends where the first example would start
    if args.trace:
        from tracing import Tracer

        result = workload.traced(Tracer())
    else:
        setup_s = workloads.timed_setups([str(Path(__file__)), *sys.argv[1:]])
        result = workload.measure(args.seconds, setup_s)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
