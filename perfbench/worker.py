"""One benchmark pass: a single ``newsaudit`` CLI invocation, timed.

Run as ``python3 perfbench/worker.py --workload W --inputs DIR --out DIR
[--spans FILE]``; with ``--spans`` the pass is traced.  Each pass runs in
a fresh process, like a user's CLI call, so lazily filled caches start
cold and peak RSS belongs to this pass alone.  Prints one JSON line: the
pipeline's exit code, the ``time.perf_counter`` intervals of the whole
call and of its set-up calls (``load_source_config`` and
``load_resources``), ``peak_rss_mb`` and, when traced, the per-layer
metrics.  ``run.py`` turns the intervals into ``setup_s`` and ``run_s``
(the rest of the call, until every artifact is written).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_BINDINGS = (
    ("cli", "load_source_config"),
    ("cli", "load_resources"),
    ("report", "load_source_config"),
    ("report", "load_resources"),
)


class SetupTimer:
    """Intervals spent in the set-up functions, wherever they are called from."""

    def __init__(self) -> None:
        self.intervals: "list[tuple[float, float]]" = []

    def install(self) -> None:
        for module_name, attr in SETUP_BINDINGS:
            module = importlib.import_module(f"newsaudit.{module_name}")
            setattr(module, attr, self._timed(getattr(module, attr)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals.append((start, time.perf_counter()))

        return timed


def cli_argv(workload: str, inputs: Path, out: Path) -> "list[str]":
    """The command a user would type for this workload."""
    sources = str(inputs / "sources.json")
    if workload == "stats-rebuild":
        return ["stats", "--mentions", str(inputs / "mentions.jsonl"),
                "--sources", sources, "--out", str(out)]
    return ["audit", "--corpus", str(inputs / "corpus.jsonl"),
            "--sources", sources, "--out", str(out)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    args = parser.parse_args()

    from newsaudit import cli

    recorder = None
    if args.spans is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    setup = SetupTimer()
    setup.install()

    argv = cli_argv(args.workload, args.inputs, args.out)
    start = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()

    result = {
        "exit_code": code,
        "call": (start, end),
        "setup": setup.intervals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
