"""newsaudit benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, then runs passes for
about ``--seconds`` seconds (at least two).  A pass is one ``newsaudit
audit`` call (``newsaudit stats`` on ``stats-rebuild``) in a fresh process;
see ``worker.py``.  Every pass's outputs are checked, and every pass must
write the same ``report.json`` bytes.  Load is one closed-loop client: one
process with one thread, with numpy/BLAS pinned to one thread, and every
pass pinned to one CPU.

``setup_s`` and ``run_s`` are wall times scaled to a fixed host speed.  A
probe process (``probe.py``) shares the passes' CPU and times a fixed
kernel ten times a second; each moment of a pass is weighted by how fast
the kernel ran then (``HostSpeed``).  So a spell in which another tenant
of the host halves the CPU's speed does not read as a slower program.
The raw wall times are printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the passes.  With ``--trace 1`` passes alternate untraced and traced; the
result holds the per-layer metrics of the traced passes, the tracing
overhead (traced minus untraced ``run_s``), and the run states whether
the workload's predicted dominant layer held (``layers.json``).  The
layers' self times are unscaled wall times; ``trace.run_s`` and
``trace.untraced_run_s`` are scaled like ``run_s``.  The
spans of the last traced pass are kept in
``.perfbench_work/spans-<workload>-<seed>.jsonl``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in a pass.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import REF_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("planted", "distinct-experts", "long-bodies", "stats-rebuild")
MIN_PASSES = 2
#: The whole run must end within 180 s; passes stop being started, and a
#: running pass is killed, so that it does.
DEADLINE_S = 165.0


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="newsaudit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# output checks


def _near(a: "float | None", b: float, tol: float) -> bool:
    return a is not None and abs(a - b) <= tol


def check_report(workload: str, report: dict, truth: dict) -> "list[str]":
    """Errors in one pass's ``report.json`` against the generator's truth."""
    totals = report.get("totals") or {}
    errors = []
    if totals.get("mentions") != truth["mentions"]:
        errors.append(f"mentions {totals.get('mentions')} != planted {truth['mentions']}")
    if workload == "planted":
        ratio = (totals.get("women_men") or {}).get("ratio")
        if not _near(ratio, truth["planted_ratio"], 1e-12):
            errors.append(f"women:men {ratio} != planted {truth['planted_ratio']}")
        gini = report["rank_attention"]["overall"]["gini"]
        if not _near(gini, truth["planted_gini"], 0.02):
            errors.append(f"gini {gini} not within 0.02 of planted {truth['planted_gini']}")
    elif workload == "distinct-experts":
        if totals.get("unique_experts") != truth["speakers"]:
            errors.append(f"unique_experts {totals.get('unique_experts')} != {truth['speakers']}")
    elif workload == "long-bodies":
        sentences = report["corpus"]["sentences"]
        if sentences != truth["sentences"]:
            errors.append(f"sentences {sentences} != planted {truth['sentences']}")
    elif workload == "stats-rebuild":
        block = totals.get("women_men") or {}
        got = (totals.get("unique_experts"), block.get("n_men"), block.get("n_women"))
        want = (truth["speakers"], truth["men"], truth["women"])
        if got != want:
            errors.append(f"(experts, men, women) {got} != mentions file {want}")
        by_type = {t: block["n"] for t, block in report["gender_by_org_type"].items()}
        if by_type != truth["linked"]:
            errors.append(f"linked mentions by org type {by_type} != mentions file {truth['linked']}")
        by_outlet = sum(block["n_linked"] for block in report["org_type_by_outlet"].values())
        if by_outlet != sum(truth["linked"].values()):
            errors.append(f"linked mentions over outlets {by_outlet} != mentions file "
                          f"{sum(truth['linked'].values())}")
    if workload != "stats-rebuild":
        articles = sum(o["articles"] for o in report["corpus"]["outlets"].values())
        if articles != truth["articles"]:
            errors.append(f"articles {articles} != {truth['articles']}")
    return errors


def check_segments_rejoin(corpus: Path) -> "list[str]":
    """Segment texts, with the gaps between them, must rebuild each body."""
    from newsaudit.corpus import segment_sentences

    errors = []
    for line in corpus.read_text(encoding="utf-8").splitlines():
        article = json.loads(line)
        body = article["body"]
        rebuilt, pos = [], 0
        for s in segment_sentences(body):
            lo, hi = s.span
            gap = body[pos:lo]
            if lo < pos or gap.strip() or body[lo:hi] != s.text:
                errors.append(f"{article['id']}: segment {s.index} breaks the body")
                break
            rebuilt.append(gap + s.text)
            pos = hi
        rebuilt.append(body[pos:])
        if "".join(rebuilt) != body or body[pos:].strip():
            errors.append(f"{article['id']}: segments do not rejoin to the body")
    return errors


# ---------------------------------------------------------------------------
# host speed


class HostSpeed:
    """The probe's samples as a speed factor over time.

    Sample ``i`` starts at ``t_i`` and its kernel took ``c_i`` s of CPU; the
    factor ``REF_KERNEL_S / c_i`` holds from ``t_i`` to the next sample.
    ``scaled(a, b)`` integrates it over ``[a, b]``: the seconds that
    interval would have lasted at the reference speed.
    """

    def __init__(self, log: Path) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        # The probe is still writing, so the last line may be incomplete.
        for line in log.read_text(encoding="utf-8").split("\n")[:-1]:
            start, cpu = line.split()
            self.times.append(float(start))
            self.factors.append(REF_KERNEL_S / float(cpu))
        self.cumulative = [0.0]
        for i in range(1, len(self.times)):
            step = (self.times[i] - self.times[i - 1]) * self.factors[i - 1]
            self.cumulative.append(self.cumulative[-1] + step)

    def samples_in(self, a: float, b: float) -> int:
        return bisect.bisect_right(self.times, b) - bisect.bisect_left(self.times, a)

    def _integral(self, t: float) -> float:
        i = max(bisect.bisect_right(self.times, t) - 1, 0)
        return self.cumulative[i] + (t - self.times[i]) * self.factors[i]

    def scaled(self, a: float, b: float) -> float:
        return self._integral(b) - self._integral(a)


def wait_for_probe(probe: subprocess.Popen, log: Path) -> None:
    """Wait until ``probe.py`` has taken its first samples."""
    for _ in range(100):
        time.sleep(0.05)
        if probe.poll() is not None or (log.is_file() and log.read_text().count("\n") >= 5):
            break
    if probe.poll() is not None:
        raise RuntimeError(f"host-speed probe exited with {probe.returncode}")


def scale_pass(res: dict, speed: HostSpeed) -> None:
    """Set a pass's ``setup_s`` and ``run_s`` from its intervals."""
    start, end = res["call"]
    if speed.samples_in(start, end) == 0:
        res["errors"].append("the host-speed probe took no sample during the pass")
        return
    res["wall_setup_s"] = sum(b - a for a, b in res["setup"])
    res["wall_run_s"] = end - start - res["wall_setup_s"]
    res["setup_s"] = sum(speed.scaled(a, b) for a, b in res["setup"])
    res["run_s"] = speed.scaled(start, end) - res["setup_s"]


# ---------------------------------------------------------------------------
# passes


def run_pass(workload: str, inputs: Path, out: Path, spans: "Path | None", timeout: float) -> dict:
    """One worker process, traced when ``spans`` is given.

    Returns the worker's result dict plus ``wall_s`` and ``errors``.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"wall_s": time.perf_counter() - start, "errors": [f"pass timed out after {timeout:.0f} s"]}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"wall_s": wall, "errors": [f"worker exit {proc.returncode}: {' | '.join(tail)}"]}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["errors"] = [] if result["exit_code"] == 0 else [f"newsaudit exit {result['exit_code']}"]
    return result


def measure(args: argparse.Namespace, inputs: Path, work: Path, truth: dict,
            run_errors: "list[str]", started: float, probe_log: Path) -> "list[dict]":
    passes: list[dict] = []
    reference: "bytes | None" = None
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        timeout = DEADLINE_S - (time.perf_counter() - started)
        spans = WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl" if traced else None
        res = run_pass(args.workload, inputs, out, spans, timeout)
        res["traced"] = traced
        report_path = out / "report.json"
        if not res["errors"]:
            scale_pass(res, HostSpeed(probe_log))
        if not res["errors"]:
            if not report_path.is_file():
                res["errors"].append("report.json was not written")
            else:
                payload = report_path.read_bytes()
                res["errors"] += check_report(args.workload, json.loads(payload), truth)
                if reference is None:
                    reference = payload
                elif payload != reference:
                    res["errors"].append("report.json differs from the first pass's")
        res["errors"] += run_errors
        passes.append(res)
        shutil.rmtree(out, ignore_errors=True)

        elapsed = time.perf_counter() - measure_start
        typical = statistics.median(p["wall_s"] for p in passes)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
        if typical * 1.5 > remaining or any("timed out" in e for e in res["errors"]):
            break
    return passes


# ---------------------------------------------------------------------------
# summary


def _quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(passes: "list[dict]") -> "dict[str, list[float]]":
    """Per-pass samples of the measured end-to-end metrics, correct passes only."""
    timed = [p for p in passes if not p["errors"] and not p["traced"]]
    return {key: [p[key] for p in timed] for key in ("setup_s", "run_s", "peak_rss_mb")}


def per_layer(passes: "list[dict]") -> "tuple[dict[str, float], dict[str, list[float]]]":
    """Medians of the per-layer metrics over the correct traced passes."""
    traced = [p for p in passes if not p["errors"] and p["traced"]]
    plain = [p["run_s"] for p in passes if not p["errors"] and not p["traced"]]
    samples: dict[str, list[float]] = {}
    for p in traced:
        for key, value in p["layers"].items():
            samples.setdefault(key, []).append(value)
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    if traced and plain:
        traced_run = statistics.median(p["run_s"] for p in traced)
        metrics["trace.run_s"] = traced_run
        metrics["trace.untraced_run_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = traced_run - metrics["trace.untraced_run_s"]
    return metrics, samples


def prediction_line(workload: str, metrics: "dict[str, float]") -> str:
    spec = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    pred = spec["workloads"][workload]["prediction"]
    among = {k: metrics.get(k, 0.0) for k in pred["among"]}
    leader = max(among, key=among.get)
    held = leader == pred["dominant"]
    share = among[pred["dominant"]] / (sum(among.values()) or 1.0)
    verdict = "held" if held else f"did not hold: {leader} leads with {among[leader]:.3f} s"
    return (f"prediction on {workload}: {pred['claim']} -- {verdict} "
            f"({pred['dominant']} = {among[pred['dominant']]:.3f} s, "
            f"{share:.0%} of the compared layers)")


def _terminate(signum, frame) -> None:
    # Unwinding through subprocess.run kills the running pass and the
    # finally clause removes the work directory.
    raise SystemExit(128 + signum)


def main(argv: "list[str] | None" = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "newsaudit" / "__init__.py").is_file():
        print(f"perfbench: no newsaudit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import generators

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        inputs = work / "inputs"
        truth = generators.GENERATORS[args.workload](inputs, args.seed)
        run_errors = []
        if args.workload == "long-bodies":
            run_errors = check_segments_rejoin(inputs / "corpus.jsonl")
        # One CPU for the passes and the probe; both inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        probe_log = work / "probe.log"
        probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(probe_log)])
        try:
            wait_for_probe(probe, probe_log)
            passes = measure(args, inputs, work, truth, run_errors, started, probe_log)
        finally:
            probe.terminate()
            probe.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(p["errors"]) for p in passes)
    for i, p in enumerate(passes):
        for err in p["errors"]:
            print(f"pass {i}: FAILED: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{failed} failed (failed_frac {failed / len(passes):.3f})")

    if args.trace:
        metrics, samples = per_layer(passes)
        if "trace.overhead_s" not in metrics:
            print("perfbench: no traced and untraced pass both completed", file=sys.stderr)
            return 1
        for key, value in metrics.items():
            n = len(samples.get(key, ()))
            print(f"  {key:28s} {value:14.6g} {units[key]}" + (f"  (median of {n})" if n else ""))
        print(prediction_line(args.workload, metrics))
    else:
        samples = end_to_end(passes)
        if not samples["run_s"]:
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        metrics = {}
        for key, values in samples.items():
            q1, med, q3 = _quartiles(values)
            metrics[key] = med
            print(f"  {key:16s} median {med:12.6g} {units[key]:4s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})")
        # Throughput over the median pass; on stats-rebuild, articles are
        # the distinct article ids in the mentions file.
        metrics["articles_per_s"] = truth["articles"] / metrics["run_s"]
        metrics["mentions_per_s"] = truth["mentions"] / metrics["run_s"]
        for key in ("articles_per_s", "mentions_per_s"):
            print(f"  {key:16s} {metrics[key]:19.6g} {units[key]}")
        timed = [p for p in passes if not p["errors"] and not p["traced"]]
        for key in ("wall_setup_s", "wall_run_s"):
            q1, med, q3 = _quartiles([p[key] for p in timed])
            print(f"  {key:16s} median {med:12.6g} s    q1 {q1:.6g} q3 {q3:.6g} (unscaled)")
        print(f"  {'failed_frac':16s} {failed / len(passes):19.6g} of {len(passes)} passes")

    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
