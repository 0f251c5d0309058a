#!/usr/bin/env python3
"""Benchmark of inkchannel's sweeps and CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-bitflip --seed 1 --seconds 35 --trace 0

Workloads are listed in BENCHMARK.json.  With ``--trace 0`` one process runs
the workload closed-loop (one client) for ``--seconds`` seconds, alternating
jobs=1 and jobs=nproc iterations, and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced jobs=1 iterations and reports
per-layer metrics for the functions in ``tracing.TARGETS``.

Every iteration's output bytes must equal those of the first (jobs=1)
iteration; at the default seed they must also match ``golden.json``.  Any
mismatch marks every operation of the run as failed.  The last line of
stdout is the result JSON; the full report, with the machine stamp, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from tracing import COUNT_NAMES, SPAN_NAMES, Tracer, absent_spans, self_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 1
MIN_ITERATIONS = 3
SETUP_SAMPLES = 9


def import_package():
    """Import inkchannel from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    try:
        import inkchannel
        import make_corpus  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT}: {exc}")
    if Path(inkchannel.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: inkchannel was imported from {inkchannel.__file__}, not from {ROOT / 'src'}")
    return inkchannel


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values):
    return statistics.median(values) if values else float("nan")


def machine_stamp(inkchannel) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    sources = sorted((ROOT / "src" / "inkchannel").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inkchannel": inkchannel.__version__,
        "git_commit": commit,
        "src_sha256": sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)),
    }


def setup_seconds(workload) -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI and parses its input."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first run warms the bytecode and file caches
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *workload.setup_argv], cwd=ROOT, env=env, capture_output=True)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.decode(errors='replace')}")
        if i:
            samples.append(wall)
    return samples


class Ledger:
    """Operations attempted and failed, and every problem found.

    The first iteration that completes is the reference: its outputs are
    range-checked and every later iteration must reproduce them byte for byte.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.raised = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def add(self, it, label: str):
        self.attempted += it.ops
        if it.error is not None:
            self.raised += it.ops
            self.errors.append(f"{label} iteration raised:\n{it.error}")
        elif self.reference is None:
            self.reference = it
            self.problems += self.workload.check(it)
        elif it.outputs != self.reference.outputs:
            self.problems.append(f"{label} iteration output differs from the reference")

    def digests(self) -> dict:
        return {k: sha256(v) for k, v in self.reference.outputs.items()} if self.reference else {}

    @property
    def failed(self) -> int:
        """Operations that raised; every operation once any output mismatched."""
        return self.attempted if self.problems else self.raised


def check_golden(name: str, seed: int, digests: dict) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads((BENCH / "golden.json").read_text())["sha256"].get(name)
    if pinned != digests:
        return [f"output digests {digests} differ from the pinned {pinned} (seed {seed})"]
    return []


def timed_runs(ledger, seconds: float, modes) -> dict:
    """Alternate the modes until each ran MIN_ITERATIONS times and the next
    iteration, as long as the last one of its mode, would end after ``seconds``."""
    runs = {label: [] for label in modes}
    last = dict.fromkeys(modes, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        for label, step in modes.items():
            enough = min(len(v) for v in runs.values()) >= MIN_ITERATIONS
            if enough and time.perf_counter() + last[label] > deadline:
                return runs
            t0 = time.perf_counter()
            it = step()
            last[label] = time.perf_counter() - t0
            ledger.add(it, label)
            if it is not ledger.reference:
                it.outputs = it.values = None  # checked; keep only the timings
            runs[label].append(it)


def end_to_end(workload, ledger, seconds, nproc) -> tuple[dict, dict]:
    setup = setup_seconds(workload)
    runs = timed_runs(ledger, seconds, {"jobs=1": lambda: workload.iterate(1), "jobs=n": lambda: workload.iterate(nproc)})
    ok = {label: [it for it in its if it.error is None] for label, its in runs.items()}
    latencies_ms = sorted(1e3 * s for it in ok["jobs=1"] for s in it.latencies_s)
    deciles = statistics.quantiles(latencies_ms, n=10) if len(latencies_ms) > 1 else [float("nan")] * 9
    metrics = {
        "ops_per_s": (median([it.ops / it.wall_s for it in ok["jobs=1"]]), "1/s"),
        "ops_per_s_jobs_n": (median([it.ops / it.wall_s for it in ok["jobs=n"]]), "1/s"),
        "op_ms_p50": (median(latencies_ms), "ms"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "wall_s": {label: [it.wall_s for it in its] for label, its in runs.items()},
        "op_ms": {"samples": len(latencies_ms), "p50": metrics["op_ms_p50"][0], "p90": deciles[8]},
        "setup_s_samples": setup,
    }
    return metrics, detail


def stress_check(name: str, spans, self_s: dict) -> dict:
    """Whether the traced run shows the layer this workload was chosen to stress."""
    if name == "sweep-bitflip":
        stressed = sum(v for k, v in self_s.items() if k.startswith(("channel.", "metrics.")) or k == "imagery.BinaryImage.new")
        halftone = sum(v for k, v in self_s.items() if k.startswith("halftone."))
        return {"claim": "channel + metrics + BinaryImage.new self time > all halftone.* spans", "holds": stressed > halftone}
    expected = "halftone.dotdif" if name == "sweep-halftone-tiled" else "imagery.read_gray"
    longest = max(zip(self_ns(spans), (s[0] for s in spans)))[1] if spans else None
    return {
        "claim": f"the span with the largest self time is a call of {expected}",
        "holds": longest == expected,
        "largest_span": longest,
        "largest_total_self": max(self_s, key=self_s.get),
    }


def per_layer(name, workload, ledger, seconds) -> tuple[dict, dict, list]:
    """Per-layer shares, counts and tracing overhead from traced jobs=1 iterations."""
    tracers = []

    def traced():
        with Tracer() as tracer:
            it = workload.iterate(1)
        tracers.append(tracer)
        return it

    runs = timed_runs(ledger, seconds, {"untraced": lambda: workload.iterate(1), "traced": traced})
    pairs = [(it, tr) for it, tr in zip(runs["traced"], tracers) if it.error is None]
    summaries = [tr.summary() for _, tr in pairs]
    walls = [it.wall_s for it, _ in pairs]
    counts = [(tuple(sorted((k, v["calls"]) for k, v in s.items())), tuple(sorted(tr.counts.items()))) for s, (_, tr) in zip(summaries, pairs)]
    metrics = {}
    for span in SPAN_NAMES:
        rows = [s.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}) for s in summaries]
        metrics[f"{span}.calls"] = (rows[0]["calls"] if rows else 0, "count")
        metrics[f"{span}.busy_pct"] = (median([100 * r["busy_s"] / w for r, w in zip(rows, walls)]), "%")
        metrics[f"{span}.self_pct"] = (median([100 * r["self_s"] / w for r, w in zip(rows, walls)]), "%")
    for count in COUNT_NAMES:
        metrics[count] = (pairs[0][1].counts[count] if pairs else 0, "count")
    untraced = median([it.wall_s for it in runs["untraced"] if it.error is None])
    metrics["trace.iteration_s"] = (median(walls), "s")
    metrics["trace.overhead_s"] = (median(walls) - untraced, "s")
    self_s = {span: median([s.get(span, {}).get("self_s", 0.0) for s in summaries]) for span in SPAN_NAMES}
    busy_s = {span: median([s.get(span, {}).get("busy_s", 0.0) for s in summaries]) for span in SPAN_NAMES}
    detail = {
        "wall_s": {mode: [it.wall_s for it in its] for mode, its in runs.items()},
        "counts_are_computed": list(COUNT_NAMES) + [f"{s}.calls" for s in SPAN_NAMES],
        "counts_repeat": len(set(counts)) <= 1,
        "absent": absent_spans(),
        "busy_s": busy_s,
        "self_s": self_s,
        "untraced_iteration_s": untraced,
        "stress_check": stress_check(name, tracers[-1].spans if tracers else [], self_s),
    }
    if not detail["counts_repeat"]:
        print("perfbench: computed counts differ between traced iterations", file=sys.stderr)
    return metrics, detail, [tr.spans for tr in tracers]


def write_spans(path: Path, iterations) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,index,parent,name,start_ns,end_ns\n")
        for i, spans in enumerate(iterations):
            for j, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{i},{j},{parent},{name},{start},{end}\n")


def main(argv=None) -> int:
    inkchannel = import_package()
    from workloads import WORKLOADS  # imports inkchannel, so only after import_package

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")

    stamp = machine_stamp(inkchannel)
    OUT.mkdir(exist_ok=True)
    with TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as work:
        workload = WORKLOADS[args.workload](args.workload, args.seed, Path(work))
        ledger = Ledger(workload)
        try:
            if args.trace:
                metrics, detail, spans = per_layer(args.workload, workload, ledger, args.seconds)
                write_spans(OUT / f"{args.workload}.spans.csv", spans)
            else:
                metrics, detail = end_to_end(workload, ledger, args.seconds, stamp["nproc"])
        finally:
            workload.close()
    digests = ledger.digests()
    ledger.problems += check_golden(args.workload, args.seed, digests)
    if not args.trace:
        metrics["ok_ops_frac"] = (1 - ledger.failed / ledger.attempted, "ratio")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": stamp, "digests": digests, "errors": ledger.errors, "problems": ledger.problems, **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    for problem in ledger.errors + ledger.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for key in ("op_ms", "stress_check", "counts_repeat", "absent"):
        if key in detail:
            print(f"{key}: {json.dumps(detail[key])}")
    result = {
        "correct": not (ledger.errors or ledger.problems),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
