"""Seeded end-to-end benchmark of the coconvex CLI.

    python3 perfbench/run.py                       # all workloads, default seed
    python3 perfbench/run.py --workload convex_af --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py` and `BENCHMARK.json`): `convex_af`,
`coconvex_lift`, `suite_d2`.  Every request goes through
`coconvex.cli.main` in a fresh interpreter started for the run, so the
library's caches start cold.  One client, closed loop, no threads.

`--trace 0` measures the end-to-end metrics: set-up time (median over five
fresh interpreters), throughput, median and tail latency, peak RSS and the
share of requests that succeed.  Times are normalized to a reference host
speed (see `calibration.py`); raw wall times are printed next to them.
`--trace 1` runs a fixed number of requests twice, untraced and traced, and
reports the per-layer metrics of the traced run plus the tracing overhead;
spans go to `perfbench/out/spans-<workload>-<seed>.json`.

A request fails unless the CLI exits 0 and the paper's property holds on its
output.  Output digests must also match the digests recorded for the seed in
`digests.json` (when there are any), the replay of the last request in a
fresh interpreter, and, in a traced run, the untraced run.  Each workload's
report ends with one JSON line: correct, attempted, failed, metrics.  When
the benchmark itself cannot run (for example, no `src/coconvex` next to it)
it prints no result line and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4  # set-up-only interpreters, on top of the measured run's own
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 50)
MIN_SLOWER = 10
CHILD_TIMEOUT_S = 100  # a hung worker fails the run well inside its time limit
DEFAULT_SECONDS = 30


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def serve(workload: str, seed: int, directory: Path, *, seconds: float = 0.0,
          indices=None, trace: bool = False, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "serve", "--workload", workload,
           "--seed", str(seed), "--dir", str(directory), "--seconds", repr(seconds)]
    if indices is not None:
        cmd += ["--indices", ",".join(map(str, indices))]
    if trace:
        cmd += ["--trace", "--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(cmd)}")
    return json.loads(lines[-1])


def recorded_digests(workload: str, seed: int) -> list[str]:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), [])


def mark_digest_mismatches(records, expected: dict, problems: list, what: str) -> None:
    """Fail every record whose digest differs from `expected[index]`."""
    for rec in records:
        index, digest = rec[0], rec[3]
        if index in expected and expected[index] != digest:
            rec[2] = False
            problems.append(f"request {index}: output differs from the {what}")


def tail_latency(latencies, fixed: int):
    """(percentile, value): the workload's fixed percentile, or the highest
    lower one that still has at least ten slower requests."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (fixed,) + tuple(q for q in TAIL_LADDER if q < fixed):
        k = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - k >= MIN_SLOWER:
            return p, ordered[k]
    return 50, statistics.median(ordered)


def untraced_run(wl, seed: int, seconds: float, work: Path):
    problems = []
    raw_setups, input_digests = [], set()

    def add_setup(r):
        raw_setups.append(r["setup_raw_s"])
        input_digests.add(r["input_digest"])

    def setup_only(k):
        add_setup(serve(wl.name, seed, work / f"setup-{k}"))

    # Host speed drifts over seconds, so half the set-up samples are taken
    # after the timed phase.
    for k in range(SETUP_REPEATS // 2):
        setup_only(k)
    main = serve(wl.name, seed, work / "main", seconds=seconds)
    add_setup(main)
    for k in range(SETUP_REPEATS // 2, SETUP_REPEATS):
        setup_only(k)
    if len(input_digests) != 1:
        problems.append("the same seed generated different inputs")
    records = main["records"]
    if not records:
        raise BenchError("no request completed")
    last = records[-1]
    # The last request ran with the fullest caches; a cold replay must match.
    replay = serve(wl.name, seed, work / "main", indices=[last[0]])["records"][0]
    mark_digest_mismatches([last], {last[0]: replay[3]}, problems,
                           "replay in a fresh interpreter")
    last[2] = last[2] and replay[2]
    mark_digest_mismatches(records, dict(enumerate(recorded_digests(wl.name, seed))),
                           problems, "recorded digest")

    latencies = [r[1] for r in records]
    failed = sum(1 for r in records if not r[2])
    pct, tail = tail_latency(latencies, wl.tail_percentile)
    # Set-up spans several processes, so it is scaled by the host speed
    # measured over the whole timed phase, which its samples surround.  That
    # widens its spread within a set of runs but keeps the median steady
    # when the host's speed drifts between sets.
    metrics = {
        "setup_s": statistics.median(raw_setups) * main["time_factor"],
        "throughput_per_s": sum(r[4] for r in records) / main["timed_s"],
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": main["peak_rss_mb"],
        "success_rate": (len(records) - failed) / len(records),
    }
    notes = {
        "requests": len(records),
        "tail_percentile": pct,
        "error_rate": failed / len(records),
        "raw_setup_samples_s": raw_setups,
        "time_factor": main["time_factor"],
        "raw_latency_p50_ms": statistics.median(r[5] for r in records) * 1000,
        "raw_throughput_per_s": sum(r[4] for r in records) / main["raw_timed_s"],
        "rss_after_requests": main["rss_requests"],
        "timed_s": main["timed_s"],
        "raw_timed_s": main["raw_timed_s"],
        "output_digest": workloads.digest("".join(r[3] for r in records).encode()),
        "backend": main["backend"],
    }
    return records, failed, metrics, notes, problems


def layer_metrics(report: dict, time_factor: float) -> dict:
    metrics = {}
    for name, with_self in tracer.target_names():
        calls, total, self_s = report["stats"][name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total * time_factor
        if with_self:
            metrics[f"{name}.self_s"] = self_s * time_factor
    counters = dict(report["counters"])
    lookups = counters.pop("polytope.volume.cache_lookups")
    metrics.update(counters)
    metrics["polytope.volume.cache_hit_ratio"] = (
        counters["polytope.volume.cache_hits"] / lookups if lookups else 0.0
    )
    return metrics


def traced_run(wl, seed: int, work: Path):
    problems = []
    indices = range(wl.trace_requests)
    plain = serve(wl.name, seed, work / "plain", indices=indices)
    spans_out = OUT / f"spans-{wl.name}-{seed}.json"
    traced = serve(wl.name, seed, work / "traced", indices=indices, trace=True,
                   spans_out=spans_out)
    if plain["input_digest"] != traced["input_digest"]:
        problems.append("traced and untraced runs generated different inputs")
    if not traced["restored"]:
        problems.append("a patched attribute survived the traced run")
    mark_digest_mismatches(traced["records"], {r[0]: r[3] for r in plain["records"]}, problems,
                           "untraced run")
    mark_digest_mismatches(traced["records"], dict(enumerate(recorded_digests(wl.name, seed))),
                           problems, "recorded digest")
    records = plain["records"] + traced["records"]
    failed = sum(1 for r in records if not r[2])
    metrics = layer_metrics(traced["trace"], traced["time_factor"])
    metrics["trace_overhead_ratio"] = traced["timed_s"] / plain["timed_s"]
    notes = {
        "requests_per_pass": len(indices),
        "untraced_timed_s": plain["timed_s"],
        "traced_timed_s": traced["timed_s"],
        "volume_cache_lookups": traced["trace"]["counters"]["polytope.volume.cache_lookups"],
        "spans_file": str(spans_out.relative_to(ROOT)),
        "output_digest": workloads.digest("".join(r[3] for r in traced["records"]).encode()),
        "backend": traced["backend"],
    }
    return records, failed, metrics, notes, problems


def _unit(name: str, listed: dict) -> str:
    if name in listed:
        return listed[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(wl, seed: int, seconds: float, trace: bool, listed: list) -> bool:
    """Run one workload, print its report; False when the benchmark broke."""
    work = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    try:
        if trace:
            records, failed, metrics, notes, problems = traced_run(wl, seed, work)
        else:
            records, failed, metrics, notes, problems = untraced_run(wl, seed, seconds, work)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as exc:
        print(f"perfbench: {wl.name}: {exc}", file=sys.stderr)
        return False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes.update(python=platform.python_version(), nproc=os.cpu_count(), seed=seed,
                 workload=wl.name, trace=int(trace))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        print(f"{name} {value!r} {_unit(name, units)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result), flush=True)
    return True


def main(argv=None) -> int:
    meta = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS],
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=meta["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="normalized request time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    ok = True
    for name in names:
        ok = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), listed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
