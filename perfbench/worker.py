"""Child processes of the benchmark: input generation and request serving.

    worker.py gen   --workload W --seed S --dir D --start I --count N [--trace]
    worker.py serve --workload W --seed S --dir D --t0 T
                    (--seconds X | --indices I,J,...) [--trace]

`serve` is one fresh interpreter, so the library's module-level caches start
cold, as they do for a CLI user.  It never generates inputs itself: inputs
come from `gen` processes, because generation builds the same bodies the
requests then read and would warm those caches.  Set-up runs from the
parent's spawn time `--t0` to the first timed request and covers importing
coconvex plus generating the first batch of inputs.  Generating later
batches pauses the request clock.

`serve` prints one JSON line with the set-up time, one record per
request ([index, normalized seconds, ok, sha256 of the canonical output,
work units, raw seconds]) and the peak RSS; with `--trace` also the
per-layer report.  Request times are normalized to the reference host speed
with kernel samples taken right before and right after each request
(see calibration.py); a `--seconds` run stops after that much normalized
request time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, merge_reports  # noqa: E402

GEN_TIMEOUT_S = 120
BRACKET_SAMPLES = 2  # kernel samples between consecutive requests
RAW_STRETCH = 1.2


def _import_coconvex():
    """Import the checkout's own coconvex; an installed copy does not count."""
    import coconvex

    if SRC not in Path(coconvex.__file__).resolve().parents:
        raise SystemExit(f"coconvex was imported from {coconvex.__file__}, not {SRC}")
    return coconvex


def _input_path(directory: Path, index: int) -> Path:
    return directory / f"in-{index:05d}.json"


def _trace_path(directory: Path, start: int) -> Path:
    return directory / f"gen-trace-{start:05d}.json"


def cmd_gen(args) -> int:
    tracer = Tracer().install() if args.trace else None
    _import_coconvex()
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    for index in range(args.start, args.start + args.count):
        path = _input_path(directory, index)
        if path.exists():  # each input has its own substream; skipping shifts nothing
            continue
        if tracer:
            tracer.request = index
        path.write_text(workloads.make_input(args.workload, args.seed, index), encoding="utf-8")
    if tracer:
        if not tracer.uninstall():
            raise SystemExit("traced generator left a patched attribute behind")
        payload = dict(tracer.report(), spans=tracer.span_dump())
        _trace_path(directory, args.start).write_text(json.dumps(payload), encoding="utf-8")
    return 0


class Inputs:
    """Input files of one run; missing batches come from `gen` processes."""

    def __init__(self, args):
        self.workload = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.dir = Path(args.dir)
        self.trace = args.trace
        self.gen_reports = []
        self.gen_spans = []

    def path(self, index: int) -> Path:
        path = _input_path(self.dir, index)
        if not path.exists():
            self._generate(index - index % workloads.BATCH)
        return path

    def _generate(self, start: int):
        cmd = [sys.executable, str(HERE / "worker.py"), "gen",
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--dir", str(self.dir), "--start", str(start),
               "--count", str(workloads.BATCH)]
        if self.trace:
            cmd.append("--trace")
        subprocess.run(cmd, check=True, timeout=GEN_TIMEOUT_S)
        if self.trace:
            payload = json.loads(_trace_path(self.dir, start).read_text(encoding="utf-8"))
            self.gen_spans.append({"role": "gen", "start": start, **payload.pop("spans")})
            self.gen_reports.append(payload)

    def digest(self, count: int) -> str:
        data = b"".join(self.path(i).read_bytes() for i in range(count))
        return workloads.digest(data)


def run_request(cli, name: str, argv) -> tuple[int, str]:
    """One CLI call in process; any failure is a failed request, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # internal error escaping cli.main: record it, keep serving
        traceback.print_exc()
        rc = -1
    if rc != 0:
        sys.stderr.write(f"request {argv!r} exited {rc}: {err.getvalue().strip()}\n")
    return rc, out.getvalue()


def cmd_serve(args) -> int:
    tracer = Tracer().install() if args.trace else None
    coconvex = _import_coconvex()
    from coconvex import cli

    name = args.workload
    wl = workloads.WORKLOADS[name]
    inputs = Inputs(args)
    indices = [int(i) for i in args.indices.split(",")] if args.indices else None
    first = indices[0] if indices else 0
    inputs.path(first)
    setup_s = time.time() - args.t0

    records = []
    rss_kb, rss_requests = None, 0
    timed = raw_timed = 0.0
    factors = []
    kernel = [calibration.kernel_seconds() for _ in range(BRACKET_SAMPLES)]
    if indices is None and args.seconds > 0:
        indices = itertools.count()
    for index in indices or ():
        if tracer:
            tracer.request = index
        argv = workloads.request_argv(name, str(inputs.path(index)))
        start = time.perf_counter()
        rc, out = run_request(cli, name, argv)
        elapsed = time.perf_counter() - start
        kernel += [calibration.kernel_seconds() for _ in range(BRACKET_SAMPLES)]
        request_factor = calibration.factor(kernel[-2 * BRACKET_SAMPLES:])
        factors.append(request_factor)
        normalized = elapsed * request_factor
        timed += normalized
        raw_timed += elapsed
        ok = rc == 0 and workloads.property_holds(name, out)
        records.append([index, normalized, ok,
                        workloads.digest(workloads.canonical_output(name, out)),
                        workloads.work_units(name, out), elapsed])
        if len(records) == wl.rss_requests:
            rss_kb, rss_requests = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(records)
        # A slow host stretches the run, but never past RAW_STRETCH times its length.
        if args.seconds and (timed >= args.seconds or raw_timed >= RAW_STRETCH * args.seconds):
            break
    if rss_kb is None:
        rss_kb, rss_requests = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(records)

    result = {
        "setup_raw_s": setup_s,
        "timed_s": timed,
        "raw_timed_s": raw_timed,
        "time_factor": statistics.median(factors) if factors else 1.0,
        "records": records,
        "peak_rss_mb": rss_kb / 1024,
        "rss_requests": rss_requests,
        "input_digest": inputs.digest(workloads.BATCH),
        "backend": coconvex.RAT_BACKEND,
    }
    if tracer:
        result["restored"] = tracer.uninstall()
        result["trace"] = merge_reports([tracer.report()] + inputs.gen_reports)
        spans = [{"role": "serve", **tracer.span_dump()}] + inputs.gen_spans
        Path(args.spans_out).write_text(json.dumps({"processes": spans}), encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in ("gen", "serve"):
        p = sub.add_parser(cmd)
        p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        p.add_argument("--trace", action="store_true")
    gen = sub.choices["gen"]
    gen.add_argument("--start", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    serve = sub.choices["serve"]
    serve.add_argument("--t0", type=float, required=True, help="parent's time.time() at spawn")
    serve.add_argument("--seconds", type=float, default=0.0)
    serve.add_argument("--indices", help="comma-separated request indices to run once each")
    serve.add_argument("--spans-out", help="file for the spans of a traced run")
    args = parser.parse_args(argv)
    return cmd_gen(args) if args.cmd == "gen" else cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
