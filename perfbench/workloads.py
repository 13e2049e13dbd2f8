"""The benchmark's workloads: seeded inputs, CLI requests and output checks.

Every workload drives the public entry point `coconvex.cli.main` in process,
one request at a time (a closed loop with one client).  Input `j` of a run
comes from its own SplitMix64 substream of the run seed, so no two requests
share a body and every cache hit happens inside one request.

This module imports coconvex only inside functions, so the orchestrator can
read the workload table without loading the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


# Inputs written per generator process; the first batch is part of set-up.
BATCH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # Fixed tail percentile: the highest one that keeps at least ten slower
    # requests in a run at the seed commit.  A fixed value keeps the metric
    # comparable when a faster commit completes more requests.
    tail_percentile: int
    # Peak RSS is read after this many requests: the module-level caches
    # grow with every distinct body, so a faster commit that completes more
    # requests in the same time must not read as a memory regression.
    rss_requests: int
    # Requests in the traced run; a fixed count keeps the per-layer counts
    # identical between runs with the same seed.
    trace_requests: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("convex_af", "afform", tail_percentile=80,
                 rss_requests=64, trace_requests=32),
        Workload("coconvex_lift", "lift-verify", tail_percentile=80,
                 rss_requests=48, trace_requests=24),
        Workload("suite_d2", "suite", tail_percentile=75,
                 rss_requests=32, trace_requests=12),
    )
}


def _rng(seed: int, name: str, index: int):
    from coconvex.harness import SplitMix64

    return SplitMix64(seed).derive(f"{name}:{index}")


def coconvex_generators(index: int) -> int:
    """Generator count of coconvex input `index`: 1, 2, 2, 1, 2, 2, ...

    One family in three has n=1.  The two shapes take disjoint latency
    ranges (about 60-140 ms and 260-780 ms), so an even mix would put the
    median in the gap between them and let it jump from run to run.
    """
    return 1 if index % 3 == 0 else 2


def make_input(name: str, seed: int, index: int) -> str:
    """JSON text of input `index`; suite_d2 inputs are suite seeds."""
    from coconvex.harness import gen_coconvex_family, gen_convex_family
    from coconvex.jsonio import coconvex_family_to_json, convex_family_to_json, dump_json

    rng = _rng(seed, name, index)
    if name == "convex_af":
        return dump_json(convex_family_to_json(gen_convex_family(rng, 3, 2, 3)))
    if name == "coconvex_lift":
        fam = gen_coconvex_family(rng, 3, coconvex_generators(index), 2)
        return dump_json(coconvex_family_to_json(fam))
    return dump_json({"seed": rng.next_u64()})


def request_argv(name: str, path: str) -> list[str]:
    if name == "suite_d2":
        with open(path, encoding="utf-8") as fh:
            suite_seed = json.load(fh)["seed"]
        return ["suite", "--suite", "all", "--dim", "2", "--trials", "1",
                "--seed", str(suite_seed)]
    return [WORKLOADS[name].command, path]


def canonical_output(name: str, out: str) -> bytes:
    """Output bytes that must repeat exactly; suite reports drop wall_time."""
    if name == "suite_d2":
        from coconvex.jsonio import dump_json

        try:
            report = json.loads(out)
            report.pop("wall_time", None)
            return dump_json(report).encode()
        except (ValueError, AttributeError):  # a failed request's output
            pass
    return out.encode()


def property_holds(name: str, out: str) -> bool:
    """The paper's property for one successful request's output."""
    try:
        obj = json.loads(out)
        if name == "convex_af":
            return obj["signature"]["pos"] == 1
        if name == "coconvex_lift":
            return obj["status"] == "ok"
        return all(r["fail"] == 0 for r in obj["results"].values())
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def work_units(name: str, out: str) -> int:
    """Requests counted for throughput: suite-trials for suite_d2."""
    if name != "suite_d2":
        return 1
    try:
        return sum(r["pass"] + r["fail"] for r in json.loads(out)["results"].values())
    except (ValueError, KeyError, TypeError, AttributeError):
        return 0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
