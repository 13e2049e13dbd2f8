"""Per-layer tracing of the coconvex modules, from outside the library.

`Tracer.install()` wraps each function named in `TARGETS` and rebinds every
`coconvex.*` module attribute that holds the original object, including the
package namespace and `coconvex.rational` (forms imports `compare_root_sum`
inside function bodies).  `uninstall()` puts every original back.

Each call records a span (name, start, end, parent span, request id) in
memory.  Per function the tracer keeps `calls`, `total_s` (outermost
activations only, so recursion is not counted twice) and `self_s` (total
minus the time covered by wrapped child calls).  Hot helpers such as `dot`,
`vadd`, `primitive_integer` and `rat` stay unwrapped: they run millions of
times and their cost lands in the caller's self time.

`volume` and `cone_polyhedron` are `lru_cache` objects; they are wrapped
outside the cache, so cache hits count as calls.
"""

from __future__ import annotations

import importlib
import sys
import time

# Functions marked with a trailing "*" get a reported self_s; every
# function gets calls and total_s.
TARGETS = {
    "cli": ["main*"],
    "jsonio": [
        "read_json_file",
        "convex_family_from_json",
        "coconvex_family_from_json*",
        "dump_json",
    ],
    "harness": ["run_suite*", "gen_convex_body", "gen_convex_family", "gen_coconvex_family"],
    "lift": [
        "lift",
        "lifted_volume_polynomial*",
        "sector_constant",
        "verify_identity_V*",
        "verify_identity_Q*",
        "verify_signature_argument*",
    ],
    "forms": [
        "volume_polynomial",
        "volume_polynomial_interpolated",
        "mixed_volume*",
        "co_volume_polynomial*",
        "co_combination_body*",
        "polynomial_af_forms",
        "cs_check",
        "reversed_cs_check",
        "reversed_bm_check",
        "generalized_rbm_check",
        "mink1_check",
        "mink2_check",
    ],
    "polynomial": ["fit_homogeneous*", "signature"],
    "cones": ["make_cone", "make_coconvex*", "co_volume", "cone_polyhedron"],
    "polytope": [
        "convex_hull*",
        "minkowski_sum*",
        "clip*",
        "volume*",
        "dd_convert",
        "dd_convert_back",
        "contains",
    ],
    "dd": ["cone_extreme_rays*"],
    "linalg": [
        "rref",
        "rank",
        "nullspace_basis",
        "independent_row_indices",
        "invert_matrix",
        "solve_square",
    ],
    "rational": ["compare_root_sum"],
}

# Work counters recorded at the same boundaries as the spans.
COUNTERS = (
    "polynomial.fit_homogeneous.evaluations",
    "polytope.minkowski_sum.candidates",
    "dd.cone_extreme_rays.rows_in",
    "dd.cone_extreme_rays.rays_out",
    "polytope.volume.cache_hits",
    "polytope.volume.cache_lookups",
)


def target_names():
    """(dotted name, reports self_s) for every wrapped function, in order."""
    out = []
    for module, funcs in TARGETS.items():
        for f in funcs:
            out.append((f"{module}.{f.rstrip('*')}", f.endswith("*")))
    return out


def _coconvex_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "coconvex" or name.startswith("coconvex."))]


class Tracer:
    """Wraps the library's public functions; one instance per process."""

    def __init__(self):
        self.names = [name for name, _ in target_names()]
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self.request = -1
        self._stack = []  # [span id, child seconds] per open call
        self._active = dict.fromkeys(self.names, 0)
        self._patched = []  # (module, attribute, original)
        self._wrappers = set()
        self._volume = None
        self._volume_info = None

    # -- installation -------------------------------------------------
    def install(self):
        for module_name in TARGETS:
            importlib.import_module(f"coconvex.{module_name}")
        modules = _coconvex_modules()
        for name in self.names:
            module_name, func = name.split(".")
            original = getattr(sys.modules[f"coconvex.{module_name}"], func)
            wrapper = self._wrap(name, original)
            self._wrappers.add(id(wrapper))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
            if name == "polytope.volume":
                self._volume = original
                self._volume_info = original.cache_info()
        return self

    def uninstall(self) -> bool:
        """Restore every rebound attribute; True when none survives."""
        if self._volume is not None:
            info = self._volume.cache_info()
            before = self._volume_info
            self.counters["polytope.volume.cache_hits"] += info.hits - before.hits
            self.counters["polytope.volume.cache_lookups"] += (
                info.hits + info.misses - before.hits - before.misses
            )
            self._volume = None
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._patched)
        leftover = any(id(v) in self._wrappers
                       for m in _coconvex_modules() for v in vars(m).values())
        self._patched = []
        return restored and not leftover

    # -- spans --------------------------------------------------------
    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        stats = self.stats[name]
        spans, stack, active = self.spans, self._stack, self._active
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        def count_work(args, kwargs, result):
            if name == "polytope.minkowski_sum":
                P, Q = args[0], args[1]
                counters["polytope.minkowski_sum.candidates"] += len(P.vertices) * len(Q.vertices)
            elif name == "dd.cone_extreme_rays":
                rows = args[0] if args else kwargs["rows"]
                counters["dd.cone_extreme_rays.rows_in"] += len(rows)
                counters["dd.cone_extreme_rays.rays_out"] += len(result[0])

        def wrapper(*args, **kwargs):
            if name == "polynomial.fit_homogeneous":
                args, kwargs = _counting_value_fn(args, kwargs, counters)
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                elapsed = end - start
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                if not active[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                spans[sid] = (name_id, start, end, parent, tracer.request)
            count_work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
        return wrapper

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}

    def span_dump(self) -> dict:
        return {"names": self.names,
                "fields": ["name", "start", "end", "parent", "request"],
                "spans": self.spans}


def _counting_value_fn(args, kwargs, counters):
    def counted(fn):
        def value(point):
            counters["polynomial.fit_homogeneous.evaluations"] += 1
            return fn(point)
        return value

    if len(args) >= 4:
        args = args[:3] + (counted(args[3]),) + args[4:]
    elif "value_fn" in kwargs:
        kwargs = dict(kwargs, value_fn=counted(kwargs["value_fn"]))
    return args, kwargs


def merge_reports(reports):
    """Sum several `Tracer.report()` results (one per traced process)."""
    stats = {name: [0, 0.0, 0.0] for name, _ in target_names()}
    counters = dict.fromkeys(COUNTERS, 0)
    for rep in reports:
        for name, (calls, total, self_s) in rep["stats"].items():
            acc = stats[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in rep["counters"].items():
            counters[key] += value
    return {"stats": stats, "counters": counters}
