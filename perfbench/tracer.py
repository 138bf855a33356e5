"""Span tracer that instruments plethykit from outside the package.

``Tracer.install`` replaces each instrumented public function by a
wrapper in every loaded ``plethykit`` module that holds a reference to
it, so calls made inside the package (``search`` calling ``p_poly``,
``classify_gl`` calling ``solve_twist``) are recorded as well.  Each
call becomes one span: a name, a start, an end and the id of the span
that was open when it began.  Spans are kept in flat arrays in memory
and reduced to per-function totals only after the job ends.

A function that no longer exists under its name, or a counter the
function no longer exposes (the ``p_poly`` cache statistics), is
reported as absent instead of as zero, so the tracer keeps working
when later changes rename or remove call paths.
"""

import sys
import time
from array import array
from collections import Counter

# (module, function) pairs that get a span for every call.
SPANNED = (
    ("hookcontent", "p_poly"),
    ("plethysm", "sl_isomorphic"),
    ("staircase", "main_family"),
    ("staircase", "pairwise_sl_isomorphic"),
    ("twist", "solve_twist"),
    ("search", "enumerate_classes"),
    ("search", "classify_gl"),
    ("oracle", "specialize_ssyt"),
    ("oracle", "specialize_bialternant"),
)
# Cheap predicates that are only counted: a span per call would cost
# more than the call itself.
COUNTED = (("twist", "nu2_obstruction"),)

PAIR_LABELS = ("direct", "twistable", "obstructed", "unresolved")


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never double-counts and never
    goes negative.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=starts.__getitem__):
            lo, hi = max(starts[k], lo_p), min(ends[k], hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


class Tracer:
    """Records spans and counters; one instance per traced job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        sid = self.begin(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    # -- instrumentation ---------------------------------------------

    def _observer(self, qualname: str, fn):
        """(before, after) hooks that derive counters from one call, or
        (None, None) for a function that only gets a span."""
        counts = self.counts
        if qualname == "hookcontent.p_poly":
            info = getattr(fn, "cache_info", None)
            if info is None:
                self.absent.add("hookcontent.p_poly.cache_misses")
            else:
                counts.setdefault("hookcontent.p_poly.cache_misses", 0)
            counts.setdefault("hookcontent.p_poly.coeffs_computed", 0)

            def before():
                return info().misses if info else None

            def after(result, misses):
                if info is None or info().misses != misses:
                    counts["hookcontent.p_poly.cache_misses"] += 1
                    counts["hookcontent.p_poly.coeffs_computed"] += len(
                        getattr(result, "coefficients", ())
                    )

            return before, after
        if qualname == "twist.solve_twist":
            counts.setdefault("twist.solve_twist.found", 0)

            def after(result, _):
                counts["twist.solve_twist.found"] += result is not None

            return None, after
        if qualname == "search.enumerate_classes":
            counts.setdefault("search.classes", 0)

            def after(result, _):
                counts["search.classes"] += len(result)

            return None, after
        if qualname == "search.classify_gl":

            def after(result, _):
                for label, pairs in result.items():
                    counts[f"search.pairs.{label}"] += len(pairs)

            return None, after
        return None, None

    def _wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)
        begin, end = self.begin, self.end
        before, after = self._observer(qualname, fn)

        def wrapper(*args, **kwargs):
            token = before() if before else None
            sid = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(sid)
            if after:
                after(result, token)
            return result

        return wrapper

    def _wrap_counted(self, qualname: str, fn):
        counts, key = self.counts, qualname + ".calls"
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "plethykit") -> None:
        """Rebind every instrumented function wherever the package
        holds a reference to it; missing functions are marked absent."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for specs, wrap in ((SPANNED, self._wrap), (COUNTED, self._wrap_counted)):
            for module, func in specs:
                qualname = f"{module}.{func}"
                home = sys.modules.get(f"{package}.{module}")
                original = getattr(home, func, None)
                if original is None:
                    self.absent.add(qualname)
                    continue
                wrapper = wrap(qualname, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (summed duration), self_s."""
        selfs = self_times(self.parents, self.starts, self.ends)
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_ids):
            row = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        return out

    def layer_metrics(self, root: str) -> dict[str, float | None]:
        """The per-layer metrics of the benchmark, None where absent.

        ``root`` names the span that covers the whole job; its busy
        time is the traced wall time and its self time is what no
        instrumented function accounts for.
        """
        rows = self.summary()
        idle = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

        def span(name: str, stat: str):
            return None if name in self.absent else rows.get(name, idle)[stat]

        def count(name: str, owner: str):
            if name in self.absent or owner in self.absent:
                return None
            if name not in self.counts and rows.get(owner, idle)["calls"]:
                return None  # the function ran but no longer reports this
            return self.counts.get(name, 0)

        p_poly, sl_iso, solve = "hookcontent.p_poly", "plethysm.sl_isomorphic", "twist.solve_twist"
        metrics: dict[str, float | None] = {
            "job.traced_wall_s": span(root, "busy_s"),
            "job.self_s": span(root, "self_s"),
            f"{p_poly}.calls": span(p_poly, "calls"),
            f"{p_poly}.cache_misses": count(f"{p_poly}.cache_misses", p_poly),
            f"{p_poly}.coeffs_computed": count(f"{p_poly}.coeffs_computed", p_poly),
            f"{p_poly}.busy_s": span(p_poly, "busy_s"),
            f"{sl_iso}.calls": span(sl_iso, "calls"),
            f"{sl_iso}.busy_s": span(sl_iso, "busy_s"),
            f"{sl_iso}.self_s": span(sl_iso, "self_s"),
            f"{solve}.calls": span(solve, "calls"),
            f"{solve}.found": count(f"{solve}.found", solve),
            f"{solve}.busy_s": span(solve, "busy_s"),
            f"{solve}.self_s": span(solve, "self_s"),
            "twist.nu2_obstruction.calls": count("twist.nu2_obstruction.calls", "twist.nu2_obstruction"),
            "search.classes": count("search.classes", "search.enumerate_classes"),
            "cli.main.busy_s": span("cli.main", "busy_s"),
            "cli.self_s": span("cli.main", "self_s"),
        }
        for name in ("staircase.main_family", "staircase.pairwise_sl_isomorphic"):
            metrics[f"{name}.calls"] = span(name, "calls")
            metrics[f"{name}.busy_s"] = span(name, "busy_s")
        for name in ("search.enumerate_classes", "search.classify_gl"):
            metrics[f"{name}.busy_s"] = span(name, "busy_s")
            metrics[f"{name}.self_s"] = span(name, "self_s")
        for label in PAIR_LABELS:
            metrics[f"search.pairs.{label}"] = count(f"search.pairs.{label}", "search.classify_gl")
        for name in ("oracle.specialize_ssyt", "oracle.specialize_bialternant"):
            metrics[f"{name}.calls"] = span(name, "calls")
            metrics[f"{name}.busy_s"] = span(name, "busy_s")
        return metrics
