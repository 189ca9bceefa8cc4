"""Spans around bctlab's layer functions, recorded from outside the library.

`Tracer.install()` replaces each layer function at every reference the
loaded bctlab modules hold: module attributes (the CLI and the registry
import functions by name), module-level dicts (`tables` dispatches BCT
builders through one) and, for methods, the class attribute. A target
missing from the source records nothing.

One client issues one request at a time, so every span that starts while
a request runs belongs to it, whichever thread it runs on. A span's
parent is the innermost open span on its own thread, or the request's
root span when its thread has none open (pool threads). Self time is a
span's duration minus the union of its children's intervals, so two
children overlapping in time on two threads are not charged twice.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

# (layer, module, attribute): functions wrapped wherever they are referenced.
FUNCTIONS = [
    ("tables.bct_fast", "bctlab.tables", "bct_fast"),
    ("tables.bct_row", "bctlab.tables", "bct_row"),
    ("tables.ddt", "bctlab.tables", "ddt"),
    ("tables.export", "bctlab.tables", "ktable_to_csv"),
    ("tables.export", "bctlab.tables", "ktable_to_json"),
    ("walsh.spectrum", "bctlab.walsh", "walsh_spectrum"),
    ("walsh.moment", "bctlab.walsh", "bct_moment_direct"),
    ("walsh.moment", "bctlab.walsh", "bct_moment_walsh"),
    ("walsh.certificate", "bctlab.walsh", "delta_uniform_certificate"),
    ("walsh.certificate", "bctlab.walsh", "two_uniform_certificate"),
    ("verify.claim", "bctlab.verify", "reproduce"),
    ("families.build", "bctlab.sbox", "read_sbox"),
]
# (layer, module, class, method): wrapped on the class.
METHODS = [
    ("gf2n.tables", "bctlab.gf2n", "FieldSpec", "_tables"),
    ("families.build", "bctlab.families", "FamilySpec", "build"),
]
# Layers whose first argument (the S-box) is kept for work counts.
KEEP_SBOX = ("tables.bct_fast", "tables.bct_row")


def ddt_pairs(ddt, sbox) -> int:
    """Pairs `bct_fast` enumerates for sbox: sum over (c, b) of DDT(c, b)^2."""
    counts = ddt(sbox).counts.astype("int64")
    return int((counts * counts).sum())


def maxrss_mb() -> float:
    """This process's peak resident set so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float
    rss0: float
    end: float = 0.0
    rss1: float = 0.0
    sbox: object = None
    result: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span) -> float:
    return span.duration - union_length(
        [(c.start, c.end) for c in span.children], span.start, span.end
    )


def self_rss_rise(span: Span) -> float:
    """Rise of the peak RSS during the span, less what its children raised."""
    rise = span.rss1 - span.rss0 - sum(c.rss1 - c.rss0 for c in span.children)
    return max(rise, 0.0)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: Span | None = None
        self.spans: list[Span] = []
        self.installed: list[str] = []

    # -- request scope -----------------------------------------------------

    def begin(self) -> Span:
        self.spans = []
        self.root = Span("cli.main", None, time.perf_counter(), maxrss_mb())
        return self.root

    def end(self) -> list[Span]:
        root, self.root = self.root, None
        root.end, root.rss1 = time.perf_counter(), maxrss_mb()
        spans, self.spans = self.spans, []
        return [root] + spans

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        keep_sbox = name in KEEP_SBOX

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = tracer.root
            if root is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else root
            span = Span(name, parent, time.perf_counter(), maxrss_mb())
            if keep_sbox:
                span.sbox = args[0] if args else kwargs.get("f")
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "verify.claim":
                    span.result = result  # its status is counted
                return result
            finally:
                span.end, span.rss1 = time.perf_counter(), maxrss_mb()
                stack.pop()
                with tracer._lock:
                    parent.children.append(span)
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target present in the loaded bctlab modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bctlab" or k.startswith("bctlab."))]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is orig:
                                value[dkey] = wrapped
            self.installed.append(f"{modname}.{attr}")
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = vars(cls).get(attr) if isinstance(cls, type) else None
            if not inspect.isfunction(orig):  # gone, or no longer a plain method
                continue
            setattr(cls, attr, self.wrap(name, orig))
            self.installed.append(f"{modname}.{clsname}.{attr}")


# Per-layer metrics of one traced pass: (name, unit, better).
PER_LAYER = [
    ("tables.bct_fast_s", "s", "lower"),
    ("tables.bct_fast_calls", "count", "lower"),
    ("tables.bct_fast_pairs", "count", "lower"),
    ("tables.bct_fast_mpairs_per_s", "Mpair/s", "higher"),
    ("tables.bct_fast_rss_rise_mb", "MiB", "lower"),
    ("tables.bct_row_s", "s", "lower"),
    ("tables.bct_row_calls", "count", "lower"),
    ("tables.bct_row_pairs", "count", "lower"),
    ("tables.ddt_s", "s", "lower"),
    ("tables.ddt_calls", "count", "lower"),
    ("tables.ddt_rss_rise_mb", "MiB", "lower"),
    ("tables.export_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.rss_rise_mb", "MiB", "lower"),
    ("walsh.spectrum_s", "s", "lower"),
    ("walsh.moment_s", "s", "lower"),
    ("walsh.certificate_s", "s", "lower"),
    ("verify.claim_s", "s", "lower"),
    ("verify.pool_parallelism", "ratio", "higher"),
    ("verify.claims_pass", "count", "higher"),
    ("verify.claims_fail", "count", "lower"),
    ("verify.claims_skipped", "count", "lower"),
    ("gf2n.tables_s", "s", "lower"),
    ("gf2n.tables_calls", "count", "lower"),
    ("families.build_s", "s", "lower"),
    ("families.build_calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# Work counts that must repeat exactly from pass to pass and run to run.
EXACT = (
    "tables.bct_fast_calls", "tables.bct_fast_pairs", "tables.bct_row_calls",
    "tables.bct_row_pairs", "tables.ddt_calls", "cli.out_bytes",
    "verify.claims_pass", "verify.claims_fail", "verify.claims_skipped",
    "gf2n.tables_calls", "families.build_calls",
)


def summarize(requests, pairs_of) -> dict:
    """Per-layer metrics of one pass.

    requests: (spans, out_bytes) per request, root span first, as
    returned by `Tracer.end`. pairs_of(sbox) gives the pairs `bct_fast`
    enumerates for that S-box; it is called outside every span.
    """
    m = {name: 0 for name, _, _ in PER_LAYER}
    fast_busy = claim_busy = claim_wall = 0.0
    for spans, out_bytes in requests:
        root = spans[0]
        m["cli.self_s"] += self_time(root)
        m["cli.rss_rise_mb"] += self_rss_rise(root)
        m["cli.out_bytes"] += out_bytes
        has_claims = False
        for span in spans[1:]:
            layer = span.name
            m[f"{layer}_s"] += self_time(span)
            if span.parent.name != layer:  # count a recursive call once
                key = f"{layer}_calls"
                if key in m:
                    m[key] += 1
            key = f"{layer}_rss_rise_mb"
            if key in m:
                m[key] += self_rss_rise(span)
            if layer == "tables.bct_fast":
                m["tables.bct_fast_pairs"] += pairs_of(span.sbox)
                fast_busy += span.duration
            elif layer == "tables.bct_row":
                m["tables.bct_row_pairs"] += 4 ** span.sbox.spec.n
            elif layer == "verify.claim":
                has_claims = True
                claim_busy += span.duration
                status = str(getattr(span.result, "status", ""))
                if status in ("pass", "fail"):
                    m[f"verify.claims_{status}"] += 1
                elif status.startswith("skipped"):
                    m["verify.claims_skipped"] += 1
        if has_claims:
            claim_wall += root.duration
    if fast_busy:
        m["tables.bct_fast_mpairs_per_s"] = m["tables.bct_fast_pairs"] / fast_busy / 1e6
    if claim_wall:
        m["verify.pool_parallelism"] = claim_busy / claim_wall
    return m
