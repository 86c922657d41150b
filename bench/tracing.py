"""Span tracing installed from outside the library.

Each traced layer is a public function of an `ecic` module.  Callers import
by name, so a function is wrapped at every module attribute its callers
look up (for example `multiset_cover_search` in both `construct_search`
and `bounds`), not only where it is defined.  Spans (name, start, end,
parent) are kept in flat arrays and written out after the run; a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import ecic
from ecic.errors import BudgetExceeded

# span name -> "module:attribute" lookup sites; "ecic" is the package namespace
SITES = {
    "cover": ["construct_search:multiset_cover_search", "bounds:multiset_cover_search"],
    "exists": ["construct_search:exists_ecic"],
    "bounds": [
        "ecic:shortest_code_length",
        "bounds:shortest_code_length",
        "construct_search:alpha_bound",
        "construct_search:kappa_bound",
        "construct_search:singleton_bound",
    ],
    "code_exists": ["bounds:code_exists"],
    "min_rank": ["bounds:min_rank", "construct_search:min_rank", "index_codes:min_rank"],
    "alpha": ["bounds:generalized_independence_number"],
    "margin": [
        "ecic:verify_ecic",
        "construct_search:verify_ecic",
        "ecic:margins",
        "index_codes:margins",
    ],
    "verify_direct": ["ecic:verify_ecic_direct"],
    "confusable": [
        "construct_search:enumerate_error_vectors",
        "index_codes:enumerate_error_vectors",
    ],
    "decoder_build": ["decoder:build_receiver_decoder"],
    "decode": ["decoder:decode"],
    "relevant_set": ["decoder:in_relevant_error_set"],
    "coset_leader": ["decoder:coset_leader"],
    "solve_row_combination": ["decoder:solve_row_combination"],
    "solve_linear": ["field_linalg:solve_linear", "index_codes:solve_linear"],
}

class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        sid = self._stack[-1]
        return None if sid < 0 else self.names[sid]

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[sid] - self.starts[sid]
        calls: Counter = Counter()
        busy: Counter = Counter()
        for sid, name in enumerate(self.names):
            calls[name] += 1
            busy[name] += self.ends[sid] - self.starts[sid] - covered[sid]
        return calls, busy

    def totals(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(self.ends[s] - self.starts[s] for s, n in enumerate(self.names) if n == name)

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        base = self.starts[0] if self.names else 0.0
        with open(path, "w") as out:
            out.write("id,name,start_s,end_s,parent\n")
            for sid, name in enumerate(self.names):
                out.write(
                    f"{sid},{name},{self.starts[sid] - base:.9f},"
                    f"{self.ends[sid] - base:.9f},{self.parents[sid]}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the trace alone determines."""
        calls, busy = self.self_times()
        c = self.counts
        cover_time = self.totals("cover")
        margin_time = self.totals("margin")
        return {
            "cover.calls": calls["cover"],
            "cover.nodes": c["cover.nodes"],
            "cover.proof_nodes": c["cover.proof_nodes"],
            "cover.witness_nodes": c["cover.witness_nodes"],
            "cover.self_s": busy["cover"],
            "cover.nodes_per_s": c["cover.nodes"] / cover_time if cover_time else 0.0,
            "exists.calls": calls["exists"],
            "exists.nodes": c["exists.nodes"],
            "exists.self_s": busy["exists"],
            "code_exists.calls": calls["code_exists"],
            "code_exists.infeasible": c["code_exists.infeasible"],
            "bounds.self_s": busy["bounds"] + busy["code_exists"],
            "min_rank.calls": calls["min_rank"],
            "min_rank.self_s": busy["min_rank"],
            "alpha.self_s": busy["alpha"],
            "margin.calls": calls["margin"],
            "margin.self_s": busy["margin"],
            "margin.combinations": c["margin.combinations"],
            "margin.combinations_per_s": (
                c["margin.combinations"] / margin_time if margin_time else 0.0
            ),
            "verify_direct.self_s": busy["verify_direct"],
            "confusable.vectors": c["confusable.vectors"],
            "confusable.self_s": busy["confusable"],
            "decoder_build.calls": calls["decoder_build"],
            "decoder_build.self_s": busy["decoder_build"],
            "decode.calls": calls["decode"],
            "decode.self_s": busy["decode"],
            "relevant_set.self_s": busy["relevant_set"],
            "coset_leader.calls": calls["coset_leader"],
            "coset_leader.self_s": busy["coset_leader"],
            "solve_linear.calls": calls["solve_linear"],
            "solve_linear.self_s": busy["solve_linear"],
        }


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _count_cover(tracer: Tracer, parent: str | None, nodes: int, found: bool | None) -> None:
    tracer.counts["cover.nodes"] += nodes
    if found is not None:
        tracer.counts["cover.witness_nodes" if found else "cover.proof_nodes"] += nodes
    if parent == "exists":
        tracer.counts["exists.nodes"] += nodes


def _count_margin_combinations(tracer: Tracer, code) -> None:
    """Combinations the margin route enumerates, computed from its input: one
    q^|complement| span per distinct (demand, complement) receiver.  Early
    exits (a failing receiver, a zero-weight minimum) make the real count
    lower."""
    inst, q = code.inst, code.field.q
    keys = {(inst.demands[i], inst.complement(i)) for i in range(inst.num_receivers)}
    tracer.counts["margin.combinations"] += sum(q ** len(comp) for _, comp in keys)


class _CountedStream:
    """Confusable-vector stream whose every step is a span and a count."""

    def __init__(self, tracer: Tracer, stream):
        self._tracer = tracer
        self._stream = stream
        self._it = iter(stream)

    def __iter__(self):
        return self

    def __next__(self):
        sid = self._tracer.begin("confusable")
        try:
            vec = next(self._it)
        finally:
            self._tracer.end(sid)
        self._tracer.counts["confusable.vectors"] += 1
        return vec

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = tracer.current()
        if name == "margin":
            _count_margin_combinations(tracer, args[0] if args else kwargs["code"])
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BudgetExceeded as exc:
            if name == "cover":
                _count_cover(tracer, parent, exc.nodes or 0, None)
            raise
        finally:
            tracer.end(sid)
        if name == "cover":
            _count_cover(tracer, parent, result.nodes, result.found)
        elif name == "code_exists" and not result:
            tracer.counts["code_exists.infeasible"] += 1
        elif name == "confusable":
            return _CountedStream(tracer, result)
        return result

    return wrapper


def _module(name: str):
    return ecic if name == "ecic" else importlib.import_module(f"ecic.{name}")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every lookup site for the duration of the block; yields the list
    of (module, attribute, original) that `leftover` checks afterwards."""
    saved = []
    try:
        for name, sites in SITES.items():
            for site in sites:
                mod_name, attr = site.split(":")
                mod = _module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, _wrap(tracer, name, original))
        yield saved
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def leftover(saved) -> int:
    """How many lookup sites still hold something other than the original."""
    return sum(getattr(mod, attr) is not original for mod, attr, original in saved)
