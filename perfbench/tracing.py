"""Span recording around upstack's layer entry points, from outside.

install() rebinds each entry point named in LAYERS, and every alias of it
in the loaded upstack modules, to a wrapper that records a span: name,
start, end, parent span and query id. Work counters are read from the
arguments and return values the layer already has. A name that a later
version of the package no longer defines is reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _phase_name(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    return "kphase.pop_phase" if getattr(kind, "name", "") == "POP" else "kphase.push_phase"


def _nodes_edges(config_automaton):
    nodes = edges = 0
    for nfa in config_automaton.components.values():
        nodes += len(nfa.nodes())
        edges += nfa.edge_count()
    return nodes, edges


def _count_productions(tracer, args, result):
    tracer.counts["grammar.productions"] += len(result.productions)


def _count_forms(tracer, args, result):
    tracer.counts["kernel.forms_explored"] += result[1]


def _count_round(tracer, args, result):
    nodes, edges = _nodes_edges(args[0])
    tracer.counts["kphase.nodes"] += nodes
    tracer.counts["kphase.edges"] += edges


def _count_shrink(tracer, args, result):
    tracer.counts["nfa.compact_in"] += len(args[0].nodes())
    tracer.counts["nfa.compact_out"] += len(result.nodes())


def _count_replay(tracer, args, result):
    tracer.counts["oracle.replays"] += 1
    if result is not None:
        tracer.counts["oracle.replays_found"] += 1
        tracer.settled_queries.add(tracer.query)


# (module, attribute, span name or a function of the call's arguments,
# counter read after the call). kphase.fixpoint receives each round's
# automaton as its first argument, which gives the size after the round.
LAYERS = (
    ("upstack.model", "parse_model", "model.parse", None),
    ("upstack.regex", "compile_config_regex", "regex.compile", None),
    ("upstack.dot", "export_dot", "dot.export", None),
    ("upstack.grammar", "single_origin", "grammar.single_origin", None),
    ("upstack.grammar", "build_post_grammar", "grammar.build", _count_productions),
    ("upstack.grammar", "search_derivation", "kernel.search", _count_forms),
    ("upstack.checkers", "bounded_phase_pre_star", "kphase.pre_star", None),
    ("upstack.kphase", "phase_pre", _phase_name, None),
    ("upstack.kphase", "equivalent_sets", "kphase.fixpoint", _count_round),
    ("upstack.nfa", "Nfa.compact", "nfa.compact", _count_shrink),
    ("upstack.nfa", "Nfa.trim", "nfa.trim", None),
    ("upstack.nfa", "Nfa.determinize", "nfa.determinize", None),
    ("upstack.configsets", "intersect_sets", "configsets.intersect", None),
    ("upstack.configsets", "union_sets", "configsets.union", None),
    ("upstack.upperapprox", "overapprox_post", "upperapprox.post", None),
    ("upstack.upperapprox", "trace_overapprox", "upperapprox.trace", None),
    ("upstack.upperapprox", "saturate_upper", "upperapprox.saturate", None),
    ("upstack.pds", "pds_post_star", "pds.post_star", None),
    ("upstack.checkers", "decide_safety", "checkers.decide", None),
    ("upstack.checkers", "oracle_trace", "oracle.replay", _count_replay),
)

# Span names each LAYERS entry can produce, for reporting absent layers.
SPAN_NAMES = {
    "phase_pre": ("kphase.pop_phase", "kphase.push_phase"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.stack: list[int] = []
        self.query: object = None
        self.counts: Counter = Counter()
        self.settled_queries: set = set()
        self.absent: list[str] = []
        self.rebound: list[tuple[object, str, object]] = []  # (namespace, name, original)

    def wrap(self, fn, name, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock(), 0.0, stack[-1] if stack else None, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "upstack"]
        for module_name, attribute, name, counter in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.extend(SPAN_NAMES.get(attribute, (name,)))
                continue
            traced = self.wrap(original, name, counter)
            if owner_name:
                places = [(owner, member)]
            else:
                places = [(mod, key) for mod in modules
                          for key, value in list(vars(mod).items()) if value is original]
            for namespace, key in places:
                setattr(namespace, key, traced)
                self.rebound.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in self.rebound:
            setattr(namespace, key, original)
        self.rebound.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of
        that name only, so recursion is not counted twice) and self
        seconds (duration minus the time covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                row["total_s"] += end - start
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "settled_queries": sorted(self.settled_queries, key=repr),
                "absent": self.absent}


def merge(dumps) -> Tracer:
    """A tracer holding the spans and counts of several dumps (one per
    traced CLI call); span parents are re-based."""
    tracer = Tracer()
    for dump in dumps:
        base = len(tracer.spans)
        for name, start, end, parent, query in dump["spans"]:
            tracer.spans.append([name, start, end, None if parent is None else parent + base, query])
        tracer.counts.update(dump["counts"])
        tracer.settled_queries.update(dump["settled_queries"])
        tracer.absent = sorted(set(tracer.absent) | set(dump["absent"]))
    return tracer


# Spans reported as <name>_ms: inclusive time of the traced pass.
TIMED = (
    "model.parse", "regex.compile", "dot.export", "grammar.single_origin", "grammar.build",
    "kernel.search", "kphase.pre_star", "kphase.pop_phase", "kphase.push_phase",
    "kphase.fixpoint", "nfa.compact", "nfa.trim", "nfa.determinize", "configsets.intersect",
    "configsets.union", "upperapprox.post", "upperapprox.trace", "upperapprox.saturate",
    "pds.post_star", "checkers.decide", "oracle.replay",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms, inclusive)."""
    times = tracer.layer_times()

    def calls(span):
        return times.get(span, {}).get("calls", 0)

    def seconds(span):
        return times.get(span, {}).get("total_s", 0.0)

    out = {f"{span}_ms": 1000 * seconds(span) for span in TIMED}
    counts = tracer.counts
    rounds = calls("kphase.fixpoint")
    decided_queries = {span[4] for span in tracer.spans if span[0] == "checkers.decide"}
    out.update({
        "grammar.productions": counts["grammar.productions"],
        "kernel.forms_explored": counts["kernel.forms_explored"],
        "kernel.forms_per_s": _ratio(counts["kernel.forms_explored"], seconds("kernel.search")),
        "kphase.rounds": rounds,
        "kphase.nodes": _ratio(counts["kphase.nodes"], rounds),
        "kphase.edges": _ratio(counts["kphase.edges"], rounds),
        "nfa.compact_calls": calls("nfa.compact"),
        "nfa.compact_shrink": _ratio(counts["nfa.compact_out"], counts["nfa.compact_in"]),
        "nfa.trim_calls": calls("nfa.trim"),
        "upperapprox.calls": calls("upperapprox.post"),
        "checkers.pre_hit_ratio": _ratio(
            len(tracer.settled_queries & decided_queries), len(decided_queries)),
        "oracle.replay_found_ratio": _ratio(counts["oracle.replays_found"], counts["oracle.replays"]),
    })
    return out


def layer_table(tracer: Tracer, wall_s: float) -> list[str]:
    """Human-readable rows: calls, inclusive and self time, share of the
    traced pass."""
    rows = []
    for name, row in sorted(tracer.layer_times().items(), key=lambda kv: -kv[1]["total_s"]):
        rows.append(
            f"  {name:<24} calls {row['calls']:>8}  total {1000 * row['total_s']:>10.1f} ms"
            f"  self {1000 * row['self_s']:>10.1f} ms  share {_ratio(row['total_s'], wall_s):6.1%}"
        )
    rows.extend(f"  {name:<24} absent" for name in tracer.absent)
    return rows
