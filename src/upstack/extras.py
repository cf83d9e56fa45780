"""The library's functions that no CLI command runs.

Every CLI call compiles the modules it imports, so what no command runs
lives here, and no command imports this module. Each function is listed
with the module it was written for; a moved method is still a method of
its class, loaded on first use (`upstack._MovedMethod`), and a moved
function still imports from its old module only where the package's
compatibility contract names it there (see `upstack`):

- from `core`: the one-step semantics on `Configuration` objects
  (`successors`, which `oracle.explore` inlines and is checked against,
  `apply_rule`, `step`, `run_trace`), a fact of a rule sequence
  (`trace_upper_word`), `UpdsSpec.rules_reading`, the scan that words
  the error of a system failing its checks (`UpdsSpec._reject`), the
  constructor from plain tuples (`make_spec`), and the text that `repr`
  gives for a rule (`rule_repr`) and `str` for a configuration
  (`config_str`);
- from `oracle`: the ground truths the tests compare the analyses with,
  the backward phase-bounded closure (`oracle_pre_kphase`) and the
  lower-stack-only closure (`pds_step`, `pds_closure`, `pds_reaches`);
- from `pds`: the backward saturation `pds_pre_star`, the one-element
  lower set `singleton_lower`, and the membership test, word listing
  and one state's slice (`LowerAutomaton.slice`) of a `LowerAutomaton`;
- from `upperapprox`: the zone projections (`project_lower`,
  `project_upper`) and their product (`upper_lower_product`), one
  state's slice of an upper set (`UpperAutomaton.slice`) and all of
  them (`upper_config_set`), relabelling edges (`Nfa.map_labels`), the
  check and the membership test of a trace automaton built by hand
  (`TraceAutomaton.validate`, `TraceAutomaton.accepts`), and the upper
  saturation from one configuration (`saturate_upper`);
- from `kphase`: `phase_pre`, a single phase;
- from `regex` and `model`: the parser of a set expression on its own
  (`parse_config_regex`), the printers (`print_config_regex`,
  `print_model`) and `ModelFile ==` (`model_eq`);
- from `nfa`: `from_words`, an automaton of listed words;
- from `configsets`: `from_config_set`, a set of listed configurations,
  and the scan behind `ConfigAutomaton.validate`, which only sets built
  by hand need.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping, Sequence

from .compaction import config_word, union_sets
from .configsets import ConfigAutomaton, bar, is_barred, unbar
from .core import (
    ConfigTuple,
    Configuration,
    Move,
    Rule,
    UpdsSpec,
    Word,
    _new,
    check_configuration,
)
from .errors import MalformedInputError, ResourceLimitError, RuleNotEnabledError
from .grammar import RuleKind
from .kphase import PhaseKind, _Moves, _phases
from .limits import DEFAULT_NODE_BUDGET
from .model import ModelFile
from .nfa import EPSILON, Label, Nfa
from .pds import LowerAutomaton
from .regex import _parse_text
from .upperapprox import TraceAutomaton, UpperAutomaton, _close_upper

# -- systems, records and one-step semantics (core) ---------------------------


def rules_reading(spec: UpdsSpec, state: str, symbol: str) -> tuple[Rule, ...]:
    """The rules that read `symbol` in `state`, in declaration order
    (`UpdsSpec.rules_reading`)."""
    return tuple(move[0] for move in spec.moves.get((state, symbol), ()))


def _reject(spec: UpdsSpec) -> None:
    """Raise the error of the first bad part of a system under
    construction, scanning its identifiers and then its rules in order
    (`UpdsSpec._reject`)."""
    for name, ids in (("state", spec.states), ("symbol", spec.alphabet)):
        seen = set()
        for ident in ids:
            if not ident:
                raise MalformedInputError(f"empty {name} identifier")
            if ident in seen:
                raise MalformedInputError(f"duplicate {name} {ident!r}")
            seen.add(ident)
    states, symbols, seen_rules = set(spec.states), set(spec.alphabet), set()
    for rule in spec.rules:
        for st in (rule.from_state, rule.to_state):
            if st not in states:
                raise MalformedInputError(f"undeclared state {st!r} in rule {rule}")
        for sym in (rule.read_symbol,) + rule.written:
            if sym not in symbols:
                raise MalformedInputError(f"undeclared symbol {sym!r} in rule {rule}")
        if rule in seen_rules:
            raise MalformedInputError(f"duplicate rule {rule}")
        seen_rules.add(rule)


def make_spec(
    states: Iterable[str],
    alphabet: Iterable[str],
    rules: Iterable[tuple[str, str, str, Sequence[str]]],
) -> UpdsSpec:
    """Convenience constructor from plain tuples. Each rule is built by one
    `tuple.__new__` call, and the writes are checked in one pass; only a
    failed check builds the rules through `Rule`, to word the error."""
    built = tuple([_new(Rule, (f, r, t, tuple(w))) for f, r, t, w in rules])
    if max(map(len, map(Rule.written.fget, built)), default=0) > 2:
        for rule in built:
            Rule(*rule)
    return UpdsSpec(tuple(states), tuple(alphabet), built)


def rule_repr(rule: Rule) -> str:
    """`repr` of a rule: the constructor call with its fields named."""
    return (
        f"{type(rule).__qualname__}(from_state={rule[0]!r}, "
        f"read_symbol={rule[1]!r}, to_state={rule[2]!r}, written={rule[3]!r})"
    )


def config_str(c: Configuration) -> str:
    """`str` of a configuration: `<state: upper ^ lower>`, `_` for an
    empty word."""
    up = " ".join(c.upper) if c.upper else "_"
    low = " ".join(c.lower) if c.lower else "_"
    return f"<{c.state}: {up} ^ {low}>"


def successors(
    moves: Iterable[Move], upper: Word, lower: Word, grow: bool = True
) -> list[tuple[Rule, ConfigTuple]]:
    """Apply move entries (rule, to_state, arity, written) whose rules read
    the top of a nonempty lower word, in the order given; successors are
    plain (state, upper, lower) tuples. With grow=False a push onto an
    empty upper word, the only step that grows the total stack size, is
    left out. This is the definition of a step that `step` and
    `apply_rule` use; `oracle.explore` inlines it and is checked against
    it."""
    top, rest = lower[:1], lower[1:]
    out = []
    for rule, to_state, arity, written in moves:
        if arity == 0:
            out.append((rule, (to_state, upper + top, rest)))
        elif arity == 1:
            out.append((rule, (to_state, upper, written + rest)))
        elif upper or grow:
            # upper[:-1] is () on an empty upper word: nothing is overwritten.
            out.append((rule, (to_state, upper[:-1], written + rest)))
    return out


def apply_rule(rule: Rule, c: Configuration) -> Configuration:
    """Apply an enabled rule; the caller guarantees enabledness."""
    move = (rule, rule.to_state, len(rule.written), rule.written)
    ((_, succ),) = successors((move,), c.upper, c.lower)
    return Configuration(*succ)


def step(spec: UpdsSpec, c: Configuration) -> list[tuple[Rule, Configuration]]:
    """All one-step successors of c, in rule declaration order."""
    if not c.lower:
        return []
    moves = spec.moves.get((c.state, c.lower[0]), ())
    return [
        (rule, Configuration(*succ))
        for rule, succ in successors(moves, c.upper, c.lower)
    ]


def run_trace(spec: UpdsSpec, c: Configuration, trace: Sequence[Rule]) -> Configuration:
    """Run a trace from c; raises RuleNotEnabledError at the first step
    whose rule does not read the current state and lower top."""
    current = c
    for index, rule in enumerate(trace):
        if not current.lower:
            raise RuleNotEnabledError(index, f"{rule} on empty lower stack")
        if rule.from_state != current.state or rule.read_symbol != current.lower[0]:
            raise RuleNotEnabledError(
                index, f"{rule} not enabled in {current}"
            )
        current = apply_rule(rule, current)
    return current


def trace_upper_word(spec: UpdsSpec, trace: Sequence[Rule], c: Configuration) -> Word:
    """The upper word after running the trace from c, computed on the rule
    sequence alone (no enabledness check): pops append their read symbol,
    pushes drop the rightmost symbol of a nonempty word, switches keep it.
    """
    upper = c.upper
    for rule in trace:
        kind = rule.kind
        if kind is RuleKind.POP:
            upper = upper + (rule.read_symbol,)
        elif kind is RuleKind.PUSH:
            upper = upper[:-1]
    return upper


# -- ground truths (oracle) ---------------------------------------------------


def _predecessors(
    spec: UpdsSpec, c: Configuration
) -> list[tuple[Rule, Configuration]]:
    """All one-step predecessors of c, i.e. pairs (rule, c') with
    c' -rule-> c, in rule declaration order."""
    preds: list[tuple[Rule, Configuration]] = []
    for rule in spec.rules:
        if rule.to_state != c.state:
            continue
        kind = rule.kind
        if kind is RuleKind.SWITCH:
            if c.lower[:1] == rule.written:
                preds.append(
                    (rule, Configuration(
                        rule.from_state, c.upper, (rule.read_symbol,) + c.lower[1:]
                    ))
                )
        elif kind is RuleKind.POP:
            if c.upper and c.upper[-1] == rule.read_symbol:
                preds.append(
                    (rule, Configuration(
                        rule.from_state, c.upper[:-1], (rule.read_symbol,) + c.lower
                    ))
                )
        else:
            if c.lower[:2] != rule.written:
                continue
            rest = (rule.read_symbol,) + c.lower[2:]
            # The overwritten upper symbol is unconstrained.
            for x in spec.alphabet:
                preds.append(
                    (rule, Configuration(rule.from_state, c.upper + (x,), rest))
                )
            if not c.upper:
                preds.append((rule, Configuration(rule.from_state, (), rest)))
    return preds


def _prepend_phase(runs: int, first: RuleKind | None, kind: RuleKind):
    """Phase skeleton of rule . suffix, given the suffix's skeleton: the
    number of maximal same-kind runs among pops and pushes, plus the kind
    of the leading run."""
    if kind is RuleKind.SWITCH:
        return runs, first
    if first is kind:
        return runs, first
    return runs + 1, kind


def oracle_pre_kphase(
    spec: UpdsSpec,
    targets: Iterable[Configuration],
    depth: int,
    k: int,
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[Configuration]:
    """Configurations that reach some target by a trace of length <= depth
    splitting into at most k phases, staying within size_cap.

    Implemented as a backward breadth-first search with inverted rules,
    tracking the phase skeleton of the trace suffix built so far (run
    count plus leading run kind). Total stack size never shrinks along a
    forward trace, so capping every visited configuration at size_cap
    never severs a path between endpoints that are themselves within the
    cap.
    """
    capped = []
    for c in targets:
        check_configuration(spec, c)
        if c.total_size <= size_cap:
            capped.append(c)
    answer: set[Configuration] = set(capped)
    if k <= 0:
        return frozenset(answer)
    State = tuple[Configuration, int, RuleKind | None]
    seen: set[State] = {(c, 0, None) for c in capped}
    frontier: deque[State] = deque(seen)
    explored = len(seen)
    for _ in range(depth):
        if not frontier:
            break
        next_frontier: deque[State] = deque()
        for c, runs, first in frontier:
            for rule, pred in _predecessors(spec, c):
                if pred.total_size > size_cap:
                    continue
                new_runs, new_first = _prepend_phase(runs, first, rule.kind)
                if max(new_runs, 1) > k:
                    continue
                state = (pred, new_runs, new_first)
                if state in seen:
                    continue
                explored += 1
                if explored > node_budget:
                    raise ResourceLimitError(explored, "backward closure budget")
                seen.add(state)
                answer.add(pred)
                next_frontier.append(state)
        frontier = next_frontier
    return frozenset(answer)


def pds_step(
    spec: UpdsSpec, state: str, word: tuple[str, ...]
) -> list[tuple[Rule, tuple[str, tuple[str, ...]]]]:
    """Successors under the lower-stack-only reading: a rule rewrites the
    top of the single stack and no upper stack exists."""
    if not word:
        return []
    return [
        (rule, (rule.to_state, rule.written + word[1:]))
        for rule in rules_reading(spec, state, word[0])
    ]


def pds_closure(
    spec: UpdsSpec,
    initial: Iterable[tuple[str, tuple[str, ...]]],
    size_cap: int,
    depth: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[tuple[str, tuple[str, ...]]]:
    """Forward closure of the lower-stack-only semantics, restricted to
    stack words of length <= size_cap. depth=None runs to fixpoint, which
    is exact on the capped region whenever every witness run fits under
    the cap; an integer bounds the trace length instead."""
    seen: set[tuple[str, tuple[str, ...]]] = set()
    frontier: list[tuple[str, tuple[str, ...]]] = []
    for state, word in initial:
        if len(word) <= size_cap and (state, word) not in seen:
            seen.add((state, word))
            frontier.append((state, word))
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        next_frontier: list[tuple[str, tuple[str, ...]]] = []
        for state, word in frontier:
            for _, succ in pds_step(spec, state, word):
                if len(succ[1]) > size_cap or succ in seen:
                    continue
                if len(seen) >= node_budget:
                    raise ResourceLimitError(len(seen), "pushdown closure budget")
                seen.add(succ)
                next_frontier.append(succ)
        frontier = next_frontier
    return frozenset(seen)


def pds_reaches(
    spec: UpdsSpec,
    source: tuple[str, tuple[str, ...]],
    targets: Iterable[tuple[str, tuple[str, ...]]],
    size_cap: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Whether the lower-stack-only semantics can drive `source` into one
    of `targets` without the stack ever growing past size_cap."""
    goal = set(targets)
    return bool(goal & pds_closure(spec, [source], size_cap, node_budget=node_budget))


# -- lower-stack saturation (pds) ---------------------------------------------


def pds_pre_star(spec: UpdsSpec, targets: LowerAutomaton) -> LowerAutomaton:
    """Backward closure: accepts <p, w> iff some accepted <p', w'> is
    reachable from it. Saturation: for a rule (p, a) -> (p', w) and any
    node n readable as w from entry(p'), add entry(p) --a--> n."""
    out = targets.copy()
    nfa, entries = out.nfa, out.entries

    def additions():
        for rule in spec.rules:
            src = entries[rule.from_state]
            for node in nfa.run(rule.written, start=(entries[rule.to_state],)):
                yield src, rule.read_symbol, node

    nfa.saturate(additions)
    return out


def singleton_lower(spec: UpdsSpec, state: str, word: Word) -> LowerAutomaton:
    """The one-element set {<state, word>}."""
    spec.check_word(word, "lower word")
    if state not in spec.states:
        raise MalformedInputError(f"undeclared state {state!r}")
    return LowerAutomaton.from_slices(spec.states, spec.alphabet, {state: from_words([word])})


def lower_accepts(lower: LowerAutomaton, state: str, word: Word) -> bool:
    """Whether the set holds <state, word> (`LowerAutomaton.accepts`)."""
    entry = lower.entries.get(state)
    if entry is None:
        return False
    return lower.nfa.accepts(word, start=(entry,))


def lower_words_up_to(lower: LowerAutomaton, state: str, max_len: int) -> list[Word]:
    """The state's words of length <= max_len (`LowerAutomaton.words_up_to`)."""
    entry = lower.entries.get(state)
    if entry is None:
        return []
    return lower.nfa.words_up_to(max_len, start=(entry,))


# -- zone projections and slices (upperapprox) --------------------------------


def project_lower(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the lower words (upper zone erased)."""
    return {
        state: map_labels(nfa, lambda l: EPSILON if is_barred(l) else l)
        for state, nfa in a.components.items()
    }


def project_upper(a: ConfigAutomaton) -> dict[str, Nfa]:
    """Per-state NFAs for the upper words (bars dropped, lower zone erased)."""
    return {
        state: map_labels(nfa, lambda l: unbar(l) if is_barred(l) else EPSILON)
        for state, nfa in a.components.items()
    }


def upper_lower_product(
    alphabet: Iterable[str],
    upper: Mapping[str, Nfa],
    lower: Mapping[str, Nfa],
) -> ConfigAutomaton:
    """Per-state product set {<p, u, l> : u in upper[p], l in lower[p]},
    given NFAs over the plain alphabet for both zones."""
    out: dict[str, Nfa] = {}
    for state, up in upper.items():
        low = lower.get(state)
        if low is None:
            continue
        component = Nfa(("u", n) for n in up.initial)
        component.embed(up, lambda n: ("u", n), bar)
        component.embed(low, lambda n: ("l", n))
        for n in up.finals:
            for m in low.initial:
                component.add_edge(("u", n), EPSILON, ("l", m))
        for n in low.finals:
            component.add_final(("l", n))
        out[state] = component
    return ConfigAutomaton(alphabet, out)


def map_labels(nfa: Nfa, fn: Callable[[Label], Label]) -> Nfa:
    """The automaton with each edge label relabelled by fn, which may
    return EPSILON to erase it (`Nfa.map_labels`)."""
    return Nfa(nfa.initial, nfa.finals).embed(nfa, label=fn)


def lower_slice(lower: LowerAutomaton, state: str) -> Nfa:
    """One state's words as an automaton of their own
    (`LowerAutomaton.slice`)."""
    entry = lower.entries.get(state)
    if entry is None:
        return Nfa()
    return Nfa((entry,), lower.nfa.finals).embed(lower.nfa).trim()


def upper_slice(au: UpperAutomaton, state: str) -> Nfa:
    """The upper words reaching a node that the state owns
    (`UpperAutomaton.slice`)."""
    finals = [node for node, owning in au.owner.items() if owning == state]
    return Nfa(au.nfa.initial, finals).embed(au.nfa).trim()


def upper_config_set(au: UpperAutomaton) -> dict[str, Nfa]:
    """Per-state upper-word languages; states with empty slices are
    dropped."""
    out: dict[str, Nfa] = {}
    for state in dict.fromkeys(au.owner.values()):
        part = upper_slice(au, state)
        if not part.is_empty():
            out[state] = part
    return out


def trace_validate(at: TraceAutomaton) -> None:
    """Check a trace automaton built by hand (`TraceAutomaton.validate`):
    every node owned and final, and every edge a rule leaving a node of
    its source state for one of its target state."""
    for node in at.nfa.nodes():
        if node not in at.owner:
            raise MalformedInputError(f"node {node!r} has no owning state")
        if node not in at.nfa.finals:
            raise MalformedInputError(
                f"node {node!r} is not final; the language must be prefix-closed"
            )
    for src, label, dst in at.nfa.edges():
        if label is EPSILON:
            continue
        if not isinstance(label, Rule):
            raise MalformedInputError(f"edge label {label!r} is not a rule")
        if at.owner[src] != label.from_state or at.owner[dst] != label.to_state:
            raise MalformedInputError(
                f"edge {at.owner[src]!r} -> {at.owner[dst]!r} does not match rule {label}"
            )


def trace_accepts(at: TraceAutomaton, trace: Iterable[Rule]) -> bool:
    """Whether the trace automaton accepts the rule sequence
    (`TraceAutomaton.accepts`)."""
    return at.nfa.accepts(tuple(trace))


def saturate_upper(at: TraceAutomaton, origin: Configuration) -> UpperAutomaton:
    """The least edge set over the trace automaton's nodes such that the
    words reaching a node cover the upper words left behind, starting
    from an empty upper word, by the accepted rule sequences ending
    there (`_close_upper`).

    The push rule's case for initial nodes is only exact when they carry
    no word but the empty one, so an initial node with incoming trace
    edges is represented by a fresh mirror ("@entry", node) that
    epsilon-steps into it; mirrors become the result's initial nodes and
    nothing ever flows back into them."""
    at.validate()
    if origin.upper:
        raise MalformedInputError("origin configuration must have an empty upper word")
    up = Nfa(finals=at.nfa.nodes())
    owner = dict(at.owner)
    entries: dict[object, object] = {}
    targeted = {dst for _, _, dst in at.nfa.edges()}
    for node in at.nfa.initial:
        if node not in targeted:
            up.add_initial(node)
            continue
        mirror = ("@entry", node)
        entries[mirror] = node
        owner[mirror] = at.owner[node]
        up.add_initial(mirror)
        up.add_final(mirror)
        up.add_edge(mirror, EPSILON, node)
    return _close_upper(at, up, owner, entries)


# -- one phase (kphase) -------------------------------------------------------


def phase_pre(spec: UpdsSpec, targets: ConfigAutomaton, kind: PhaseKind) -> ConfigAutomaton:
    """All configurations from which some target configuration is reached
    by a trace, possibly empty, whose non-switch rules are all pops
    (PhaseKind.POP) or all pushes (PhaseKind.PUSH). Exact, and trimmed.
    A pop phase accepts its targets by the empty trace; a push phase
    misses those with an empty lower word, so the targets are added to it."""
    targets.check_against(spec, "target set")
    targets = targets.compact()
    built = _phases(spec, targets, (kind,), _Moves(spec))
    phase = ConfigAutomaton(spec.alphabet, {q: nfa.trim() for q, nfa in built.components.items()})
    return union_sets(phase, targets) if kind is PhaseKind.PUSH else phase


# -- parser, printers and equality (regex, model) -----------------------------


def _print_part(ast: tuple, parent: str) -> str:
    """parent is "outer" (a branch zone or alternation member), "concat",
    or "star"; it decides where parentheses are required to reparse to the
    same AST. Alternations are always parenthesized: a bare '|' would bind
    at branch level. Stacked stars print as one (x** is x*). The text is
    built from a stack of what is left to print, not by a call per level,
    so every tree the parser accepts prints."""
    out = []
    todo: list = [(ast, parent)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent = item
        kind = node[0]
        if kind == "sym":
            out.append(node[1])
        elif kind == "empty":
            out.append("_")
        elif kind == "star":
            while node[1][0] == "star":
                node = node[1]
            todo += ["*", (node[1], "star")]
        elif kind in ("concat", "alt"):
            sep, inner = (" ", "concat") if kind == "concat" else (" | ", "outer")
            wrap = kind == "alt" or parent in ("concat", "star")
            pieces: list = ["("] if wrap else []
            for k, part in enumerate(node[1]):
                pieces += [sep, (part, inner)] if k else [(part, inner)]
            if wrap:
                pieces.append(")")
            todo += reversed(pieces)
        else:
            raise MalformedInputError(f"not a regex node: {node!r}")
    return "".join(out)


def parse_config_regex(
    text: str, line: int = 1, col: int = 1, alphabet: Iterable[str] | None = None
) -> tuple:
    """The syntax tree of a set expression (see `regex`); columns count
    from (line, col). Given an alphabet, a symbol outside it is an error."""
    if alphabet is not None:
        alphabet = {name: name for name in alphabet}
    return _parse_text(text, line, col, alphabet, False)


def print_config_regex(ast: tuple) -> str:
    """The canonical text of a set expression's syntax tree (see `regex`);
    it parses back to the same tree, each stack of stars folded into one."""
    if ast[0] != "config":
        raise MalformedInputError(f"not a top-level regex: {ast!r}")
    branches = []
    for upper, lower in ast[1]:
        left = _print_part(upper, "outer")
        right = _print_part(lower, "outer")
        branches.append(f"{left} ^ {right}")
    return " | ".join(branches)


def print_model(model: ModelFile) -> str:
    """Render a model back to its file form (canonical spacing)."""
    lines = ["states " + " ".join(model.spec.states)]
    if model.spec.alphabet:
        lines.append("alphabet " + " ".join(model.spec.alphabet))
    for rule in model.spec.rules:
        lines.append(f"rule {rule}")
    for name, slices in model.sets.items():
        for state, ast in slices.items():
            lines.append(f"set {name} {state} {print_config_regex(ast)}")
    return "\n".join(lines) + "\n"


def model_eq(model: ModelFile, other) -> bool:
    """`ModelFile ==`: the same system and the same sets. The syntax trees
    are compared from a stack of the pairs left to compare, not by a call
    per level, so every two trees the parser accepts compare."""
    if other.__class__ is not model.__class__:
        return NotImplemented
    if model.spec != other.spec or model.sets.keys() != other.sets.keys():
        return False
    todo = []
    for name, slices in model.sets.items():
        if slices.keys() != other.sets[name].keys():
            return False
        todo += [(ast, other.sets[name][state]) for state, ast in slices.items()]
    while todo:
        a, b = todo.pop()
        if isinstance(a, tuple) and isinstance(b, tuple):
            if len(a) != len(b):
                return False
            todo += zip(a, b)
        elif a != b:
            return False
    return True


# -- word lists (nfa) ---------------------------------------------------------


def from_words(words: Iterable[tuple[Label, ...]]) -> Nfa:
    """An automaton accepting exactly the given words."""
    out = Nfa()
    root = out.add_initial("w")
    for i, word in enumerate(words):
        prev = root
        for j, sym in enumerate(word):
            node = out.add_node(("w", i, j))
            out.add_edge(prev, sym, node)
            prev = node
        out.add_final(prev)
    return out


# -- sets (configsets) --------------------------------------------------------


def from_config_set(spec: UpdsSpec, configs: Iterable[Configuration]) -> ConfigAutomaton:
    """The set of the given configurations, checked against spec."""
    by_state: dict[str, list[tuple]] = {}
    for c in configs:
        if c.state not in spec.states:
            raise MalformedInputError(f"undeclared state {c.state!r}")
        spec.check_word(c.upper, "upper word")
        spec.check_word(c.lower, "lower word")
        by_state.setdefault(c.state, []).append(config_word(c))
    return ConfigAutomaton(
        spec.alphabet,
        {state: from_words(words) for state, words in by_state.items()},
    )


def _scan(configs: ConfigAutomaton) -> None:
    """Check a set's labels against its alphabet and the zone discipline
    (`ConfigAutomaton.validate`): a node is tainted once a plain edge was
    crossed, and no barred edge may leave a tainted node."""
    symbols = set(configs.alphabet)
    for state, nfa in configs.components.items():
        for _, label, _ in nfa.edges():
            if label is EPSILON:
                continue
            plain = label if not is_barred(label) else unbar(label)
            if plain not in symbols:
                raise MalformedInputError(
                    f"component {state!r}: undeclared symbol in label {label!r}"
                )
        seen: set[tuple[object, bool]] = set()
        stack = [(n, False) for n in nfa.initial]
        seen.update(stack)
        while stack:
            node, tainted = stack.pop()
            for label, dst in nfa.out_edges(node):
                if label is EPSILON:
                    nxt = tainted
                elif is_barred(label):
                    if tainted:
                        raise MalformedInputError(
                            f"component {state!r}: barred edge after a plain edge"
                        )
                    nxt = False
                else:
                    nxt = True
                if (dst, nxt) not in seen:
                    seen.add((dst, nxt))
                    stack.append((dst, nxt))
