"""Exact membership: a size-capped search from the goal and the start set.

`is_reachable` decides whether a configuration is reachable from a
regular start set. No step shrinks the total stack size (a pop moves a
symbol from one zone to the other; a push adds a lower cell and
overwrites at most one upper cell), so a breadth-first search from the
start-set members no larger than the target, never storing a larger
configuration, explores a finite region and decides membership exactly.
So does a breadth-first search backward from the target: what reaches
it is no larger than it.

It stores each configuration only up to the goal's upper word U. No
rule reads the upper word: a pop appends the lower top to it, a push
drops its last cell, and which rules apply depends only on the state,
the lower word and the upper word's length. So configurations with the
same state, lower word, upper length and longest prefix shared with U
have the same runs, step for step, and one of them is U's configuration
exactly when all are. `search` stores one class per such configuration
as (state, shared, above, lower): the length of the prefix shared with
U and the number of cells above it. A pop extends the shared prefix
when nothing is above it and the popped symbol is U's next one, and
adds a cell above it otherwise; a push drops a cell above the prefix,
else a cell of the prefix. The goal is the class (state, |U|, 0, lower).
This is exact. The search keeps no parent links.

The step is a function of the class, so it can be undone class by
class too, with the rules writing what the lower word starts with
(`UpdsSpec.moves_into`). The predecessors of (q, s, a, L) by a rule
that reads lower top r in state f are:
- undoing a pop: (f, s-1, 0, r L) if a = 0, s > 0 and U[s-1] = r, the
  prefix's last cell; (f, s, a-1, r L) if a > 0, unless a = 1, s < |U|
  and U[s] = r, a cell that the pop would have added to the prefix;
- undoing a switch to b, if L starts with b: (f, s, a, r L[1:]);
- undoing a push of b c, if L starts with b c, with R = L[2:]: the
  overwritten cell was above the prefix, (f, s, a+1, r R); or, if
  a = 0, it was U[s], (f, s+1, 0, r R) if s < |U|; or there was none,
  (f, 0, 0, r R) if a = s = 0. Over a one-symbol alphabet the first is
  skipped when a = 0 and s < |U|: no upper word falls in it.

`search` starts from the goal alone: while the backward frontier holds
one class, it expands that class and the start set is not walked. More
than half the queries of the benchmark's membership workload end there,
with a chain of single classes that runs dry. Every class that reaches
the goal is then stored, and the answer is whether one of them holds a
start (`_holds_start`): a run of the start automaton of the class's
state over the barred U[:s], made once per (state, s), then `above`
barred cells, the first of them not U[s] when s < |U|, then the plain
lower word.

Once the backward frontier branches, the start set is walked into the
search, and classes are stored from both ends, one layer at a time,
expanding the side with the smaller frontier (Pohl's balanced
bidirectional search). The answer is true when a side meets a class the
other side stored, and false when either side runs dry. The budget
counts the classes both sides store, the goal's included; a class
stored by one side is not stored again by the other, and the class
test stores none.

The start set is validated once per set, and a set from
`ModelFile.config_set` never: it is valid by construction. Its classes
(`start_classes`) come straight from its automaton in one pass per
state, in (length, label) order, each word cut into its zones and
counted against U as it grows, so no start is built as an object,
sorted or checked again. Each layer's classes go to the search as the
layer is built, so a search that stops at its budget, or meets a start
early, builds no longer layer. In the upper zone, words of one length that
reach the same class and the same automaton subset have the same
extensions, so a long layer keeps the first of them only: an upper zone
over k symbols walks O(n^2) classes per subset up to size n, not k^n
words.

The generic walk of a set's words and members (`Nfa.walk`,
`Nfa.words_up_to`, `ConfigAutomaton.members` and `enumerate_configs`)
is in `words`, which steps with `closed_steps` from here, so a `member`
call does not compile it. Only the `member` command and the `oracle`
command run this module, so the other commands do not compile it.
"""

from __future__ import annotations

from typing import Iterator

from .configsets import ConfigAutomaton, bar, is_barred
from .core import Configuration, UpdsSpec, check_configuration
from .errors import ResourceLimitError
from .limits import DEFAULT_CONFIG_BUDGET, SEARCH_BUDGET
from .nfa import EPSILON, Label, Node, label_key

# A class of configurations: (state, shared, above, lower).
Class = tuple[str, int, int, tuple[str, ...]]

# The row of a node without edges; never written to.
_NO_ROW: dict = {}

# `start_classes` merges only layers longer than this. Start layers
# mostly hold a few entries, and merging each one that grew made the
# membership workload's queries about 4% slower than merging none.
_MERGED = 16


def is_reachable(
    spec: UpdsSpec,
    start_set: ConfigAutomaton,
    config: Configuration,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> bool:
    """Whether some member of start_set reaches config. The search runs
    backward from config, and forward from the start set too once the
    backward side branches, until the two meet; budget counts the classes
    both sides store (see the module docstring). Members of a valid set
    over the system's states and alphabet are configurations of the
    system, so they go into the search unchecked."""
    check_configuration(spec, config)
    start_set.check_against(spec, "start set")
    return search(spec, start_set, config, budget)[0]


def search(
    spec: UpdsSpec, start_set: ConfigAutomaton, goal: Configuration, budget: int
) -> tuple[bool, int]:
    """Whether some member of start_set reaches goal, and how many classes
    the search stored on both sides: the backward side from goal's class,
    the forward side from `start_classes` in their order (see the module
    docstring). The backward side goes first, alone, while its frontier
    holds one class. If it runs dry there, the answer is whether a stored
    class holds a start (`_holds_start`), and the start set is never
    walked. Once the frontier holds more, the start classes are stored,
    and each round expands one layer of the side with the smaller
    frontier, forward on a tie, its classes in order: successors in rule
    declaration order, none larger than goal, and predecessors by undone
    pops, switches, then pushes, each in rule declaration order. The
    answer is true once a side meets a class the other side stored, and
    false once either frontier is empty. budget counts stored classes,
    the goal's and the starts' included; storing one more raises
    ResourceLimitError. Trusts its arguments: `is_reachable` checks
    them."""
    moves, into = spec.moves, spec.moves_into
    upper = goal.upper
    depth = len(upper)
    cap = goal.total_size
    # Over a one-symbol alphabet no upper word has a cell above a prefix
    # of U shorter than U: the class of such words is empty.
    several = len(spec.alphabet) > 1
    target = (goal.state, depth, 0, goal.lower)
    if budget < 1:
        raise ResourceLimitError(0, SEARCH_BUDGET)
    # Each stored class, and whether the forward side stored it.
    seen = {target: False}
    backward = [target]
    # None until the backward frontier branches and the starts are walked.
    forward = None
    while backward:
        if forward is None and len(backward) > 1:
            forward = []
            for start in start_classes(start_set, upper, cap):
                count = len(seen)
                if not seen.setdefault(start, True):
                    return True, count
                if len(seen) == count:
                    continue
                if count >= budget:
                    raise ResourceLimitError(count, SEARCH_BUDGET)
                forward.append(start)
        grown = []
        if forward is not None and len(forward) <= len(backward):
            if not forward:
                break
            for state, shared, above, lower in forward:
                entries = moves.get((state, lower[0])) if lower else None
                if entries is None:
                    continue
                top, rest = lower[0], lower[1:]
                # A pop extends the shared prefix only with U's next symbol.
                climbs = not above and shared < depth and upper[shared] == top
                for rule, to_state, arity, written in entries:
                    if arity == 0:
                        if climbs:
                            succ = (to_state, shared + 1, 0, rest)
                        else:
                            succ = (to_state, shared, above + 1, rest)
                    elif arity == 1:
                        succ = (to_state, shared, above, written + rest)
                    elif above:
                        succ = (to_state, shared, above - 1, written + rest)
                    elif shared:
                        succ = (to_state, shared - 1, 0, written + rest)
                    elif len(lower) < cap:
                        succ = (to_state, 0, 0, written + rest)
                    else:
                        continue
                    count = len(seen)
                    if not seen.setdefault(succ, True):
                        return True, count
                    if len(seen) == count:
                        continue
                    if count >= budget:
                        raise ResourceLimitError(count, SEARCH_BUDGET)
                    grown.append(succ)
            forward = grown
            continue
        for state, shared, above, lower in backward:
            found = []
            # Undo a pop: take back the cell it added. With nothing above
            # the prefix, that cell ended the prefix; a lone cell above it
            # is not U's next symbol, or the pop would have extended it.
            for source, read in into.get((state, ()), ()):
                if not above:
                    if shared and read == upper[shared - 1]:
                        found.append((source, shared - 1, 0, (read,) + lower))
                elif above > 1 or shared == depth or read != upper[shared]:
                    found.append((source, shared, above - 1, (read,) + lower))
            if lower:
                rest = lower[1:]
                for source, read in into.get((state, lower[:1]), ()):
                    found.append((source, shared, above, (read,) + rest))
            # Undo a push: restore the cell it overwrote, which is above
            # the prefix, extends it, or was never there.
            if len(lower) > 1:
                for source, read in into.get((state, lower[:2]), ()):
                    before = (read,) + lower[2:]
                    if above or shared == depth or several:
                        found.append((source, shared, above + 1, before))
                    if not above and shared < depth:
                        found.append((source, shared + 1, 0, before))
                    if not above and not shared:
                        found.append((source, 0, 0, before))
            for pred in found:
                count = len(seen)
                if seen.setdefault(pred, False):
                    return True, count
                if len(seen) == count:
                    continue
                if count >= budget:
                    raise ResourceLimitError(count, SEARCH_BUDGET)
                grown.append(pred)
        backward = grown
    if forward is None:
        # A chain of single classes ran dry: seen holds every class that
        # reaches the goal.
        return _holds_start(start_set, upper, seen), len(seen)
    return False, len(seen)


def _holds_start(configs: ConfigAutomaton, upper: tuple[str, ...], classes) -> bool:
    """Whether one of `classes`, counted against the upper word `upper`,
    holds a member of configs: a run of the automaton of its state over
    the barred upper[:shared], then `above` barred cells, the first of
    them not upper[shared] when shared < len(upper), then the plain lower
    word. The barred prefix is run once per (state, shared), and a cell
    of it or of the lower word is stepped by one row lookup per node;
    only a cell above the prefix scans rows. Subsets are epsilon-closed
    only when the automaton has an epsilon edge, and a run stops once its
    subset is empty."""
    components = configs.components
    depth = len(upper)
    # (state, shared) -> the automaton's rows, closure and final nodes,
    # and the subset after the barred upper[:shared].
    prefixes = {}
    for state, shared, above, lower in classes:
        nfa = components.get(state)
        if nfa is None:
            continue
        key = state, shared
        run = prefixes.get(key)
        if run is None:
            edges = nfa._edges
            close = closure(nfa, set)
            nodes = close(nfa.initial)
            if shared:
                nodes = _read(edges, close, nodes, [bar(x) for x in upper[:shared]])
            run = prefixes[key] = edges, close, nfa.finals.keys(), nodes
        edges, close, finals, nodes = run
        if above and nodes:
            # Each cell above the prefix takes any barred label but `other`.
            other = bar(upper[shared]) if shared < depth else None
            for _ in range(above):
                stepped = set()
                for n in nodes:
                    for label, targets in edges[n].items():
                        if label != other and is_barred(label):
                            stepped.update(targets)
                nodes = close(stepped) if stepped else ()
                other = None
        if lower and nodes:
            nodes = _read(edges, close, nodes, lower)
        if not finals.isdisjoint(nodes):
            return True
    return False


def _read(edges, close, nodes, word):
    """The subset that the epsilon-closed `nodes` reach by reading word, by
    one row lookup per node and cell; empty once a cell has no edge."""
    for cell in word:
        stepped = set()
        for n in nodes:
            targets = edges[n].get(cell)
            if targets:
                stepped.update(targets)
        if not stepped:
            return ()
        nodes = close(stepped)
    return nodes


def start_classes(
    configs: ConfigAutomaton, upper: tuple[str, ...], max_len: int
) -> Iterator[Class]:
    """The classes, counted against the upper word `upper`, of the accepted
    configurations of total stack size <= max_len: state by state in
    component order, each state's in (length, label-key) order of their
    flattened words, each class at the first member in it (it may come
    again later). One pass per state walks layers of (class, subset)
    entries, one layer per length, from the initial subset: each entry
    steps by each label of its subset's `closed_steps`, which are built
    once per subset, a plain label growing the lower word and a barred
    one, while the lower word is empty, extending the shared prefix with
    U's next symbol or adding a cell above it. A layer of more than
    _MERGED entries keeps, among those with an empty lower word, the
    first of each class and subset: those extend alike, and the later
    ones' extensions come later in each layer. Each layer's accepted
    classes are yielded once it is built, so a caller that stops early
    never builds the longer layers."""
    depth = len(upper)
    for state, nfa in configs.components.items():
        edges, finals = nfa._edges, nfa.finals.keys()
        close = closure(nfa, frozenset)
        first = close(nfa.initial)
        seed = (state, 0, 0, ())
        if not finals.isdisjoint(first):
            yield seed
        layer = [(seed, first)]
        steps = {}
        for length in range(1, max_len + 1):
            # The last layer keeps only accepted words: nothing extends them.
            last = length == max_len
            grown, accepted = [], []
            for (_, shared, above, lower), subset in layer:
                row = steps.get(subset)
                if row is None:
                    row = steps[subset] = closed_steps(edges, finals, close, subset)
                for label, stepped, accepting in row:
                    if last and not accepting:
                        continue
                    # A plain label is a symbol, a barred one a tuple (`bar`).
                    if label.__class__ is not tuple:
                        c = (state, shared, above, lower + (label,))
                    elif lower:
                        continue
                    elif not above and shared < depth and upper[shared] == label[1]:
                        c = (state, shared + 1, 0, lower)
                    else:
                        c = (state, shared, above + 1, lower)
                    grown.append((c, stepped))
                    if accepting:
                        accepted.append(c)
            if len(grown) > _MERGED:
                merged, kept = set(), []
                for entry in grown:
                    if not entry[0][3]:
                        if entry in merged:
                            continue
                        merged.add(entry)
                    kept.append(entry)
                grown = kept
                accepted = [c for c, stepped in grown if not finals.isdisjoint(stepped)]
            yield from accepted
            if not grown:
                break
            layer = grown


def closure(nfa, plain):
    """nfa's epsilon closure, or `plain` when no edge of nfa is an epsilon
    edge, as in every set a model compiles. The scan is a plain loop: on
    most start sets a generator expression costs more than the scan."""
    for row in nfa._edges.values():
        if EPSILON in row:
            return nfa.eps_closure
    return plain


def closed_steps(
    edges, finals, close, closed: frozenset[Node]
) -> list[tuple[Label, frozenset[Node], bool]]:
    """(label, targets closed by `close`, whether they hold a node of
    finals) for each label that an edge leaving the epsilon-closed set
    carries, in label-key order: one subset construction step of the
    automaton with rows `edges`, in one pass over the set's rows (a single
    node's row is read as it is). `close` is the epsilon closure, or
    `frozenset` for an automaton with no epsilon edge."""
    if len(closed) == 1:
        (node,) = closed
        out = edges.get(node, _NO_ROW)
    else:
        out = {}
        for n in closed:
            for label, targets in edges.get(n, _NO_ROW).items():
                got = out.get(label)
                if got is None:
                    out[label] = set(targets)
                else:
                    got.update(targets)
    steps = []
    for label in sorted(out, key=label_key) if len(out) > 1 else out:
        if label is not EPSILON:
            stepped = close(out[label])
            steps.append((label, stepped, not finals.isdisjoint(stepped)))
    return steps
