import itertools
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from upstack.configsets import ConfigAutomaton, from_config_set, is_barred, union_sets
from upstack.core import Configuration, RuleKind, UpdsSpec, count_phases, make_spec, step
from upstack.errors import MalformedInputError
from upstack import kphase
from upstack.extras import phase_pre
from upstack.kphase import PhaseKind, _Moves, bounded_phase_pre_star, pre_star_rounds
from upstack.limits import DFA_STATE_BUDGET
from upstack.nfa import EPSILON, Nfa
from upstack.oracle import oracle_pre_kphase
from upstack.pds import pds_post_star, singleton_lower

import phase_reference
from conftest import cfg, random_configuration, random_spec, subprocess_env
from equivalence_reference import equivalent_sets
from mpds import MpdsRule, config_to_mpds, mpds_step, mpds_to_config, upds_to_mpds


def configs_up_to(spec, max_total):
    out = []
    for state in spec.states:
        for total in range(max_total + 1):
            for upper_len in range(total + 1):
                for upper in itertools.product(spec.alphabet, repeat=upper_len):
                    for lower in itertools.product(
                        spec.alphabet, repeat=total - upper_len
                    ):
                        out.append(Configuration(state, upper, lower))
    return out


def accepted_up_to(aut, spec, max_total):
    return {c for c in configs_up_to(spec, max_total) if aut.accepts(c)}


# -- single phases ---------------------------------------------------------

def test_pop_phase_examples(e2):
    targets = from_config_set(e2, [cfg("p", "a b", "c")])
    pre = phase_pre(e2, targets, PhaseKind.POP)
    assert pre.accepts(cfg("p", "a", "b c"))
    assert pre.accepts(cfg("p", "", "a b c"))
    assert pre.accepts(cfg("p", "a b", "c"))
    # Popped symbols are pinned: the upper word must extend by what the
    # lower word actually sheds.
    assert not pre.accepts(cfg("p", "b", "a c"))
    assert not pre.accepts(cfg("p", "a b", ""))


def test_pop_phase_crosses_states(e1):
    targets = from_config_set(e1, [cfg("p2", "a", "bot")])
    pre = phase_pre(e1, targets, PhaseKind.POP)
    assert pre.accepts(cfg("p", "", "a bot"))
    assert pre.accepts(cfg("p", "a", "bot"))
    assert not pre.accepts(cfg("p2", "", "a bot"))


def test_push_phase_examples(e2):
    targets = from_config_set(e2, [cfg("p", "", "a b c")])
    pre = phase_pre(e2, targets, PhaseKind.PUSH)
    # One push from <p, y, cc> rewrites the first c to ab and drops y,
    # whatever y was.
    for symbol in e2.alphabet:
        assert pre.accepts(cfg("p", symbol, "c c"))
    assert pre.accepts(cfg("p", "", "c c"))
    assert pre.accepts(cfg("p", "", "a b c"))
    assert not pre.accepts(cfg("p", "a a", "c c"))


def test_phase_pre_empty_targets(e2):
    empty = ConfigAutomaton(e2.alphabet)
    for kind in PhaseKind:
        assert phase_pre(e2, empty, kind).is_empty()


def test_phase_pre_rejects_bad_targets(e1, e2):
    with pytest.raises(MalformedInputError):
        phase_pre(e2, from_config_set(e1, [cfg("p", "", "bot")]), PhaseKind.POP)
    stray = ConfigAutomaton(e2.alphabet, {"nope": from_config_set(
        e2, [cfg("p", "", "c")]
    ).components["p"]})
    with pytest.raises(MalformedInputError):
        phase_pre(e2, stray, PhaseKind.PUSH)


def test_phase_pre_idempotent(e2, c2):
    for kind in PhaseKind:
        once = phase_pre(e2, c2, kind)
        twice = phase_pre(e2, once, kind)
        assert equivalent_sets(once.compact(), twice.compact())


def test_phase_pre_idempotent_random():
    rng = random.Random(4021)
    for _ in range(10):
        spec = random_spec(rng)
        targets = from_config_set(
            spec, [random_configuration(rng, spec) for _ in range(2)]
        )
        for kind in PhaseKind:
            once = phase_pre(spec, targets, kind)
            twice = phase_pre(spec, once, kind)
            assert equivalent_sets(once.compact(), twice.compact())


def _with_dead_ends(rng, targets):
    """The same set with, in each component, an edge from an initial node
    to a node that reaches no final one, and a node no initial one
    reaches."""
    components = {}
    for state, nfa in targets.components.items():
        nfa = nfa.copy()
        label = rng.choice(targets.alphabet)
        nfa.add_edge(next(iter(nfa.initial)), label, ("dead", state))
        nfa.add_edge(("unreached", state), label, next(iter(nfa.finals)))
        components[state] = nfa
    return ConfigAutomaton(targets.alphabet, components)


def test_phases_accept_what_their_first_construction_accepts():
    # Random systems with at least three states, so that components reach
    # across states; targets are small finite sets or a round or two of
    # pre* of them, some with dead ends. Each phase compacts `same` as the
    # construction that embeds every zone and trims at the end; so do
    # whole bounded runs. What `_phases` builds is trimmed but for the
    # barred-zone copies, which it copies whole and leaves to compaction:
    # every phase node is built live. `_Target.reach` takes the barred
    # zone to be the initial nodes and the targets of barred edges, which
    # holds only because no plain edge of a compacted target precedes a
    # barred one: it is checked against a search, on the budget fallback
    # too.
    rng = random.Random(2718)
    checked = 0
    while checked < 120:
        spec = random_spec(rng, max_states=5, max_symbols=3, max_rules=10)
        if len(spec.states) < 3:
            continue
        targets = from_config_set(
            spec, [random_configuration(rng, spec) for _ in range(rng.randint(1, 4))]
        )
        if rng.random() < 0.5:
            targets = phase_reference.bounded_phase_pre_star(spec, targets, rng.randint(1, 2))
        if rng.random() < 0.5:
            targets = _with_dead_ends(rng, targets)
        for compacted in (targets.compact(), targets.compact(1)):
            for nfa in compacted.components.values():
                barred = Nfa().embed(nfa, label=lambda a: a if is_barred(a) else None)
                assert set(kphase._Target(nfa).reach) == barred.reachable(nfa.initial)
        references = {
            PhaseKind.POP: phase_reference.pop_phase_pre,
            PhaseKind.PUSH: phase_reference.push_phase_pre,
        }
        for kind, reference in references.items():
            built = phase_pre(spec, targets, kind)
            assert built.compact().same(reference(spec, targets).compact()), kind
            raw = kphase._phases(spec, targets.compact(), (kind,), _Moves(spec))
            for nfa in raw.components.values():
                dead = set(nfa.nodes()) - set(nfa.trim().nodes())
                assert all(node[0] == "u" for node in dead), kind
        k = rng.randint(0, 3)
        expected = phase_reference.bounded_phase_pre_star(spec, targets, k)
        assert bounded_phase_pre_star(spec, targets, k).same(expected)
        checked += 1


def test_the_pop_phase_alone_contains_its_targets():
    # A round of pre_star_rounds keeps its targets only through the pop
    # phase's empty trace: a state's walker at its own target steps by
    # epsilon into the target's plain zone, whatever the lower word, and
    # the push phase needs a lower top. Drawn as the test above draws, so
    # that some members have an empty lower word.
    rng = random.Random(2718)
    checked = empty_lower = 0
    while checked < 300:
        spec = random_spec(rng, max_states=5, max_symbols=3, max_rules=10)
        if len(spec.states) < 3:
            continue
        members = [random_configuration(rng, spec) for _ in range(rng.randint(1, 4))]
        empty_lower += any(not c.lower for c in members)
        targets = from_config_set(spec, members)
        if rng.random() < 0.5:
            targets = phase_reference.bounded_phase_pre_star(spec, targets, rng.randint(1, 2))
        if rng.random() < 0.5:
            targets = _with_dead_ends(rng, targets)
        popped = phase_pre(spec, targets, PhaseKind.POP)
        assert union_sets(popped, targets).compact().same(popped.compact())
        checked += 1
    assert empty_lower


def _with_cycle_and_chain(rng, spec):
    """spec plus a switch cycle through two random pairs and a chain of two
    pushes, the second reading a symbol the first writes."""
    s, a = spec.states, spec.alphabet
    (p, x), (p2, y) = [(rng.choice(s), rng.choice(a)) for _ in range(2)]
    b, c, d, e = [rng.choice(a) for _ in range(4)]
    q = rng.choice(s)
    extra = [(p, x, p2, (y,)), (p2, y, p, (x,)), (p, b, q, (c, d)), (q, c, p2, (e, d))]
    rules = [(r.from_state, r.read_symbol, r.to_state, r.written) for r in spec.rules]
    return make_spec(s, a, list(dict.fromkeys(rules + extra)))


def _graph_words(moves, alphabet, p2, max_len):
    """The words of length <= max_len that the move graph's lockstep
    tables read from the start node of p2, each with the graph positions
    it reaches."""
    level = {(): {moves.start[p2]}}
    words = {}
    for _ in range(max_len):
        level = {
            word + (a,): {z2 for z in zs for z2 in moves.steps[z].get(a, ())}
            for word, zs in level.items()
            for a in alphabet
        }
        level = {word: zs for word, zs in level.items() if zs}
        words.update(level)
    return words


def test_move_graph_reads_what_the_push_switch_closure_reaches():
    # The words the graph reads from p2's start to (q, top) are the lower
    # words that switches and pushes reach from <q, top> in state p2, and
    # each pair's row lists its pops and the pairs whose switches lead
    # into it; every pair has a row, whether or not it has rules.
    rng = random.Random(1805)
    seen = {"rule-less pair entered by a switch": 0, "switch cycle": 0, "push chain": 0}
    for n in range(200):
        spec = random_spec(rng, max_states=3, max_symbols=3, max_rules=8)
        if n % 2:
            spec = _with_cycle_and_chain(rng, spec)
        moves = _Moves(spec)
        closures = phase_reference.push_closures(spec)
        for p2 in spec.states:
            words = _graph_words(moves, spec.alphabet, p2, 5)
            for (q, top), closure in closures.items():
                ends = moves.exits[q]
                read = {word for word, zs in words.items() if any(ends.get(z) == top for z in zs)}
                assert read == set(closure.words_up_to(p2, 5)), (spec.rules, q, top, p2)
        switches = UpdsSpec(
            spec.states, spec.alphabet, tuple(r for r in spec.rules if r.kind is RuleKind.SWITCH)
        )
        pairs = [(p, x) for p in spec.states for x in spec.alphabet]
        into = {pair: set() for pair in pairs}
        for q, a in pairs:
            reached = pds_post_star(switches, singleton_lower(spec, q, (a,)))
            for p in spec.states:
                for (x,) in reached.words_up_to(p, 1):
                    into[(p, x)].add((q, a))
        assert [pair for pair, _, _ in moves.rows] == pairs
        for pair, pops, entering in moves.rows:
            rules = [r for r in spec.rules if (r.from_state, r.read_symbol) == pair]
            assert pops == [r.to_state for r in rules if r.kind is RuleKind.POP]
            assert set(entering) == into[pair]
            seen["rule-less pair entered by a switch"] += not rules and len(entering) > 1
            seen["switch cycle"] += any(pair in into[other] for other in set(entering) - {pair})
        pushes = [r for r in spec.rules if r.kind is RuleKind.PUSH]
        seen["push chain"] += any(
            (r.to_state, r.written[0]) == (r2.from_state, r2.read_symbol)
            for r in pushes
            for r2 in pushes
        )
    assert all(seen.values()), seen


def test_a_round_explores_each_targets_lockstep_product_once(monkeypatch):
    # The push phase's lockstep walk from a target's start node does not
    # depend on the state whose exits cut it, so one call of `_phases`
    # explores it once per target component, not once per state as well.
    explored = []
    explore = kphase._lockstep
    monkeypatch.setattr(kphase, "_lockstep", lambda *args: explored.append(args) or explore(*args))
    rng = random.Random(3141)
    checked = 0
    while checked < 20:
        spec = random_spec(rng, max_states=4, max_symbols=3, max_rules=10)
        members = [random_configuration(rng, spec) for _ in range(4)]
        targets = from_config_set(spec, members).compact()
        if len(spec.states) < 3 or len(targets.components) < 2:
            continue
        explored.clear()
        kphase._phases(spec, targets, tuple(PhaseKind), _Moves(spec))
        assert len(explored) == len(targets.components)
        checked += 1


# -- iterated closure ------------------------------------------------------

def test_bounded_zero_phases_is_target_set(e2, c2):
    assert equivalent_sets(bounded_phase_pre_star(e2, c2, 0), c2)
    assert bounded_phase_pre_star(e2, c2, -1).accepts(cfg("p", "", "c"))


def test_bounded_fixpoint_test_gets_the_node_budget(e2, c2, monkeypatch):
    # The fixpoint test compares compacted rounds, so the budget reaches
    # it through every compaction.
    budgets = []
    compact = ConfigAutomaton.compact

    def recording(self, node_budget):
        budgets.append(node_budget)
        return compact(self, node_budget)

    monkeypatch.setattr(ConfigAutomaton, "compact", recording)
    bounded_phase_pre_star(e2, c2, 3, node_budget=1234)
    assert budgets and set(budgets) == {1234}


def test_fixpoint_test_of_canonical_rounds_does_not_determinize(e2, c2, monkeypatch):
    rounds = []
    same = ConfigAutomaton.same

    def refuse(*args, **kwargs):
        raise AssertionError("the fixpoint test determinized")

    def structural_only(a, b):
        # Compaction is the only subset construction in the package.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Nfa, "compact", refuse)
            rounds.append(same(a, b))
        return rounds[-1]

    monkeypatch.setattr(ConfigAutomaton, "same", structural_only)
    bounded_phase_pre_star(e2, c2, 4)
    assert len(rounds) == 4


def test_rounds_that_fell_back_on_the_budget_accept_the_same_configurations(e2, c2):
    # At budget 1 every compaction falls back on the trimmed automaton, so
    # no two rounds are `same` and all k rounds run; the sets still hold
    # the configurations they hold at the default budget. Probing the
    # k = 4 automaton (about 50k nodes) would take minutes, so its
    # language is compared through its canonical compaction.
    for k in range(5):
        fell_back = bounded_phase_pre_star(e2, c2, k, node_budget=1)
        canonical = bounded_phase_pre_star(e2, c2, k)
        assert not fell_back.same(canonical)
        assert fell_back.compact().same(canonical), k


def test_rounds_that_fell_back_on_the_budget_stay_small(e2, c2):
    # A starved compaction still merges bisimilar nodes, so the rounds do
    # not grow by the whole union of the last one.
    for k in range(5):
        fell_back = bounded_phase_pre_star(e2, c2, k, node_budget=1)
        assert sum(len(nfa.nodes()) for nfa in fell_back.components.values()) < 40, k


def test_every_round_is_as_the_phases_read_it():
    # The phases take each round as compaction leaves it (kphase._Target):
    # every component epsilon-free, trimmed and with an initial node, on
    # the budget fallback too. Some targets carry dead ends, which round 0
    # must already have cut.
    rng = random.Random(2503)
    fell_back = 0
    for _ in range(40):
        spec = random_spec(rng, max_states=4, max_symbols=3, max_rules=10)
        targets = from_config_set(
            spec, [random_configuration(rng, spec) for _ in range(rng.randint(1, 3))]
        )
        if rng.random() < 0.5:
            targets = _with_dead_ends(rng, targets)
        for budget in (DFA_STATE_BUDGET, 1):
            for current, _ in pre_star_rounds(spec, targets, 3, budget):
                for nfa in current.components.values():
                    assert nfa.initial
                    assert all(label is not EPSILON for _, label, _ in nfa.edges())
                    assert nfa.trim().same(nfa)
                    fell_back += budget == 1 and len(nfa.initial) > 1
    assert fell_back


# The budget-fallback DOTs of check-read's forbidden sets on two fixtures
# and of small targets on 30 random systems of three or four states:
# `compact`'s fallback names each class by its first node, so what the
# phases insert first must not follow string hashing.
_FALLBACK_DOTS = """
import random, sys

sys.path.insert(0, sys.argv[1])
from conftest import forbidden_read, random_configuration, random_spec
from upstack import export_dot, fixture_text, parse_model
from upstack.configsets import from_config_set
from upstack.kphase import bounded_phase_pre_star

for name in ("e2.upds", "relocate.upds"):
    spec = parse_model(fixture_text(name)).spec
    for symbol in spec.alphabet:
        forbidden = forbidden_read(spec, symbol)
        print(export_dot(bounded_phase_pre_star(spec, forbidden, 3, node_budget=1)))
rng = random.Random(1789)
drawn = 0
while drawn < 30:
    spec = random_spec(rng, max_states=4, max_symbols=3, max_rules=10)
    if len(spec.states) < 3:
        continue
    configs = [random_configuration(rng, spec) for _ in range(rng.randint(1, 3))]
    print(export_dot(bounded_phase_pre_star(spec, from_config_set(spec, configs), 3, node_budget=1)))
    drawn += 1
"""


def test_budget_fallbacks_do_not_depend_on_the_hash_seed():
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _FALLBACK_DOTS, str(Path(__file__).parent)],
            env=dict(subprocess_env(), PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1


def test_bounded_two_phase_example(e2, c2):
    # <p, b, cc> needs a push phase (cc -> abc, shedding the b) followed
    # by a pop phase (abc -> bc -> c, rebuilding ab above the boundary).
    witness = cfg("p", "b", "c c")
    assert not bounded_phase_pre_star(e2, c2, 1).accepts(witness)
    assert bounded_phase_pre_star(e2, c2, 2).accepts(witness)


def test_bounded_deeper_family(e2, c2):
    deeper = cfg("p", "b b", "c c c")
    assert not bounded_phase_pre_star(e2, c2, 3).accepts(deeper)
    assert bounded_phase_pre_star(e2, c2, 4).accepts(deeper)


def test_bounded_monotone_in_k(e2, c2):
    previous = None
    for k in range(4):
        accepted = accepted_up_to(bounded_phase_pre_star(e2, c2, k), e2, 4)
        if previous is not None:
            assert previous <= accepted
        previous = accepted


def test_converged_rounds_are_closed_under_every_step():
    # A round that adds nothing is the exact pre*: no configuration outside
    # it has a one-step successor inside it. Brute force over every
    # configuration of total size <= 5.
    rng = random.Random(5)
    rounds_run = []
    for _ in range(40):
        spec = random_spec(rng)
        targets = from_config_set(
            spec, [random_configuration(rng, spec) for _ in range(rng.randint(1, 3))]
        )
        for i, (pre, converged) in enumerate(pre_star_rounds(spec, targets, 4)):
            pass
        if not converged:
            continue
        rounds_run.append(i)
        for c in configs_up_to(spec, 5):
            if not pre.accepts(c):
                assert not any(pre.accepts(d) for _, d in step(spec, c)), (spec, c)
    assert len(rounds_run) >= 30 and max(rounds_run) >= 2


def test_rounds_stop_at_the_first_round_that_adds_nothing(e2, c2):
    # C2 needs one more phase per layer of e2's stack, so its rounds never
    # converge; the last is what bounded_phase_pre_star returns.
    rounds = list(pre_star_rounds(e2, c2, 3))
    assert [converged for _, converged in rounds] == [False] * 4
    assert rounds[-1][0].same(bounded_phase_pre_star(e2, c2, 3))
    assert len(list(pre_star_rounds(e2, c2, 0))) == 1
    # Without rules only the targets reach the targets: round 1 adds
    # nothing, and the rounds stop there whatever k is.
    idle = make_spec(("p",), ("a",), [])
    targets = from_config_set(idle, [cfg("p", "", "a")])
    assert [converged for _, converged in pre_star_rounds(idle, targets, 5)] == [False, True]


def test_bounded_matches_backward_oracle():
    rng = random.Random(73)
    for _ in range(40):
        spec = random_spec(rng)
        targets = [
            random_configuration(rng, spec) for _ in range(rng.randint(1, 3))
        ]
        k = rng.randint(0, 3)
        computed = bounded_phase_pre_star(spec, from_config_set(spec, targets), k)
        expected = {
            c
            for c in oracle_pre_kphase(spec, targets, depth=10, k=k, size_cap=8)
            if c.total_size <= 4
        }
        assert accepted_up_to(computed, spec, 4) == expected


def test_accepted_configs_have_phase_bounded_witnesses(e2, c2):
    # Forward replay: everything k rounds put into the set reaches the
    # target set by a trace splitting into at most k phases.
    k = 2
    closure = bounded_phase_pre_star(e2, c2, k)
    unresolved = 0
    for start in sorted(accepted_up_to(closure, e2, 3), key=repr):
        frontier = deque([(start, ())])
        seen = {start}
        found = c2.accepts(start)
        for _ in range(4000):
            if found or not frontier:
                break
            current, trace = frontier.popleft()
            for rule, succ in step(e2, current):
                extended = trace + (rule,)
                if count_phases(extended) > k or succ.total_size > 9:
                    continue
                if c2.accepts(succ):
                    found = True
                    break
                if succ not in seen:
                    seen.add(succ)
                    frontier.append((succ, extended))
        if not found:
            unresolved += 1
    assert unresolved == 0


# -- two-stack encoding ----------------------------------------------------

def test_two_stack_rule_schema(e2):
    m = upds_to_mpds(e2)
    assert m.bottom == "@bot"
    assert m.alphabet == e2.alphabet + ("@bot",)
    # Each pop becomes 1 + |alphabet| + 1 rules, each push 1 + 1 + |alphabet|.
    assert len(m.rules) == 4 * 5
    pop_trigger = [r for r in m.rules if r.from_state == "p" and r.read_symbol == "a"]
    assert pop_trigger == [MpdsRule("p", "a", 2, "p@r2", ())]
    mid = "p@r2"
    appenders = [r for r in m.rules if r.from_state == mid]
    assert appenders == [
        MpdsRule(mid, x, 1, "p", ("a", x)) for x in ("a", "b", "c", "@bot")
    ]
    push_mid = [r for r in m.rules if r.from_state == "p@r0"]
    assert push_mid[0] == MpdsRule("p@r0", "@bot", 1, "p", ("@bot",))
    assert push_mid[1:] == [MpdsRule("p@r0", x, 1, "p", ()) for x in ("a", "b", "c")]


def test_two_stack_switch_is_single_rule(e1):
    m = upds_to_mpds(e1)
    assert MpdsRule("p", "x", 2, "p", ("a",)) in m.rules


def test_two_stack_bottom_collision():
    from upstack.core import make_spec

    spec = make_spec(("p",), ("@bot",), [])
    with pytest.raises(MalformedInputError):
        upds_to_mpds(spec)


def test_two_stack_encoding_roundtrip(e2):
    m = upds_to_mpds(e2)
    c = cfg("p", "a b", "c")
    encoded = config_to_mpds(m, c)
    assert encoded == ("p", ("b", "a", "@bot"), ("c",))
    assert mpds_to_config(m, encoded) == c
    with pytest.raises(MalformedInputError):
        mpds_to_config(m, ("p", ("a",), ()))
    with pytest.raises(MalformedInputError):
        mpds_to_config(m, ("p", ("@bot", "@bot"), ()))


def test_two_stack_step_equivalence():
    rng = random.Random(515)
    for _ in range(30):
        spec = random_spec(rng)
        m = upds_to_mpds(spec)
        originals = set(spec.states)
        for _ in range(4):
            c = random_configuration(rng, spec, allow_empty_lower=False)
            direct = {config_to_mpds(m, succ) for _, succ in step(spec, c)}
            settled = set()
            for _, mid in mpds_step(m, config_to_mpds(m, c)):
                if mid[0] in originals:
                    settled.add(mid)
                else:
                    followups = mpds_step(m, mid)
                    assert len(followups) == 1
                    settled.add(followups[0][1])
            assert settled == direct
