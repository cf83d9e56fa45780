"""One-step semantics, traces, upper-word tracking, phase counting."""

from __future__ import annotations

import ast
import copy
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import cfg, e1_seed, random_configuration, random_spec, subprocess_env
from upstack.core import (
    Configuration,
    Rule,
    RuleKind,
    UpdsSpec,
    apply_rule,
    check_configuration,
    count_phases,
    make_spec,
    run_trace,
    step,
    successors,
    trace_upper_word,
)
from upstack.checkers import UNSAFE, Verdict
from upstack.errors import MalformedInputError, RuleNotEnabledError
from upstack.model import ModelFile


def test_rule_kinds(e1):
    kinds = [r.kind for r in e1.rules]
    assert kinds == [
        RuleKind.SWITCH,
        RuleKind.SWITCH,
        RuleKind.PUSH,
        RuleKind.POP,
        RuleKind.POP,
        RuleKind.SWITCH,
    ]


def test_rule_write_arity_capped():
    with pytest.raises(MalformedInputError):
        Rule("p", "a", "p", ("a", "b", "c"))


def test_spec_validation_rejects_undeclared():
    with pytest.raises(MalformedInputError):
        make_spec(("p",), ("a",), [("p", "a", "q", ())])
    with pytest.raises(MalformedInputError):
        make_spec(("p",), ("a",), [("p", "b", "p", ())])
    with pytest.raises(MalformedInputError):
        make_spec(("p", "p"), ("a",), [])
    with pytest.raises(MalformedInputError):
        make_spec(("p",), ("a",), [("p", "a", "p", ()), ("p", "a", "p", ())])


def test_switch_rewrites_top_only(e1):
    got = step(e1, e1_seed(1))
    assert got == [(e1.rules[0], cfg("p", "", "a y x bot"))]


def test_pop_appends_at_right_end(e1):
    # The popped symbol lands adjacent to the boundary.
    (rule, succ), = step(e1, cfg("p", "a", "b bot"))
    assert rule is e1.rules[4]
    assert succ == cfg("p", "a b", "bot")


def test_push_deletes_rightmost_upper(e1):
    succs = dict(step(e1, cfg("p", "a b", "a bot")))
    assert succs[e1.rules[2]] == cfg("p", "a", "a b bot")


def test_push_on_empty_upper_keeps_it_empty(e1):
    succs = dict(step(e1, cfg("p", "", "a bot")))
    assert succs[e1.rules[2]] == cfg("p", "", "a b bot")


def test_no_step_from_empty_lower(e1):
    assert step(e1, cfg("p", "a b")) == []


def test_run_trace_reaches_first_pumped_member(e1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    assert run_trace(e1, e1_seed(0), (s_x, r_a, e)) == cfg("p2", "a", "bot")


def test_run_trace_rejects_disabled_rule_with_index(e1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    with pytest.raises(RuleNotEnabledError) as info:
        run_trace(e1, e1_seed(0), (s_x, r_a, s_x))
    assert info.value.index == 2
    with pytest.raises(RuleNotEnabledError) as info:
        run_trace(e1, cfg("p", "", "a"), (r_a, r_a))
    assert info.value.index == 1


def test_upper_word_matches_trace_effects(e1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    start = cfg("p", "", "a a bot")
    assert trace_upper_word(e1, (), start) == ()
    assert trace_upper_word(e1, (r_a,), start) == ("a",)
    assert trace_upper_word(e1, (r_a, c), start) == ()
    assert trace_upper_word(e1, (r_a, r_a, c, e), start) == ("a",)


@given(st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_upper_word_agrees_with_executed_traces(seed, walk_len):
    rng = random.Random(seed)
    spec = random_spec(rng)
    current = random_configuration(rng, spec)
    start = current
    trace = []
    for _ in range(walk_len):
        succs = step(spec, current)
        if not succs:
            break
        rule, current = rng.choice(succs)
        trace.append(rule)
    assert trace_upper_word(spec, tuple(trace), start) == current.upper


@given(st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_total_size_conserved_except_push_on_empty(seed, walk_len):
    rng = random.Random(seed)
    spec = random_spec(rng)
    current = random_configuration(rng, spec)
    for _ in range(walk_len):
        succs = step(spec, current)
        if not succs:
            break
        rule, nxt = rng.choice(succs)
        grows = rule.kind is RuleKind.PUSH and not current.upper
        assert nxt.total_size == current.total_size + (1 if grows else 0)
        current = nxt


def test_count_phases_examples(e1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    assert count_phases(()) == 0
    assert count_phases((s_x,)) == 1
    assert count_phases((s_x, s_y, e)) == 1
    assert count_phases((r_a, c, r_a)) == 3
    assert count_phases((c, s_x, c)) == 1
    assert count_phases((r_a, s_x, r_b)) == 1
    assert count_phases((c, c, r_a, r_b, c)) == 3
    # Any iterable of rules, not only a sized one.
    assert count_phases(iter(())) == 0
    assert count_phases(iter((s_x, s_y))) == 1
    assert count_phases(rule for rule in (c, c, r_a, r_b, c)) == 3


_KIND_TO_RULE = {
    RuleKind.POP: Rule("q", "g", "q", ()),
    RuleKind.SWITCH: Rule("q", "g", "q", ("g",)),
    RuleKind.PUSH: Rule("q", "g", "q", ("g", "g")),
}


@st.composite
def _kind_traces(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KIND_TO_RULE, key=str)), max_size=12))
    return tuple(_KIND_TO_RULE[k] for k in kinds)


@given(_kind_traces(), st.integers(0, 12))
def test_count_phases_invariant_under_switch_insertion(trace, pos):
    """Inserting a switch anywhere never changes the phase count, except
    that the empty trace becomes a single block."""
    switched = trace[: pos % (len(trace) + 1)] + (
        _KIND_TO_RULE[RuleKind.SWITCH],
    ) + trace[pos % (len(trace) + 1) :]
    expected = count_phases(trace) if trace else 0
    assert count_phases(switched) == max(expected, 1)


@given(_kind_traces())
def test_count_phases_is_minimal_block_decomposition(trace):
    """Cross-check against a brute-force minimal split into blocks that
    avoid pops or avoid pushes."""
    n = len(trace)
    if n == 0:
        assert count_phases(trace) == 0
        return
    best = {0: 0}
    for i in range(1, n + 1):
        options = []
        for j in range(i):
            block = trace[j:i]
            kinds = {r.kind for r in block}
            if not (RuleKind.POP in kinds and RuleKind.PUSH in kinds):
                if j in best:
                    options.append(best[j] + 1)
        best[i] = min(options)
    assert count_phases(trace) == best[n]


def test_apply_rule_matches_step(e1):
    c = cfg("p", "x y", "a bot")
    for rule, succ in step(e1, c):
        assert apply_rule(rule, c) == succ


def test_move_table_lists_rules_by_state_and_top_in_declaration_order(e1):
    s_x, s_y, c, r_a, r_b, e = e1.rules
    assert e1.moves[("p", "a")] == ((c, "p", 2, ("a", "b")), (r_a, "p", 0, ()))
    assert e1.moves[("p", "bot")] == ((e, "p2", 1, ("bot",)),)
    assert set(e1.moves) == {("p", "x"), ("p", "y"), ("p", "a"), ("p", "b"), ("p", "bot")}
    assert e1.rules_reading("p", "a") == (c, r_a)
    assert e1.rules_reading("p2", "a") == ()
    # The backward table: (to_state, written) -> (from_state, read_symbol).
    assert e1.moves_into == {
        ("p", ("a",)): (("p", "x"),),
        ("p", ("b",)): (("p", "y"),),
        ("p", ("a", "b")): (("p", "a"),),
        ("p", ()): (("p", "a"), ("p", "b")),
        ("p2", ("bot",)): (("p", "bot"),),
    }


@pytest.mark.parametrize(
    "states, alphabet, rules, message",
    [
        (("p", ""), ("a",), [], "empty state identifier"),
        (("p",), ("a", "a"), [], "duplicate symbol 'a'"),
        (("p",), ("a",), [("q", "a", "p", ())], "undeclared state 'q' in rule q a -> p"),
        (("p",), ("a",), [("p", "a", "q", ())], "undeclared state 'q' in rule p a -> q"),
        (("p",), ("a",), [("p", "b", "p", ())], "undeclared symbol 'b' in rule p b -> p"),
        (("p",), ("a",), [("p", "a", "p", ("a", "c"))], "undeclared symbol 'c' in rule p a -> p a c"),
        (("p",), ("a",), [("p", "a", "p", ())] * 2, "duplicate rule p a -> p"),
    ],
)
def test_a_system_words_the_first_error_its_checks_find(
    states, alphabet, rules, message
):
    with pytest.raises(MalformedInputError) as err:
        make_spec(states, alphabet, rules)
    assert str(err.value) == message


def test_successors_are_tuples_and_grow_false_drops_only_the_growing_push(e1):
    moves = e1.moves[("p", "a")]
    c, r_a = e1.rules[2], e1.rules[3]
    assert successors(moves, (), ("a", "bot")) == [
        (c, ("p", (), ("a", "b", "bot"))),
        (r_a, ("p", ("a",), ("bot",))),
    ]
    assert successors(moves, (), ("a", "bot"), grow=False) == [
        (r_a, ("p", ("a",), ("bot",))),
    ]
    # Onto a nonempty upper word a push keeps the size, so it stays.
    assert successors(moves, ("x",), ("a",), grow=False) == [
        (c, ("p", (), ("a", "b"))),
        (r_a, ("p", ("x", "a"), ())),
    ]


def test_check_configuration_rejections_keep_their_messages(e1):
    assert check_configuration(e1, cfg("p", "a", "bot")) == cfg("p", "a", "bot")
    cases = (
        (cfg("q", "", "bot"), "undeclared state 'q' in configuration"),
        (cfg("p", "z", "bot"), "undeclared symbol 'z' in upper word"),
        (cfg("p", "", "a z"), "undeclared symbol 'z' in lower word"),
    )
    for c, message in cases:
        with pytest.raises(MalformedInputError) as info:
            check_configuration(e1, c)
        assert str(info.value) == message


# -- the record classes ------------------------------------------------------

def test_records_compare_and_hash_by_fields(e1):
    assert cfg("p", "a", "b") == Configuration("p", ("a",), ("b",))
    assert cfg("p", "a", "b") != cfg("p", "", "a b")
    assert len({cfg("p", "a", "b"), Configuration("p", ("a",), ("b",))}) == 1
    assert cfg("p", "a", "b") != ("p", ("a",), ("b",))
    rule = Rule("p", "x", "p", ("a",))
    by_keywords = Rule(from_state="p", read_symbol="x", to_state="p", written=("a",))
    assert {rule: 1}[by_keywords] == 1
    assert Rule("p", "a", "p") == Rule("p", "a", "p", ())
    assert rule != Rule("p", "x", "p", ("b",))
    assert e1 == make_spec(e1.states, e1.alphabet, [
        (r.from_state, r.read_symbol, r.to_state, r.written) for r in e1.rules
    ])
    assert hash(e1) == hash(UpdsSpec(e1.states, e1.alphabet, e1.rules))


def test_record_reprs_are_pinned():
    # The oracle command sorts its output in the order of a configuration's
    # repr (`test_cli.py`).
    assert repr(cfg("p2", "a b", "bot")) == (
        "Configuration(state='p2', upper=('a', 'b'), lower=('bot',))"
    )
    assert repr(Rule("p", "a", "p", ("a", "b"))) == (
        "Rule(from_state='p', read_symbol='a', to_state='p', written=('a', 'b'))"
    )
    assert repr(Rule("p", "a", "q")) == (
        "Rule(from_state='p', read_symbol='a', to_state='q', written=())"
    )
    assert str(Rule("p", "a", "p", ("a", "b"))) == "p a -> p a b"
    assert str(cfg("p2", "a b", "bot")) == "<p2: a b ^ bot>"
    assert str(Configuration("p", (), ())) == "<p: _ ^ _>"
    assert f"{cfg('p', '', 'x y')}" == "<p: _ ^ x y>"


# Runs in a fresh interpreter, which has not loaded `extras`: a rule's
# repr and a configuration's repr and str, twice each. The first call loads the
# method's body from `extras` and puts it on the class; the second finds
# it there.
_TEXTS = """
import sys
from upstack.core import Configuration, Rule

rule, c = Rule("p", "a", "p", ("a", "b")), Configuration("p2", ("a", "b"), ("bot",))
print("upstack.extras" in sys.modules)
for _ in range(2):
    print(repr(rule))
    print(repr(c))
    print(c)
print("upstack.extras" in sys.modules)
"""


def test_moved_record_texts_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _TEXTS],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    texts = [
        "Rule(from_state='p', read_symbol='a', to_state='p', written=('a', 'b'))",
        "Configuration(state='p2', upper=('a', 'b'), lower=('bot',))",
        "<p2: a b ^ bot>",
    ]
    assert proc.stdout.splitlines() == ["False", *texts, *texts, "True"]


def test_records_are_frozen(e1):
    c = cfg("p", "a", "b")
    for record, name in ((c, "state"), (e1.rules[0], "written"), (e1, "rules")):
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        c.extra = 1


def test_rule_is_an_immutable_record_equal_by_fields(e1):
    rule = Rule("p", "a", "p", ("a", "b"))
    same = Rule(from_state="p", read_symbol="a", to_state="p", written=("a", "b"))
    built = make_spec(e1.states, e1.alphabet, [("p", "a", "p", ["a", "b"])]).rules[0]
    for name in ("from_state", "read_symbol", "to_state", "written", "kind"):
        with pytest.raises(AttributeError):
            setattr(rule, name, "x")
        with pytest.raises(AttributeError):
            delattr(rule, name)
    with pytest.raises(AttributeError):
        rule.extra = 1
    assert (rule.from_state, rule.read_symbol, rule.to_state, rule.written) == (
        "p", "a", "p", ("a", "b")
    )
    assert rule.kind is RuleKind.PUSH and str(rule) == "p a -> p a b"
    for other in (same, built):
        assert type(other) is Rule and other == rule and hash(other) == hash(rule)
    assert len({rule, same, built}) == 1
    for differs in (("q", "a", "p", ("a", "b")), ("p", "b", "p", ("a", "b")),
                    ("p", "a", "q", ("a", "b")), ("p", "a", "p", ("a",))):
        assert Rule(*differs) != rule
    assert rule != Configuration("p", ("a",), ("p",))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(rule, protocol))
        assert type(clone) is Rule and clone == rule and hash(clone) == hash(rule)
        assert repr(clone) == repr(rule)
    # make_spec words a rule writing three symbols as Rule does.
    with pytest.raises(MalformedInputError) as by_rule:
        Rule("p", "a", "p", ("a", "b", "a"))
    with pytest.raises(MalformedInputError) as by_spec:
        make_spec(e1.states, e1.alphabet, [("p", "a", "p", ()), ("p", "a", "p", "aba")])
    assert str(by_spec.value) == str(by_rule.value)


def test_model_file_sets_default_to_fresh_dicts(e1):
    first, second = ModelFile(e1), ModelFile(e1)
    assert first.sets == {} and first.sets is not second.sets
    assert first == second


def test_records_survive_copy_and_pickle(e1):
    c = cfg("p", "a", "b")
    verdict = Verdict(UNSAFE, 2, 100, c, e1.rules[:1], "note")
    for record in (c, e1.rules[2], e1, ModelFile(e1, {"S": {}}), verdict):
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(clone) is type(record) and clone == record
            if not isinstance(record, ModelFile):
                assert hash(clone) == hash(record)
    clone = pickle.loads(pickle.dumps(e1))
    assert clone.rules_reading("p", "a") == e1.rules_reading("p", "a")
    with pytest.raises(AttributeError):
        copy.deepcopy(c).state = "q"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Both cost every CLI call start-up time. What a bare interpreter holds
    # already (a module of site-packages may import either when Python
    # starts) is not the CLI's doing, so only what `upstack.cli` adds
    # counts.
    def modules(code: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}import sys; print(sorted(sys.modules))"],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        return set(ast.literal_eval(proc.stdout))

    added = modules("import upstack.cli; ") - modules("")
    assert "upstack.cli" in added
    assert not added & {"dataclasses", "inspect"}
