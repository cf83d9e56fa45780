import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import (
    ConfigAutomaton,
    bar,
    config_from_word,
    config_word,
    from_config_set,
    intersect_sets,
    is_barred,
    project_lower,
    project_upper,
    unbar,
    union_sets,
    upper_lower_product,
)
from upstack.core import Configuration, make_spec
from upstack.errors import MalformedInputError
from upstack.fixtures import fixture_names, fixture_text
from upstack.extras import phase_pre
from upstack.grammar import is_reachable, single_origin
from upstack.kphase import PhaseKind
from upstack.membership import _holds_start, start_classes
from upstack.model import ModelFile, parse_model, print_model
from upstack.nfa import EPSILON, Nfa, from_words
from upstack.oracle import oracle_post
from upstack.regex import compile_config_regex
from upstack.residue import check_upper_read
from upstack.upperapprox import overapprox_post

from conftest import cfg, random_configuration, random_spec
from equivalence_reference import equivalent_sets, product_equivalent
from search_reference import reference_members
from thompson_reference import thompson_config_regex

import random
from collections import Counter
from itertools import product


def test_bar_roundtrip():
    assert is_barred(bar("a"))
    assert not is_barred("a")
    assert unbar(bar("a")) == "a"
    with pytest.raises(MalformedInputError):
        unbar("a")


def test_config_word_layout():
    c = cfg("p", "a b", "x bot")
    assert config_word(c) == (bar("a"), bar("b"), "x", "bot")
    assert config_from_word("p", config_word(c)) == c


def test_config_from_word_rejects_barred_after_plain():
    with pytest.raises(MalformedInputError):
        config_from_word("p", ("x", bar("a")))


def test_from_config_set_membership(e1):
    configs = [cfg("p", "", "x bot"), cfg("p2", "a", "bot")]
    aut = from_config_set(e1, configs)
    for c in configs:
        assert aut.accepts(c)
    assert not aut.accepts(cfg("p", "a", "x bot"))
    assert not aut.accepts(cfg("p2", "", "bot"))
    aut.validate()


def test_from_config_set_checks_declarations(e1):
    with pytest.raises(MalformedInputError):
        from_config_set(e1, [cfg("nope", "", "bot")])
    with pytest.raises(MalformedInputError):
        from_config_set(e1, [cfg("p", "z", "bot")])


def _zone_violation(alphabet) -> ConfigAutomaton:
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, "x", 1)
    nfa.add_edge(1, bar("a"), 2)
    nfa.add_final(2)
    return ConfigAutomaton(alphabet, {"p": nfa})


def _undeclared_symbol(alphabet) -> ConfigAutomaton:
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, "z", 1)
    nfa.add_edge(1, "bot", 2)
    nfa.add_final(2)
    return ConfigAutomaton(alphabet, {"p": nfa})


def test_validate_rejects_zone_violation():
    with pytest.raises(MalformedInputError):
        _zone_violation(("a", "x")).validate()


def test_validate_rejects_undeclared_symbol():
    with pytest.raises(MalformedInputError):
        _undeclared_symbol(("a", "bot")).validate()


def test_validate_allows_eps_and_mixed_paths():
    nfa = Nfa()
    nfa.add_initial(0)
    nfa.add_edge(0, bar("a"), 1)
    nfa.add_edge(1, EPSILON, 2)
    nfa.add_edge(2, "x", 3)
    nfa.add_edge(3, "x", 3)
    nfa.add_final(3)
    ConfigAutomaton(("a", "x"), {"p": nfa}).validate()


def test_union_and_intersection(e1):
    a = from_config_set(e1, [cfg("p", "a", "bot"), cfg("p2", "", "bot")])
    b = from_config_set(e1, [cfg("p", "a", "bot"), cfg("p", "b", "bot")])
    u = union_sets(a, b)
    for c in [cfg("p", "a", "bot"), cfg("p", "b", "bot"), cfg("p2", "", "bot")]:
        assert u.accepts(c)
    i = intersect_sets(a, b)
    assert i.accepts(cfg("p", "a", "bot"))
    assert not i.accepts(cfg("p", "b", "bot"))
    assert not i.accepts(cfg("p2", "", "bot"))


def test_alphabet_mismatch_rejected(e1, e2):
    a = from_config_set(e1, [cfg("p", "", "bot")])
    b = from_config_set(e2, [cfg("p", "", "c")])
    with pytest.raises(MalformedInputError):
        union_sets(a, b)
    with pytest.raises(MalformedInputError):
        intersect_sets(a, b)


def test_projections(e1):
    aut = from_config_set(
        e1, [cfg("p", "a b", "x bot"), cfg("p", "", "y bot"), cfg("p2", "a", "bot")]
    )
    lower = project_lower(aut)
    assert lower["p"].accepts(("x", "bot"))
    assert lower["p"].accepts(("y", "bot"))
    assert not lower["p"].accepts(("bot",))
    assert lower["p2"].accepts(("bot",))
    upper = project_upper(aut)
    assert upper["p"].accepts(("a", "b"))
    assert upper["p"].accepts(())
    assert not upper["p"].accepts(("a",))
    assert upper["p2"].accepts(("a",))


def test_shortest_config_and_enumerate(e1):
    configs = [cfg("p", "a b", "x bot"), cfg("p2", "", "bot"), cfg("p", "a", "bot")]
    aut = from_config_set(e1, configs)
    assert aut.shortest_config() == cfg("p2", "", "bot")
    assert set(aut.enumerate_configs(10)) == set(configs)
    assert ConfigAutomaton(e1.alphabet).shortest_config() is None


def test_upper_lower_product(e1):
    upper = {"p": from_words([("a",), ("a", "b")])}
    lower = {"p": from_words([("bot",), ("x", "bot")]), "p2": from_words([("bot",)])}
    aut = upper_lower_product(e1.alphabet, upper, lower)
    aut.validate()
    expected = {
        cfg("p", "a", "bot"),
        cfg("p", "a", "x bot"),
        cfg("p", "a b", "bot"),
        cfg("p", "a b", "x bot"),
    }
    assert set(aut.enumerate_configs(10)) == expected
    assert "p2" not in aut.components


def test_oracle_closure_roundtrips_through_automaton(e1):
    reached = oracle_post(e1, [cfg("p", "", "x bot")], depth=4, size_cap=6)
    aut = from_config_set(e1, reached)
    aut.validate()
    assert set(aut.enumerate_configs(6)) == set(reached)
    compacted = aut.compact()
    compacted.validate()
    assert equivalent_sets(aut, compacted)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_random_sets_roundtrip(seed, count):
    rng = random.Random(seed)
    spec = random_spec(rng)
    configs = {random_configuration(rng, spec) for _ in range(count)}
    aut = from_config_set(spec, configs)
    aut.validate()
    longest = max(c.total_size for c in configs)
    assert set(aut.enumerate_configs(longest)) == configs
    for c in configs:
        assert aut.accepts(c)


# -- validity is established once per set ---------------------------------

def _random_zone(rng: random.Random, symbols, depth: int = 2) -> tuple:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return ("sym", rng.choice(symbols)) if rng.random() < 0.8 else ("empty",)
    if roll < 0.55:
        return ("star", _random_zone(rng, symbols, depth - 1))
    kind = "concat" if roll < 0.8 else "alt"
    parts = tuple(_random_zone(rng, symbols, depth - 1) for _ in range(rng.randint(2, 3)))
    return (kind, parts)


def _random_model(rng: random.Random):
    """A random system with one set S, written out and parsed back."""
    spec = random_spec(rng)
    slices = {
        state: (
            "config",
            tuple(
                (_random_zone(rng, spec.alphabet), _random_zone(rng, spec.alphabet))
                for _ in range(rng.randint(1, 3))
            ),
        )
        for state in rng.sample(spec.states, rng.randint(1, len(spec.states)))
    }
    return parse_model(print_model(ModelFile(spec, {"S": slices})))


def _full_scan(compiled: ConfigAutomaton) -> None:
    """validate() on a fresh, unmarked set with the same components."""
    ConfigAutomaton(compiled.alphabet, compiled.components).validate()


def test_fixture_sets_pass_a_full_scan():
    for name in fixture_names():
        model = parse_model(fixture_text(name))
        for set_name in model.set_names():
            _full_scan(model.config_set(set_name))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_compiled_sets_pass_a_full_scan(seed):
    _full_scan(_random_model(random.Random(seed)).config_set("S"))


@pytest.mark.parametrize("build", [_zone_violation, _undeclared_symbol])
def test_every_entry_point_rejects_an_invalid_hand_built_set(e1, build):
    bad = build(e1.alphabet)
    entry_points = [
        lambda: is_reachable(e1, bad, cfg("p2", "a", "bot")),
        lambda: single_origin(e1, bad),
        lambda: phase_pre(e1, bad, PhaseKind.POP),
        lambda: phase_pre(e1, bad, PhaseKind.PUSH),
        lambda: overapprox_post(e1, bad),
    ]
    # Twice over: a failed scan must not mark the set as valid.
    for call in entry_points * 2:
        with pytest.raises(MalformedInputError):
            call()


def test_every_entry_point_names_an_undeclared_state_of_a_hand_built_set(e1):
    stray = ConfigAutomaton(e1.alphabet, {"zz": from_words([("a",)])})
    entry_points = [
        ("target set", lambda: phase_pre(e1, stray, PhaseKind.POP)),
        ("target set", lambda: phase_pre(e1, stray, PhaseKind.PUSH)),
        ("start set", lambda: single_origin(e1, stray)),
        ("start set", lambda: overapprox_post(e1, stray)),
        ("start set", lambda: check_upper_read(e1, stray, "a")),
        ("start set", lambda: is_reachable(e1, stray, cfg("p2", "a", "bot"))),
    ]
    for what, call in entry_points:
        with pytest.raises(MalformedInputError, match=f"^undeclared state 'zz' in {what}$"):
            call()


def _count_scans(monkeypatch) -> list:
    scanned = []
    full_scan = ConfigAutomaton._scan

    def counting(self):
        scanned.append(self)
        full_scan(self)

    monkeypatch.setattr(ConfigAutomaton, "_scan", counting)
    return scanned


def test_a_compiled_set_is_never_scanned(monkeypatch):
    model = parse_model(fixture_text("e1.upds"))
    scanned = _count_scans(monkeypatch)
    c1 = model.config_set("C1")
    assert is_reachable(model.spec, c1, cfg("p2", "a", "bot"))
    assert not is_reachable(model.spec, c1, cfg("p2", "a a", "bot"))
    single_origin(model.spec, c1)
    phase_pre(model.spec, c1, PhaseKind.POP)
    phase_pre(model.spec, c1, PhaseKind.PUSH)
    assert scanned == []


def test_a_hand_built_set_is_scanned_once(e1, monkeypatch):
    start = from_config_set(e1, [cfg("p", "", "x bot")])
    scanned = _count_scans(monkeypatch)
    for probe in (cfg("p2", "a", "bot"), cfg("p2", "a a", "bot"), cfg("p", "", "x bot")):
        is_reachable(e1, start, probe)
    single_origin(e1, start)
    phase_pre(e1, start, PhaseKind.POP)
    phase_pre(e1, start, PhaseKind.PUSH)
    overapprox_post(e1, start)
    assert sum(s is start for s in scanned) == 1


# -- the member walk ---------------------------------------------------------

def test_the_member_walk_lists_the_reference_enumeration_in_order():
    """On random compiled sets (barred upper zones, empty lower words),
    the same sets built by Thompson's construction (epsilon edges), listed
    sets and their unions, `members` and `enumerate_configs` give the
    reference's list at every cap 0..6."""
    rng = random.Random(20261018)
    covered = {"epsilon": 0, "upper": 0, "empty lower": 0}
    for _ in range(40):
        model = _random_model(rng)
        spec = model.spec
        compiled = model.config_set("S")
        thompson = ConfigAutomaton(
            spec.alphabet,
            {
                state: thompson_config_regex(ast, spec.alphabet)
                for state, ast in model.sets["S"].items()
            },
        )
        listed = from_config_set(
            spec, [random_configuration(rng, spec, max_side=3) for _ in range(rng.randint(1, 4))]
        )
        covered["epsilon"] += any(
            label is EPSILON for nfa in thompson.components.values() for _, label, _ in nfa.edges()
        )
        for start_set in (compiled, thompson, listed, union_sets(compiled, listed)):
            for cap in range(7):
                want = reference_members(start_set, cap)
                assert list(start_set.members(cap)) == [(c.state, c.upper, c.lower) for c in want]
                assert start_set.enumerate_configs(cap) == want
                covered["upper"] += any(c.upper for c in want)
                covered["empty lower"] += any(not c.lower for c in want)
    assert min(covered.values()) >= 10, covered


def test_the_member_walk_never_puts_a_barred_label_after_a_plain_one(e1):
    # An unvalidated set whose only word has a barred label after a plain
    # one: the walk drops it, and with it every word it prefixes.
    nfa = Nfa(initial=(0,), finals=(2, 3))
    nfa.add_edge(0, "x", 1)
    nfa.add_edge(1, bar("a"), 2)
    nfa.add_edge(2, "bot", 3)
    assert list(ConfigAutomaton(e1.alphabet, {"p": nfa}).members(3)) == []


def _counted(member, upper):
    """A (state, upper, lower) member's class counted against upper:
    (state, shared prefix length, cells above it, lower)."""
    state, mine, lower = member
    shared = 0
    for symbol, theirs in zip(mine, upper):
        if symbol != theirs:
            break
        shared += 1
    return state, shared, len(mine) - shared, lower


def test_the_class_walk_yields_the_counted_member_stream_in_order():
    """On random compiled sets, the same sets built by Thompson's
    construction (epsilon edges), listed sets and sets with a starred
    upper zone, the classes that `start_classes` walks, counted against an
    upper word, are the members each counted into its class, first
    occurrences in the same order, at every cap 0..6; and the walk never
    yields more than the members."""
    rng = random.Random(20261019)
    covered = {"epsilon": 0, "shared": 0, "above": 0, "merged": 0}
    for _ in range(40):
        model = _random_model(rng)
        spec = model.spec
        thompson = ConfigAutomaton(
            spec.alphabet,
            {
                state: thompson_config_regex(ast, spec.alphabet)
                for state, ast in model.sets["S"].items()
            },
        )
        listed = from_config_set(
            spec, [random_configuration(rng, spec, max_side=3) for _ in range(rng.randint(1, 4))]
        )
        x, y, z, w = (rng.choice(spec.alphabet) for _ in range(4))
        starred = ConfigAutomaton(spec.alphabet, {
            rng.choice(spec.states): compile_config_regex(f"({x} | {y} | {z})* ^ {w}*", spec.alphabet)
        })
        covered["epsilon"] += any(
            label is EPSILON for nfa in thompson.components.values() for _, label, _ in nfa.edges()
        )
        for start_set in (model.config_set("S"), thompson, listed, starred):
            uppers = [c.upper for c in start_set.enumerate_configs(4) if c.upper]
            for cap in range(7):
                # Mostly a member's upper word, grown or cut, so prefixes match.
                if uppers and rng.random() < 0.7:
                    upper = rng.choice(uppers)[: rng.randint(1, 4)]
                    upper += tuple(rng.choices(spec.alphabet, k=rng.randint(0, 2)))
                else:
                    upper = tuple(rng.choices(spec.alphabet, k=rng.randint(0, 3)))
                members = list(start_set.members(cap))
                want = list(dict.fromkeys(_counted(m, upper) for m in members))
                got = list(start_classes(start_set, upper, cap))
                assert list(dict.fromkeys(got)) == want, (upper, cap)
                assert len(got) <= len(members)
                covered["shared"] += any(c[1] for c in want)
                covered["above"] += any(c[2] for c in want)
                covered["merged"] += len(got) < len(members)
    assert min(covered.values()) >= 10, covered


def _class_members(alphabet, cls, upper):
    """The configurations of a class counted against upper, found by
    counting every upper word of its length."""
    state, shared, above, lower = cls
    return [
        Configuration(state, word, lower)
        for word in product(alphabet, repeat=shared + above)
        if _counted((state, word, lower), upper) == cls
    ]


def test_the_class_test_agrees_with_the_members_of_each_class():
    """On random compiled sets, the same sets built by Thompson's
    construction (epsilon edges) and sets with a starred upper zone, over
    alphabets of one to three symbols, `_holds_start` finds a start in a
    class exactly when the set accepts one of the class's members, and in
    a list of classes exactly when it finds one in some class. Half the
    classes are those of members, counted against upper words grown or
    cut from theirs, so that many hold a start."""
    rng = random.Random(20261020)
    covered = Counter()
    for _ in range(60):
        model = _random_model(rng)
        spec = model.spec
        thompson = ConfigAutomaton(
            spec.alphabet,
            {
                state: thompson_config_regex(ast, spec.alphabet)
                for state, ast in model.sets["S"].items()
            },
        )
        x, y, z = (rng.choice(spec.alphabet) for _ in range(3))
        starred = ConfigAutomaton(spec.alphabet, {
            rng.choice(spec.states): compile_config_regex(f"({x} | {y})* ^ {z}*", spec.alphabet)
        })
        for start_set in (model.config_set("S"), thompson, starred):
            members = list(start_set.members(4))
            for _ in range(10):
                if members and rng.random() < 0.5:
                    member = rng.choice(members)
                    upper = member[1][: rng.randint(0, len(member[1]))]
                    upper += tuple(rng.choices(spec.alphabet, k=rng.randint(0, 2)))
                    cls = _counted(member, upper)
                else:
                    upper = tuple(rng.choices(spec.alphabet, k=rng.randint(0, 3)))
                    cls = (
                        rng.choice(spec.states),
                        rng.randint(0, len(upper)),
                        rng.randint(0, 2),
                        tuple(rng.choices(spec.alphabet, k=rng.randint(0, 2))),
                    )
                want = any(map(start_set.accepts, _class_members(spec.alphabet, cls, upper)))
                assert _holds_start(start_set, upper, [cls]) is want, (upper, cls)
                others = [_counted(m, upper) for m in rng.sample(members, min(2, len(members)))]
                assert _holds_start(start_set, upper, [*others, cls]) is (bool(others) or want)
                climbing = cls[2] and cls[1] < len(upper)
                covered["epsilon" if start_set is thompson else "no epsilon", want] += 1
                covered["one symbol" if len(spec.alphabet) == 1 else "symbols", want] += 1
                covered["above, short prefix" if climbing else "other", want] += 1
    assert min(covered.values()) >= 100, covered


def test_the_class_test_on_hand_built_sets():
    # An automaton with epsilon edges, which the compiler never builds,
    # for p: a ^ b, p: _ ^ c b and p: _ ^ c c.
    nfa = Nfa(initial=(0,), finals=(4,))
    nfa.add_edge(0, EPSILON, 1)
    nfa.add_edge(1, bar("a"), 2)
    nfa.add_edge(2, EPSILON, 3)
    nfa.add_edge(3, "b", 4)
    nfa.add_edge(0, EPSILON, 5)
    nfa.add_edge(5, "c", 6)
    nfa.add_edge(6, EPSILON, 3)
    nfa.add_edge(6, "c", 4)
    eps = ConfigAutomaton(("a", "b", "c"), {"p": nfa})
    assert _holds_start(eps, ("a",), [("p", 1, 0, ("b",))])
    assert _holds_start(eps, ("a",), [("p", 0, 0, ("c", "c"))])
    assert _holds_start(eps, ("a",), [("p", 0, 0, ("c", "b"))])
    assert not _holds_start(eps, ("a",), [("p", 0, 1, ("b",)), ("p2", 1, 0, ("b",))])
    assert _holds_start(eps, ("b",), [("p", 0, 1, ("b",))])
    assert _holds_start(eps, (), [("p", 0, 1, ("b",))])
    # The first cell above the prefix is never U's next symbol: counted
    # against a, p: a ^ bot is in (p, 1, 0, bot), not in (p, 0, 1, bot).
    one = from_config_set(make_spec(("p",), ("a", "bot"), []), [cfg("p", "a", "bot")])
    assert _holds_start(one, ("a",), [("p", 1, 0, ("bot",))])
    assert not _holds_start(one, ("a",), [("p", 0, 1, ("bot",))])
    assert _holds_start(one, ("a", "a"), [("p", 1, 0, ("bot",))])
    assert _holds_start(one, ("bot",), [("p", 0, 1, ("bot",))])


# -- canonical sets compare by structure -----------------------------------

def _rebuilt(rng: random.Random, spec, configs) -> ConfigAutomaton:
    """The same configurations as from_config_set(spec, configs), built as a
    union of two shuffled halves, with an empty component added."""
    shuffled = list(configs) + rng.sample(list(configs), len(configs) // 2)
    rng.shuffle(shuffled)
    cut = rng.randint(0, len(shuffled))
    rebuilt = union_sets(
        from_config_set(spec, shuffled[:cut]), from_config_set(spec, shuffled[cut:])
    )
    spare = [q for q in spec.states if q not in rebuilt.components]
    if not spare:
        return rebuilt
    empty = {rng.choice(spare): Nfa(initial=(0,))}
    return ConfigAutomaton(spec.alphabet, {**rebuilt.components, **empty})


def _refuse_to_determinize(*args, **kwargs):
    raise AssertionError("determinized two canonical sets")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["equal", "drop", "fresh"]))
def test_canonical_equivalence_agrees_with_the_product_walk(seed, variant):
    rng = random.Random(seed)
    spec = random_spec(rng)
    configs = [random_configuration(rng, spec) for _ in range(rng.randint(0, 4))]
    if variant == "equal":
        others = configs
    elif variant == "drop":
        others = configs[1:]
    else:
        others = [random_configuration(rng, spec) for _ in range(rng.randint(0, 4))]
    a = from_config_set(spec, configs)
    b = _rebuilt(rng, spec, others)
    expected = all(
        product_equivalent(a.component(q), b.component(q))
        for q in set(a.components) | set(b.components)
    )
    ca, cb = a.compact(), b.compact()
    with pytest.MonkeyPatch.context() as patch:
        # Compaction is the only subset construction in the package.
        patch.setattr(Nfa, "compact", _refuse_to_determinize)
        assert ca.same(cb) == expected
        assert cb.same(ca) == expected
    if variant == "equal":
        assert expected


def test_a_set_that_fell_back_on_the_budget_is_not_same_as_its_canonical_form(e1):
    # Words sharing a first symbol give a nondeterministic component, which
    # a one-state budget cannot determinize.
    words = [cfg("p", "", "x y bot"), cfg("p", "", "x x bot")]
    fell_back = from_config_set(e1, words).compact(node_budget=1)
    canonical = from_config_set(e1, list(reversed(words))).compact()
    assert equivalent_sets(fell_back, canonical)
    assert not fell_back.same(canonical) and not canonical.same(fell_back)
    assert fell_back.compact().same(canonical)
