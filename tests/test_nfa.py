"""Automaton toolkit: runs, closures, products, compaction."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from compaction_reference import bisimulation_quotient, determinize, layout, minimal_dfa
from compaction_reference import compact as reference_compact
from equivalence_reference import equivalent, product_equivalent
from upstack.errors import ResourceLimitError
from upstack.nfa import DFA_STATE_BUDGET, EPSILON, Nfa, from_words, intersection, union


def _sample() -> Nfa:
    # (a|b)* a over {a, b}, with an epsilon shortcut.
    n = Nfa(initial=(0,), finals=(2,))
    n.add_edge(0, "a", 0)
    n.add_edge(0, "b", 0)
    n.add_edge(0, "a", 2)
    n.add_edge(0, EPSILON, 1)
    n.add_edge(1, "b", 1)
    return n


def test_accepts_and_rejects():
    n = _sample()
    assert n.accepts(("a",))
    assert n.accepts(("b", "b", "a"))
    assert not n.accepts(())
    assert not n.accepts(("a", "b"))


def test_eps_closure_and_step():
    n = _sample()
    assert n.eps_closure((0,)) == frozenset({0, 1})
    assert n.step((0,), "b") == frozenset({0, 1})


def test_shortest_word_prefers_short_and_is_deterministic():
    n = _sample()
    assert n.shortest_word() == ("a",)
    empty = Nfa(initial=(0,), finals=())
    assert empty.shortest_word() is None
    assert empty.is_empty()


def test_words_up_to_enumerates_exactly():
    n = from_words([(), ("a",), ("a", "b")])
    assert n.words_up_to(2) == [(), ("a",), ("a", "b")]
    assert n.words_up_to(1) == [(), ("a",)]


def test_reverse_then_reverse_is_same_language():
    n = _sample()
    rev2 = n.reverse().reverse()
    for w in n.words_up_to(4):
        assert rev2.accepts(w)
    assert sorted(n.words_up_to(4)) == sorted(rev2.words_up_to(4))


def test_trim_drops_useless_nodes():
    n = _sample()
    n.add_edge(5, "a", 6)  # unreachable island
    n.add_edge(0, "b", 7)  # dead end
    t = n.trim()
    assert 5 not in t.nodes() and 7 not in t.nodes()
    assert t.words_up_to(3) == n.words_up_to(3)


def test_eps_eliminate_preserves_language():
    n = _sample()
    e = n.eps_eliminate()
    for _, label, _ in e.edges():
        assert label is not EPSILON
    assert e.words_up_to(4) == n.words_up_to(4)


def test_determinize_minimize_roundtrip():
    n = _sample()
    d = determinize(n.eps_eliminate())
    m = minimal_dfa(d)
    # deterministic: one target per (node, label)
    for dfa in (d, m):
        for src in dfa.nodes():
            for label in ("a", "b"):
                assert len(dfa.targets(src, label)) <= 1
    assert m.words_up_to(4) == n.words_up_to(4)
    assert len(m.nodes()) <= len(d.nodes())


def test_determinize_budget_is_a_resource_limit():
    with pytest.raises(ResourceLimitError):
        determinize(_sample(), node_budget=1)
    # compact falls back to the bisimulation quotient instead of failing.
    assert equivalent(_sample().compact(node_budget=1), _sample())


def test_union_and_intersection_semantics():
    a = from_words([("a",), ("a", "b")])
    b = from_words([("a", "b"), ("b",)])
    u = union([a, b])
    i = intersection(a, b)
    assert sorted(u.words_up_to(2)) == sorted({("a",), ("a", "b"), ("b",)})
    assert i.words_up_to(2) == [("a", "b")]


def test_intersection_handles_epsilon_on_either_side():
    a = Nfa(initial=(0,), finals=(1,))
    a.add_edge(0, EPSILON, 2)
    a.add_edge(2, "a", 1)
    b = Nfa(initial=(0,), finals=(1,))
    b.add_edge(0, "a", 3)
    b.add_edge(3, EPSILON, 1)
    assert intersection(a, b).accepts(("a",))


def test_equivalence_and_canonical_form():
    a = from_words([("a",), ("a", "b")])
    also_a = from_words([("a", "b"), ("a",)])
    assert equivalent(a, also_a)
    assert not a.same(also_a)
    assert a.compact().same(also_a.compact())
    assert not equivalent(a, from_words([("a",)]))
    assert not a.compact().same(from_words([("a",)]).compact())


def test_equivalence_of_dfas_looks_at_finals_and_edges():
    star = Nfa(initial=(0,), finals=(0,))
    star.add_edge(0, "a", 0)
    plus = Nfa(initial=(0,), finals=(1,))
    plus.add_edge(0, "a", 1)
    plus.add_edge(1, "a", 1)
    # The languages differ only in the empty word.
    assert not equivalent(star, plus)
    assert equivalent(plus, plus.compact())
    assert not equivalent(star.compact(), from_words([(), ("a",), ("a", "b")]).compact())
    assert not equivalent(star, Nfa())
    assert equivalent(Nfa(), from_words([]))


@st.composite
def _random_nfa(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n = Nfa()
    size = rng.randint(1, 5)
    for i in range(size):
        n.add_node(i)
    n.add_initial(0)
    for i in range(size):
        if rng.random() < 0.5:
            n.add_final(i)
    labels = ["a", "b", EPSILON]
    for _ in range(rng.randint(0, 8)):
        n.add_edge(rng.randrange(size), rng.choice(labels), rng.randrange(size))
    return n


@settings(deadline=None)
@given(_random_nfa())
def test_compact_preserves_language(n):
    c = n.compact()
    assert sorted(n.words_up_to(4)) == sorted(c.words_up_to(4))


@settings(deadline=None)
@given(_random_nfa())
def test_a_compaction_has_an_initial_node_exactly_when_its_language_is_not_empty(n):
    # `set_compact` drops a component by this, fallen back on the budget or not.
    for budget in (DFA_STATE_BUDGET, 1):
        assert bool(n.compact(budget).initial) is not n.is_empty()


@settings(deadline=None)
@given(_random_nfa(), _random_nfa())
def test_equivalence_agrees_with_bounded_enumeration(a, b):
    same_words = sorted(a.words_up_to(4)) == sorted(b.words_up_to(4))
    if equivalent(a, b):
        assert same_words
    elif same_words:
        # Languages may still differ beyond the bound; check a longer one.
        assert sorted(a.words_up_to(7)) != sorted(b.words_up_to(7))
    # Compaction is canonical: equal languages compact to the same
    # automaton, and the product walk of the reference agrees on raw,
    # compacted and mixed pairs.
    same_language = product_equivalent(a, b)
    assert a.compact().same(b.compact()) == same_language
    for x, y in ((a, b), (a.compact(), b.compact()), (a.compact(), b), (a, b.compact())):
        assert equivalent(x, y) == product_equivalent(x, y) == same_language
    assert equivalent(a.compact(), a) and equivalent(b, b.compact())


@settings(deadline=None)
@given(_random_nfa())
def test_bisimulation_quotient_keeps_the_language_in_fewer_nodes(n):
    quotient = bisimulation_quotient(n)
    assert product_equivalent(quotient, n)
    assert len(quotient.nodes()) <= len(n.eps_eliminate().trim().nodes())
    assert all(label is not EPSILON for _, label, _ in quotient.edges())
    # Classes keep the name of a node of their own.
    assert set(quotient.nodes()) <= set(n.nodes())


def test_bisimulation_quotient_merges_equivalent_branches():
    # Two a-branches into two copies of b*: the copies merge into one
    # class, and the dead epsilon branch is trimmed away.
    n = Nfa(initial=(0,), finals=(1, 2))
    n.add_edge(0, "a", 1)
    n.add_edge(0, "a", 2)
    n.add_edge(1, "b", 1)
    n.add_edge(2, "b", 2)
    n.add_edge(0, EPSILON, 3)
    quotient = bisimulation_quotient(n)
    assert quotient.nodes() == [0, 1]
    assert list(quotient.edges()) == [(0, "a", 1), (1, "b", 1)]
    assert list(quotient.initial) == [0] and list(quotient.finals) == [1]


def _wide_nfa(rng: random.Random) -> Nfa:
    """Up to 8 nodes, added in a shuffled order, one or two initial nodes,
    up to 16 edges over plain, barred and epsilon labels."""
    n = Nfa()
    size = rng.randint(1, 8)
    for i in rng.sample(range(size), size):
        n.add_node(i)
    for _ in range(rng.randint(1, 2)):
        n.add_initial(rng.randrange(size))
    for i in range(size):
        if rng.random() < 0.4:
            n.add_final(i)
    labels = ["a", "b", ("bar", "a"), EPSILON]
    for _ in range(rng.randint(0, 16)):
        n.add_edge(rng.randrange(size), rng.choice(labels), rng.randrange(size))
    return n


_BUDGETS = (1, 2, 5, DFA_STATE_BUDGET)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compaction_is_the_reference_pipeline_in_one_pass(seed):
    # The same nodes, rows in the same order with their labels and targets
    # in the same order, and the same initial and final nodes in the same
    # order, at budgets that make the subset construction fall back.
    n = _wide_nfa(random.Random(seed))
    for budget in _BUDGETS:
        assert layout(n.compact(budget)) == layout(reference_compact(n, budget))


def test_compaction_matches_the_reference_through_both_outcomes():
    rng = random.Random(1515)
    fell_back = 0
    for _ in range(400):
        n = _wide_nfa(rng)
        for budget in _BUDGETS:
            got = n.compact(budget)
            assert layout(got) == layout(reference_compact(n, budget))
            fell_back += not got.same(n.compact())
    assert fell_back >= 100


def _renamed_and_shuffled(n: Nfa, seed: int) -> Nfa:
    """A copy with fresh node names, built in a shuffled order."""
    rng = random.Random(seed)
    names = {m: ("renamed", rng.random()) for m in n.nodes()}
    nodes = n.nodes()
    edges = list(n.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = Nfa()
    for m in nodes:
        out.add_node(names[m])
    for src, label, dst in edges:
        out.add_edge(names[src], label, names[dst])
    for m in rng.sample(list(n.initial), len(n.initial)):
        out.add_initial(names[m])
    for m in rng.sample(list(n.finals), len(n.finals)):
        out.add_final(names[m])
    return out


@settings(deadline=None)
@given(_random_nfa(), st.integers(0, 2**32 - 1))
def test_compaction_is_canonical_and_idempotent(n, seed):
    copy = _renamed_and_shuffled(n, seed)
    assert n.compact().same(copy.compact())
    assert list(n.compact().edges()) == list(copy.compact().edges())
    assert n.compact().same(n.compact().compact())
    assert n.compact().same(minimal_dfa(n))
    assert equivalent(n, copy)


def test_same_compares_structure_not_insertion_order():
    a = Nfa(initial=(0,), finals=(1, 2))
    a.add_edge(0, "a", 1)
    a.add_edge(0, "b", 2)
    b = Nfa(initial=(0,), finals=(2, 1))
    b.add_edge(0, "b", 2)
    b.add_edge(0, "a", 1)
    assert a.same(b) and b.same(a)
    b.add_edge(2, "a", 2)
    assert not a.same(b)
    assert not a.same(Nfa(initial=(0,), finals=(1,)))
    assert Nfa().same(minimal_dfa(from_words([])))
    # Minimal DFAs with the same edges, told apart by their finals alone.
    one = minimal_dfa(from_words([("a",)]))
    up_to_one = minimal_dfa(from_words([(), ("a",)]))
    assert list(one.edges()) == list(up_to_one.edges())
    assert not one.same(up_to_one)
    assert not equivalent(one, up_to_one)


def test_minimal_dfa_determinizes_epsilon_closed_subsets():
    # After `b`, the targets {1} and {1, 2} close to the same subset, so
    # three subsets suffice; removing epsilons first keeps them apart.
    n = Nfa(initial=(0,), finals=(3,))
    n.add_edge(0, "a", 1)
    n.add_edge(0, "b", 1)
    n.add_edge(0, "b", 2)
    n.add_edge(1, EPSILON, 2)
    n.add_edge(2, "c", 3)
    assert len(determinize(n).nodes()) == 3
    assert len(determinize(n.eps_eliminate().trim()).nodes()) == 4
    assert n.compact(node_budget=3).same(minimal_dfa(n))
    with pytest.raises(ResourceLimitError):
        minimal_dfa(n, node_budget=2)


@settings(deadline=None)
@given(_random_nfa(), _random_nfa())
def test_minimal_dfas_are_same_exactly_when_the_languages_are_equal(a, b):
    assert minimal_dfa(a).same(minimal_dfa(b)) == product_equivalent(a, b)
    # The minimal DFA comes out of an NFA quotient: check that it is one.
    for n in (a, b):
        dfa = minimal_dfa(n)
        for src in dfa.nodes():
            labels = [label for label, _ in dfa.out_edges(src)]
            assert EPSILON not in labels
            assert len(labels) == len(set(labels))
        assert len(dfa.nodes()) <= len(determinize(n.trim()).nodes())


def _trim_by_reversal(n: Nfa) -> Nfa:
    """The definition of trim: keep nodes reachable from an initial node
    and, in the reversed automaton, from a final one."""
    keep = n.reachable(n.initial) & n.reverse().reachable(n.finals)
    out = Nfa((m for m in n.initial if m in keep), (m for m in n.finals if m in keep))
    for src, label, dst in n.edges():
        if src in keep and dst in keep:
            out.add_edge(src, label, dst)
    return out


@settings(deadline=None)
@given(_random_nfa())
def test_trim_matches_the_reversal_definition(n):
    expected = _trim_by_reversal(n)
    got = n.trim()
    assert list(got.initial) == list(expected.initial)
    assert list(got.finals) == list(expected.finals)
    assert got.nodes() == expected.nodes()
    assert list(got.edges()) == list(expected.edges())


def _run_by_definition(n: Nfa, word, start) -> frozenset:
    """Close the start set, then follow each label and close again."""
    current = n.eps_closure(start)
    for sym in word:
        current = n.eps_closure(
            {dst for src in current for label, dst in n.out_edges(src) if label == sym}
        )
    return current


@settings(deadline=None)
@given(_random_nfa(), st.lists(st.sampled_from("ab"), max_size=4), st.booleans())
def test_runs_labels_and_enumeration_match_their_definitions(n, word, from_last):
    start = [n.nodes()[-1]] if from_last else None
    begin = n.initial if start is None else start
    assert n.run(word, start) == _run_by_definition(n, word, begin)
    labels = [label for _, label, _ in n.edges() if label is not EPSILON]
    assert n.labels() == list(dict.fromkeys(labels))
    expected = [
        w
        for length in range(4)
        for w in itertools.product(sorted(set(labels)), repeat=length)
        if _run_by_definition(n, w, begin) & n.finals.keys()
    ]
    assert n.words_up_to(3, start) == expected


def test_relabel_is_stable_under_rebuild():
    first = _sample().compact()
    second = _sample().compact()
    assert list(first.edges()) == list(second.edges())
    assert list(first.initial) == list(second.initial)


def test_copy_keeps_isolated_nodes():
    n = _sample()
    n.add_node("lone")
    assert n.copy().same(n)


def test_embed_renames_relabels_and_keeps_epsilon():
    n = _sample()
    n.add_node("lone")
    seen = []

    def relabel(label):
        seen.append(label)
        return None if label == "b" else label.upper()

    out = Nfa(initial=("kept",))
    assert out.embed(n, lambda x: ("t", x), relabel) is out
    assert out.nodes() == ["kept", ("t", 0), ("t", 2), ("t", 1), ("t", "lone")]
    # The None label dropped both b edges; epsilon bypassed `relabel`.
    assert list(out.edges()) == [
        (("t", 0), "A", ("t", 0)),
        (("t", 0), "A", ("t", 2)),
        (("t", 0), EPSILON, ("t", 1)),
    ]
    assert EPSILON not in seen and set(seen) == {"a", "b"}
    # Marks are the caller's: only the one set before the embed is there.
    assert list(out.initial) == ["kept"] and not out.finals
    plain = Nfa().embed(n)
    assert plain.nodes() == n.nodes() and list(plain.edges()) == list(n.edges())


def _chain(length: int) -> Nfa:
    n = Nfa()
    for i in range(length):
        n.add_edge(i, "a", i + 1)
    return n


def test_saturate_reaches_the_least_fixpoint():
    n = _chain(4)

    def transitive():
        for src, _, mid in list(n.edges()):
            for dst in n.targets(mid, "a"):
                yield src, "a", dst

    n.saturate(transitive)
    assert set(n.edges()) == {(i, "a", j) for i in range(5) for j in range(i + 1, 5)}


def test_saturate_shows_each_edge_to_the_rest_of_its_pass():
    n = Nfa()
    n.add_node(0)
    passes = []

    def rules():
        passes.append(len(list(n.edges())))
        # The second rule fires on what the first added in the same pass.
        yield 0, "a", 1
        if n.has_edge(0, "a", 1):
            yield 1, "b", 2
        if n.has_edge(1, "b", 2):
            yield 2, "c", 3

    n.saturate(rules)
    assert list(n.edges()) == [(0, "a", 1), (1, "b", 2), (2, "c", 3)]
    # One pass adds all three; the second adds nothing and ends the loop.
    assert passes == [0, 3]


def test_saturate_stops_after_a_pass_that_adds_nothing():
    n = _chain(2)
    passes = []

    def existing():
        passes.append(None)
        yield from list(n.edges())

    n.saturate(existing)
    assert len(passes) == 1 and list(n.edges()) == list(_chain(2).edges())
