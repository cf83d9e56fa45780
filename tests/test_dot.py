"""Rendering artifacts to Graphviz text.

The exporter promises byte-identical output for equal inputs, so these
tests pin structure (node/edge counts, escaping, determinism) rather
than every incidental byte, plus two adjudicated shape goldens: the
seed set's normalized automaton and the pumping system's trace
abstraction.
"""

import re

import pytest
from conftest import cfg

from upstack.configsets import ConfigAutomaton, from_config_set
from upstack.dot import export_dot
from upstack.errors import MalformedInputError
from upstack.grammar import build_post_grammar, single_origin
from upstack.nfa import EPSILON, Nfa
from upstack.regex import compile_config_regex
from upstack.upperapprox import saturate_upper, trace_overapprox

NODE_LINE = re.compile(r"\[label=(\".*\") shape=(circle|doublecircle)\];$")
EDGE_LINE = re.compile(r"(\S+) -> (\S+) \[label=(\".*\")\];$")


def parse_edges(text):
    out = []
    for line in text.splitlines():
        hit = EDGE_LINE.search(line)
        if hit:
            out.append((hit.group(1), hit.group(2), hit.group(3)))
    return out


def count_nodes(text):
    return sum(1 for line in text.splitlines() if NODE_LINE.search(line))


def chain_nfa(order):
    nfa = Nfa()
    for src, label, dst in order:
        nfa.add_edge(src, label, dst)
    nfa.add_initial("s")
    nfa.add_final("t")
    return nfa


def test_equal_automata_export_identical_bytes():
    edges = [("s", "g", "m"), ("m", EPSILON, "t"), ("s", "h", "t")]
    first = export_dot(chain_nfa(edges))
    second = export_dot(chain_nfa(list(reversed(edges))))
    assert first == second
    assert export_dot(chain_nfa(edges)) == first


def test_empty_automaton_renders_header_only():
    assert export_dot(Nfa()) == "digraph automaton {\n  rankdir=LR;\n}\n"


def test_epsilon_edges_are_labelled_eps():
    nfa = Nfa()
    nfa.add_edge("s", EPSILON, "t")
    nfa.add_initial("s")
    text = export_dot(nfa)
    assert '[label="eps"];' in text


def test_labels_are_quoted_and_escaped():
    nfa = Nfa()
    nfa.add_edge('say "hi"', "a\\b", "t")
    nfa.add_initial('say "hi"')
    text = export_dot(nfa)
    assert '[label="say \\"hi\\""' in text
    assert '[label="a\\\\b"];' in text


def test_finals_get_doublecircle_and_starts_get_points():
    nfa = chain_nfa([("s", "g", "t")])
    text = export_dot(nfa)
    assert text.count("shape=doublecircle") == 1
    assert text.count("shape=point") == 1
    assert text.count("start0 ->") == 1


def test_seed_set_normalizes_to_five_node_chain_with_cycle(e1, c1):
    normalized = ConfigAutomaton(
        e1.alphabet,
        {
            state: component.eps_eliminate().trim()
            for state, component in c1.components.items()
        },
    )
    text = export_dot(normalized)
    assert text.startswith("digraph configuration_set {")
    assert text.count("subgraph cluster") == 1
    assert 'label="p";' in text
    assert count_nodes(text) == 5
    edges = parse_edges(text)
    assert len(edges) == 6
    by_pair = {(src, dst) for src, dst, _ in edges}
    two_cycles = [(u, v) for u, v in by_pair if (v, u) in by_pair and u < v]
    assert len(two_cycles) == 1
    labels = {lab for _, _, lab in edges}
    assert labels == {'"x"', '"y"', '"bot"'}


def test_trace_abstraction_of_pumping_system_is_five_node_ten_edge(e1, c1):
    text = export_dot(trace_overapprox(e1, c1))
    labels = re.findall(r'\[label="(.*)" shape=doublecircle\];$', text, re.M)
    assert labels == [
        "('p', 'a')", "('p', 'b')", "('p', 'x')", "('p', None)", "('p2', 'bot')"
    ]
    assert count_nodes(text) == 5
    assert len(parse_edges(text)) == 10
    assert text.count("[shape=point") == 1
    assert "nstart0 -> n2;" in text
    # Only an unknown top (after a pop) reads bot or y.
    assert 'n3 -> n4 [label="p bot -> p2 bot"];' in text
    assert 'n3 -> n1 [label="p y -> p b"];' in text
    assert 'n0 -> n0 [label="p a -> p a b"];' in text


def test_upper_automaton_exports_like_its_nfa(e1, c1):
    so = single_origin(e1, c1)
    seed = from_config_set(so.spec, [so.origin])
    at = trace_overapprox(so.spec, seed)
    au = saturate_upper(at, so.origin)
    assert export_dot(au) == export_dot(au.nfa)


def test_grammar_export_one_edge_per_production(e1, c1):
    grammar = build_post_grammar(single_origin(e1, c1))
    text = export_dot(grammar)
    assert text.startswith("digraph grammar {")
    assert "node [shape=box];" in text
    edges = parse_edges(text)
    assert len(edges) == len(grammar.productions)
    assert {lab for _, _, lab in edges} == {
        f'"{i}"' for i in range(len(grammar.productions))
    }
    assert export_dot(grammar) == text


def test_grammar_atoms_render_states_bracketed():
    spec_edges = [("q", "g", "q", ())]
    from upstack.core import make_spec

    spec = make_spec(("q",), ("g",), spec_edges)
    seed = ConfigAutomaton(
        ("g",), {"q": compile_config_regex("^ g", alphabet=("g",))}
    )
    text = export_dot(build_post_grammar(single_origin(spec, seed)))
    assert "[q]" in text


def test_unrenderable_artifact_is_rejected():
    with pytest.raises(MalformedInputError):
        export_dot(["not", "an", "artifact"])
    with pytest.raises(MalformedInputError):
        export_dot(cfg("p", "", "bot"))
