import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import ConfigAutomaton, bar, config_word
from upstack.errors import ParseError
from upstack.nfa import Nfa, from_words
from upstack.regex import (
    compile_config_regex,
    parse_config_regex,
    parse_zone_regex,
    print_config_regex,
    tokenize,
)

from conftest import cfg
from equivalence_reference import equivalent


def test_tokenizer_positions():
    toks = tokenize("a (b\n c)* ^", line=3, col=1)
    kinds = [(t.kind, t.value, t.line, t.col) for t in toks]
    assert kinds == [
        ("sym", "a", 3, 1),
        ("lparen", "(", 3, 3),
        ("sym", "b", 3, 4),
        ("sym", "c", 4, 2),
        ("rparen", ")", 4, 3),
        ("star", "*", 4, 4),
        ("caret", "^", 4, 6),
        ("end", "", 4, 7),
    ]


def test_parse_shapes():
    assert parse_config_regex("^") == ("config", ((("empty",), ("empty",)),))
    assert parse_config_regex("_ ^ _") == ("config", ((("empty",), ("empty",)),))
    assert parse_config_regex("a* ^ c") == (
        "config",
        ((("star", ("sym", "a")), ("sym", "c")),),
    )
    assert parse_config_regex("^ x (y x)* bot") == (
        "config",
        (
            (
                ("empty",),
                (
                    "concat",
                    (
                        ("sym", "x"),
                        ("star", ("concat", (("sym", "y"), ("sym", "x")))),
                        ("sym", "bot"),
                    ),
                ),
            ),
        ),
    )
    assert parse_config_regex("a ^ b | ^ c") == (
        "config",
        ((("sym", "a"), ("sym", "b")), (("empty",), ("sym", "c"))),
    )
    assert parse_config_regex("(a | b) ^ _") == (
        "config",
        ((("alt", (("sym", "a"), ("sym", "b"))), ("empty",)),),
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_config_regex("a b")
    assert err.value.line == 1 and err.value.column == 4
    with pytest.raises(ParseError, match="second boundary"):
        parse_config_regex("a ^ b ^ c")
    with pytest.raises(ParseError, match="inside a group"):
        parse_config_regex("( a ^ b ) ^ c")
    with pytest.raises(ParseError, match="unbalanced"):
        parse_config_regex("( a b")
    with pytest.raises(ParseError, match="missing boundary"):
        parse_config_regex("a ^ b | c")
    with pytest.raises(ParseError) as err:
        parse_config_regex("a ^ )")
    assert err.value.column == 5
    with pytest.raises(ParseError, match="undeclared symbol 'z'"):
        parse_config_regex("z ^", alphabet=("a", "b"))


def test_a_zone_parses_on_its_own_as_it_does_in_a_group():
    for text in ("a | b a*", "_", "a (b a)* b", "(a | b)*"):
        zone = parse_zone_regex(text, ("a", "b"))
        assert parse_config_regex(f"^ ( {text} )") == ("config", ((("empty",), zone),))


def test_empty_regex_accepts_empty_config():
    nfa = compile_config_regex("^")
    assert nfa.accepts(())
    assert not nfa.accepts(("x",))


def test_compile_seed_slice(e1):
    nfa = compile_config_regex("^ x (y x)* bot", alphabet=e1.alphabet)
    for n in range(4):
        word = config_word(cfg("p", "", " ".join(["x"] + ["y x"] * n) + " bot"))
        assert nfa.accepts(word)
    assert not nfa.accepts(("x", "y", "bot"))
    assert not nfa.accepts((bar("x"), "bot"))
    ConfigAutomaton(e1.alphabet, {"p": nfa}).validate()


def test_compile_matches_hand_built():
    nfa = compile_config_regex("a* ^ c")
    hand = Nfa()
    hand.add_initial(0)
    hand.add_edge(0, bar("a"), 0)
    hand.add_edge(0, "c", 1)
    hand.add_final(1)
    assert equivalent(nfa, hand)


def test_compile_alternation_and_star():
    nfa = compile_config_regex("(a | b b)* ^ _")
    expected = {
        (),
        (bar("a"),),
        (bar("b"), bar("b")),
        (bar("a"), bar("a")),
        (bar("a"), bar("a"), bar("a")),
        (bar("a"), bar("b"), bar("b")),
        (bar("b"), bar("b"), bar("a")),
    }
    got = {w for w in nfa.words_up_to(3)}
    assert got == expected


def test_compile_multi_branch():
    nfa = compile_config_regex("a ^ b | ^ c c")
    assert equivalent(nfa, from_words([(bar("a"), "b"), ("c", "c")]))


def test_print_examples():
    assert print_config_regex(parse_config_regex("^ x (y x)* bot")) == "_ ^ x (y x)* bot"
    assert print_config_regex(parse_config_regex("a* ^ c")) == "a* ^ c"
    assert (
        print_config_regex(parse_config_regex("(a | b) ^ _ | ^ (a b)*"))
        == "(a | b) ^ _ | _ ^ (a b)*"
    )


_part = st.deferred(
    lambda: st.one_of(
        st.just(("empty",)),
        st.sampled_from([("sym", "a"), ("sym", "b"), ("sym", "c")]),
        st.tuples(st.just("star"), _part),
        st.tuples(st.just("concat"), st.lists(_part, min_size=2, max_size=3).map(tuple)),
        st.tuples(st.just("alt"), st.lists(_part, min_size=2, max_size=3).map(tuple)),
    )
)
_config = st.tuples(
    st.just("config"),
    st.lists(st.tuples(_part, _part), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(_config)
def test_print_parse_roundtrip(ast):
    assert parse_config_regex(print_config_regex(ast)) == ast


@settings(max_examples=60, deadline=None)
@given(_config)
def test_compiled_language_survives_roundtrip(ast):
    direct = compile_config_regex(ast)
    reparsed = compile_config_regex(print_config_regex(ast))
    assert equivalent(direct, reparsed)
