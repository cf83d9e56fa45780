import random

import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import ConfigAutomaton, bar, config_word, is_barred
from upstack.errors import ParseError, UpstackError
from upstack.extras import parse_config_regex, print_config_regex
from upstack.nfa import EPSILON, Nfa, from_words
from upstack.overflow import parse_zone_regex
from upstack.regex import MAX_NESTING, _place, _words, compile_config_regex

from conftest import cfg
from equivalence_reference import equivalent, product_equivalent
from parser_reference import reference_parse_config_regex, reference_parse_zone_regex
from thompson_reference import thompson_config_regex


def test_place_finds_each_word_across_lines():
    text = "a (b\n c)* ^"
    words = _words(text)
    assert [(word, *_place(text, words, k, line=3)) for k, word in enumerate(words)] == [
        ("a", 3, 1),
        ("(", 3, 3),
        ("b", 3, 4),
        ("c", 4, 2),
        (")", 4, 3),
        ("*", 4, 4),
        ("^", 4, 6),
        ("", 4, 7),
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


def test_groups_nest_at_most_the_bound():
    # Each group holds an alternation of a sequence that ends in the next
    # group, starred: the most calls the position compiler makes per level.
    deep = "a"
    for _ in range(MAX_NESTING):
        deep = f"( a | b {deep}* )"
    nfa = compile_config_regex(f"^ {deep}", ("a", "b"))
    assert len(nfa.nodes()) == 2 * MAX_NESTING + 2
    assert parse_zone_regex(deep, ("a", "b"))[0] == "alt"
    # One level more is an error at the first '(' past the bound, here the
    # last '(' of the text.
    for parse, text in (
        (parse_config_regex, f"a ^ ( {deep} )"),
        (lambda text: parse_zone_regex(text, ("a", "b")), f"( {deep} )"),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, text.rindex("(") + 1)
        assert str(err.value).endswith(f"groups nested deeper than {MAX_NESTING}")


def test_stacked_stars_compile_as_one():
    one, many = (compile_config_regex(f"a{stars} ^ b", ("a", "b")) for stars in ("*", "*" * 2000))
    assert (list(many.initial), list(many.finals), list(many.edges())) == (
        list(one.initial), list(one.finals), list(one.edges())
    )
    # The syntax tree keeps every star.
    tree = parse_config_regex("a" + "*" * 2000 + " ^")
    depth = 0
    node = tree[1][0][0]
    while node[0] == "star":
        node, depth = node[1], depth + 1
    assert (node, depth) == (("sym", "a"), 2000)


def test_a_zone_parses_on_its_own_as_it_does_in_a_group():
    for text in ("a | b a*", "_", "a (b a)* b", "(a | b)*"):
        zone = parse_zone_regex(text, ("a", "b"))
        assert parse_config_regex(f"^ ( {text} )") == ("config", ((("empty",), zone),))


# Differential tests of the expression parsers against the token-object
# parser kept in parser_reference.py: the same tree, or the same error with
# the same message, line and column. Texts are drawn character by character
# (mostly malformed) and word by word (mostly well formed), with line
# breaks, tabs and Unicode whitespace between the words.
_EXPRESSION_CHARS = st.text(alphabet="abz_ ()|*^\n\t\r\u3000\x85", max_size=30)
_EXPRESSION_WORDS = st.lists(
    st.tuples(
        st.sampled_from([" ", "", "  ", "\n", "\t", "\n  ", "\u3000"]),
        st.sampled_from(["a", "b", "z", "ab", "_", "__", "(", ")", "|", "*", "^", "a*", "(a|b)*"]),
    ),
    max_size=14,
).map(lambda words: "".join(space + word for space, word in words))


def _parsed(parse, *args):
    try:
        return parse(*args)
    except UpstackError as err:
        return type(err), str(err), err.line, err.column


@settings(max_examples=400, deadline=None)
@given(
    text=_EXPRESSION_CHARS | _EXPRESSION_WORDS,
    line=st.integers(1, 5),
    col=st.integers(1, 9),
    alphabet=st.sampled_from([None, {"a", "b"}, {"a", "b", "z", "ab", "__"}]),
)
def test_expression_parsers_match_the_reference(text, line, col, alphabet):
    assert _parsed(parse_config_regex, text, line, col, alphabet) == _parsed(
        reference_parse_config_regex, text, line, col, alphabet
    )
    zone_alphabet = alphabet or {"a", "b"}
    assert _parsed(parse_zone_regex, text, zone_alphabet) == _parsed(
        reference_parse_zone_regex, text, zone_alphabet
    )


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


# Zone syntax trees of at most eight leaves: an unbounded recursion spent
# most of these tests' time drawing examples, not checking them.
_part = st.recursive(
    st.one_of(
        st.just(("empty",)), st.sampled_from([("sym", "a"), ("sym", "b"), ("sym", "c")])
    ),
    lambda part: st.one_of(
        st.tuples(st.just("star"), part),
        st.tuples(st.just("concat"), st.lists(part, min_size=2, max_size=3).map(tuple)),
        st.tuples(st.just("alt"), st.lists(part, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=8,
)
_config = st.tuples(
    st.just("config"),
    st.lists(st.tuples(_part, _part), min_size=1, max_size=3).map(tuple),
)


def _one_star(ast: tuple) -> tuple:
    """ast with each stack of stars folded into one, as it prints."""
    kind = ast[0]
    if kind == "config":
        return (kind, tuple((_one_star(u), _one_star(l)) for u, l in ast[1]))
    if kind == "star":
        while ast[1][0] == "star":
            ast = ast[1]
        return (kind, _one_star(ast[1]))
    if kind in ("concat", "alt"):
        return (kind, tuple(map(_one_star, ast[1])))
    return ast


@settings(max_examples=150, deadline=None)
@given(_config)
def test_print_parse_roundtrip(ast):
    assert parse_config_regex(print_config_regex(ast)) == _one_star(ast)


def test_the_deepest_trees_print_and_reparse():
    # Trees are compared by their printed text: `==` on tuples this deep
    # recurses once per level too.
    deep = spaced = "a"
    for _ in range(MAX_NESTING):
        deep, spaced = f"(a | b {deep}*)", f"( a | b {spaced} * )"
    for text, printed in (
        ("a" + "*" * 2000 + " ^", "a* ^ _"),
        (f"^ {spaced}", f"_ ^ {deep}"),
    ):
        assert print_config_regex(parse_config_regex(text)) == printed
        assert print_config_regex(parse_config_regex(printed)) == printed


@settings(max_examples=60, deadline=None)
@given(_config)
def test_compiled_language_survives_roundtrip(ast):
    direct = compile_config_regex(ast)
    reparsed = compile_config_regex(print_config_regex(ast))
    assert equivalent(direct, reparsed)


# -- the position automaton against Thompson's construction -----------------

_ABC = ("a", "b", "c")


def _occurrences(ast: tuple) -> int:
    kind = ast[0]
    if kind == "sym":
        return 1
    if kind == "empty":
        return 0
    if kind == "star":
        return _occurrences(ast[1])
    return sum(_occurrences(part) for part in ast[1])


def _assert_pinned_to_thompson(ast: tuple) -> None:
    compiled = compile_config_regex(ast, _ABC)
    assert product_equivalent(compiled, thompson_config_regex(ast, _ABC))
    assert all(label is not EPSILON for _, label, _ in compiled.edges())
    symbols = sum(_occurrences(upper) + _occurrences(lower) for upper, lower in ast[1])
    assert len(compiled.nodes()) <= symbols + 1
    assert compiled.trim().same(compiled)
    # So `export-dot --set` renders a compiled set as it is.
    assert compiled.eps_eliminate().same(compiled)
    # Sets from a model are marked valid without a scan: scan this one.
    ConfigAutomaton(_ABC, {"p": compiled})._scan()


@settings(max_examples=150, deadline=None)
@given(_config)
def test_the_position_automaton_keeps_thompsons_language(ast):
    _assert_pinned_to_thompson(ast)


def _random_part(rng: random.Random, depth: int) -> tuple:
    kind = rng.choice(("empty", "sym", "sym") + (("star", "concat", "alt") if depth else ()))
    if kind == "empty":
        return ("empty",)
    if kind == "sym":
        return ("sym", rng.choice(_ABC))
    if kind == "star":
        return ("star", _random_part(rng, depth - 1))
    return (kind, tuple(_random_part(rng, depth - 1) for _ in range(rng.randint(2, 3))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_the_position_automaton_keeps_the_language_of_many_branches(seed):
    rng = random.Random(seed)
    branches = tuple(
        (_random_part(rng, 3), _random_part(rng, 3)) for _ in range(rng.randint(4, 8))
    )
    _assert_pinned_to_thompson(("config", branches))


def test_a_starred_alternation_takes_one_edge_per_symbol_round_its_loop():
    symbols = [f"s{i}" for i in range(1, 9)]
    any_word = f"({' | '.join(symbols)})*"
    for text in (f"{any_word} ^ _", f"_ ^ {any_word}"):
        # The eight symbols share one node: eight edges round it, eight
        # from the start into it.
        nfa = compile_config_regex(text, symbols)
        assert len(nfa.nodes()) == 2
        assert sum(src == dst for src, _, dst in nfa.edges()) == 8
        assert nfa.edge_count() == 2 * 8
    # Per zone: eight edges into its loop from each node before it (the
    # start, and for the lower zone the upper loop too) and eight round it.
    both = compile_config_regex(f"{any_word} ^ {any_word}", symbols)
    barred = [label for _, label, _ in both.edges() if is_barred(label)]
    assert len(barred) == 2 * 8 and both.edge_count() - len(barred) == 3 * 8
