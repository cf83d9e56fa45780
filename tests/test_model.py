"""Model-file parsing, printing, and the literal configuration syntax."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from upstack.configsets import bar
from upstack.core import Rule, UpdsSpec, make_spec
from upstack.errors import MalformedInputError, ParseError, UpstackError
from upstack.fixtures import fixture_names, fixture_text
from upstack.literal import parse_config_literal
from upstack.model import ModelFile, parse_model, print_config_literal, print_model

from upstack.nfa import Nfa
from upstack.overflow import parse_zone_regex
from upstack.regex import _place, _words, compile_config_regex

from conftest import cfg, random_spec
from parser_reference import reference_parse_model, reference_spec_checks, reference_tokenize

E1_TEXT = """\
# pump popped symbols back through the boundary
states p p2
alphabet a b x y bot
rule p x -> p a
rule p y -> p b
rule p a -> p a b
rule p a -> p
rule p b -> p
rule p bot -> p2 bot
set C1 p ^ x (y x)* bot
"""


def test_parse_e1_shape():
    model = parse_model(E1_TEXT)
    assert model.spec.states == ("p", "p2")
    assert model.spec.alphabet == ("a", "b", "x", "y", "bot")
    assert len(model.spec.rules) == 6
    kinds = [rule.kind.name for rule in model.spec.rules]
    assert kinds == ["SWITCH", "SWITCH", "PUSH", "POP", "POP", "SWITCH"]
    assert model.set_names() == ["C1"]


def _leaves(tree):
    """The names of a syntax tree's `("sym", name)` leaves."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "sym":
            yield node[1]
        else:
            stack.extend(part for part in node if isinstance(part, tuple))


def _random_model_text(rng):
    spec = random_spec(rng, 4, 4, 12)
    lines = [f"states {' '.join(spec.states)}", f"alphabet {' '.join(spec.alphabet)}"]
    for rule in spec.rules:
        lines.append(f"rule {rule.from_state} {rule.read_symbol} -> {rule.to_state} "
                     + " ".join(rule.written))
    for state in spec.states:
        upper, lower = rng.choice(spec.alphabet), rng.choice(spec.alphabet)
        lines.append(f"set S {state} ({upper} | {lower})* ^ {lower} ({upper} {lower})*")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_each_name_is_stored_once(seed):
    # Names of two or more characters, as the random models have, are a
    # new string for each word split from a line; the parser keeps the
    # declared one instead.
    text = E1_TEXT if seed is None else _random_model_text(random.Random(seed))
    model = parse_model(text)
    spec = model.spec
    states = {name: name for name in spec.states}
    symbols = {name: name for name in spec.alphabet}
    for rule in spec.rules:
        assert rule.from_state is states[rule.from_state]
        assert rule.to_state is states[rule.to_state]
        for symbol in (rule.read_symbol, *rule.written):
            assert symbol is symbols[symbol]
    assert model.sets
    for slices in model.sets.values():
        for state, tree in slices.items():
            assert state is states[state]
            for symbol in _leaves(tree):
                assert symbol is symbols[symbol]
    # A literal and a zone expression hold the system's strings too.
    state, *names = (*spec.states[-1:], *spec.alphabet)
    literal = parse_config_literal(spec, f"{state}: {' '.join(names)} ^ {names[0]}")
    assert literal.state is states[state]
    for symbol in (*literal.upper, *literal.lower):
        assert symbol is symbols[symbol]
    for symbol in _leaves(parse_zone_regex(f"({' | '.join(names)})*", spec.alphabet)):
        assert symbol is symbols[symbol]


class _ReferencePositions:
    """Glushkov's position construction as a method call per syntax-tree
    node: each scan returns (nullable, first positions, last positions)
    and records the follow pairs inside its node, concatenations scan
    all their parts before linking them, and symbols alternated side by
    side share one position."""

    def __init__(self, symbols):
        self.symbols = symbols
        self.labels = [[]]
        self.follow = [[]]

    def label(self, ast, barred):
        if self.symbols is not None and ast[1] not in self.symbols:
            raise MalformedInputError(f"undeclared symbol {ast[1]!r}")
        return bar(ast[1]) if barred else ast[1]

    def scan(self, ast, barred):
        kind = ast[0]
        if kind == "sym":
            pos = len(self.labels)
            self.labels.append([self.label(ast, barred)])
            self.follow.append([])
            return False, [pos], [pos]
        if kind == "empty":
            return True, [], []
        if kind == "star":
            while ast[1][0] == "star":
                ast = ast[1]
            _, first, last = self.scan(ast[1], barred)
            self.link(last, first)
            return True, first, last
        if kind == "concat":
            return self.sequence([self.scan(part, barred) for part in ast[1]])
        if kind == "alt":
            parts = []
            shared = None
            for part in ast[1]:
                if part[0] == "sym" and shared is not None:
                    self.labels[shared].append(self.label(part, barred))
                    continue
                parts.append(self.scan(part, barred))
                if part[0] == "sym":
                    shared = parts[-1][1][0]
            return self.choice(parts)
        raise MalformedInputError(f"not a regex node: {ast!r}")

    def sequence(self, parts):
        nullable, first, last = True, [], []
        for part_nullable, part_first, part_last in parts:
            self.link(last, part_first)
            if nullable:
                first = first + part_first
            last = last + part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last

    @staticmethod
    def choice(parts):
        return (
            any(nullable for nullable, _, _ in parts),
            [p for _, first, _ in parts for p in first],
            [p for _, _, last in parts for p in last],
        )

    def link(self, sources, targets):
        for p in sources:
            self.follow[p] += targets


def _reference_compile(ast, alphabet):
    """The position automaton of a configuration expression, built node by
    node and edge by edge through `add_node`, `add_initial`, `add_final`
    and `add_edge`."""
    positions = _ReferencePositions(set(alphabet))
    nullable, first, last = positions.choice([
        positions.sequence([positions.scan(upper, True), positions.scan(lower, False)])
        for upper, lower in ast[1]
    ])
    positions.link([0], first)
    nfa = Nfa()
    for p in range(len(positions.follow)):
        nfa.add_node(p)
    nfa.add_initial(0)
    for p in [0] + last if nullable else last:
        nfa.add_final(p)
    for p, after in enumerate(positions.follow):
        for q in after:
            for label in positions.labels[q]:
                nfa.add_edge(p, label, q)
    return nfa


def _rows(nfa):
    """An automaton's rows, labels and targets as nested lists, so that
    comparing two compares their order too."""
    return (
        [(p, [(label, list(targets)) for label, targets in row.items()])
         for p, row in nfa._edges.items()],
        list(nfa.initial),
        list(nfa.finals),
    )


def _random_zone(rng, symbols, depth=2):
    """The text of a random zone expression: a sequence of symbols, empty
    words and groups of alternatives, each item starred or not."""
    items = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth and roll < 0.3:
            count = rng.randint(2, 3)
            alternatives = [_random_zone(rng, symbols, depth - 1) for _ in range(count)]
            item = f"( {' | '.join(alternatives)} )"
        else:
            item = "_" if roll < 0.4 else rng.choice(symbols)
        items.append(item + " *" * rng.choice((0, 0, 1, 2)))
    return " ".join(items)


@pytest.mark.parametrize("source", ["e1.upds", "relocate.upds", *range(1, 21)])
def test_the_parser_builds_each_rule_and_set_once(source):
    # The parser builds each rule once, as a `Rule`, and hands the rules
    # to `UpdsSpec` directly; `make_spec` of the same tuples must give the
    # same system, tables in the same order included. A random model also
    # gets sets whose branches may accept the empty word.
    if isinstance(source, str):
        text = fixture_text(source)
    else:
        rng = random.Random(source)
        text = _random_model_text(rng)
        spec = parse_model(text).spec
        for state in spec.states:
            branches = [f"{_random_zone(rng, spec.alphabet)} ^ {_random_zone(rng, spec.alphabet)}"
                        for _ in range(rng.randint(1, 3))]
            text += f"set R {state} {' | '.join(branches)}\n"
    model = parse_model(text)
    spec = model.spec
    assert all(type(rule) is Rule for rule in spec.rules)
    reference = make_spec(
        list(spec.states), list(spec.alphabet), [(f, r, t, list(w)) for f, r, t, w in spec.rules]
    )
    assert vars(spec).keys() == vars(reference).keys()
    for field, value in vars(reference).items():
        assert getattr(spec, field) == value, field
    for table in ("moves", "moves_into"):
        assert list(getattr(spec, table).items()) == list(getattr(reference, table).items())
    # Each set's rows, initial and final nodes, in order, as the automaton
    # built edge by edge gives them.
    for slices in model.sets.values():
        for tree in slices.values():
            compiled = compile_config_regex(tree, alphabet=spec.alphabet)
            assert _rows(compiled) == _rows(_reference_compile(tree, spec.alphabet))


def test_config_set_compiles():
    model = parse_model(E1_TEXT)
    c1 = model.config_set("C1")
    assert c1.accepts(cfg("p", "", "x bot"))
    assert c1.accepts(cfg("p", "", "x y x bot"))
    assert not c1.accepts(cfg("p", "", "x y bot"))
    assert not c1.accepts(cfg("p2", "", "x bot"))
    with pytest.raises(MalformedInputError):
        model.config_set("C9")


def test_config_set_rejects_a_hand_built_syntax_tree_outside_the_alphabet():
    # config_set hands out sets as valid without a scan, so compilation
    # itself must refuse symbols the parser never saw.
    model = parse_model(E1_TEXT)
    bad = ModelFile(model.spec, {"S": {"p": ("config", ((("sym", "z"), ("sym", "bot")),))}})
    with pytest.raises(MalformedInputError, match="undeclared symbol 'z'"):
        bad.config_set("S")


def test_empty_rule_section_is_valid():
    model = parse_model("states q\nalphabet g\n")
    assert model.spec.rules == ()
    assert model.sets == {}


def test_round_trip_is_identity_on_fixtures():
    for name in fixture_names():
        model = parse_model(fixture_text(name))
        assert parse_model(print_model(model)) == model


def test_round_trip_normalizes_spacing():
    text = "states  q\nalphabet  g   h\nrule q g ->  q  h\nset S q ( g | h ) * ^ g\n"
    model = parse_model(text)
    printed = print_model(model)
    assert "rule q g -> q h" in printed
    assert "set S q (g | h)* ^ g" in printed
    assert parse_model(printed) == model


# (text, line, column, message fragment) of each diagnostic.
_DIAGNOSTICS = [
    ("states q\nalphabet g\nrule q z -> q g\n", 3, 8, "undeclared symbol 'z'"),
    ("states q\nalphabet g\nrule r g -> q\n", 3, 6, "undeclared state 'r'"),
    ("states q\nalphabet g\nrule q g -> q g g g\n", 3, 19, "at most two"),
    ("states q\nalphabet g\nrule q g q\n", 3, 1, "expected 'rule"),
    ("states q\nalphabet g\nset S r ^ g\n", 3, 7, "undeclared state 'r'"),
    ("states q\nalphabet g\nset S q\n", 3, 8, "missing expression"),
    ("states q q\nalphabet g\n", 1, 10, "duplicate identifier 'q'"),
    ("states q\nalphabet g q\n", 2, 12, "duplicate identifier 'q'"),
    ("states q\nalphabet g\nwobble q\n", 3, 1, "unknown directive"),
    ("alphabet g\n", 1, 1, "missing states"),
    ("states ^\n", 1, 8, "reserved punctuation"),
    ("states a*b\n", 1, 8, "contains reserved"),
    ("states @q\nalphabet g\n", 1, 8, "'@' prefix is reserved"),
    ("states q\nalphabet g\nset S q ^ g )\n", 3, 13, ""),
    # A later word of a tab-separated line.
    ("states q\nalphabet g\nrule\tq g\t->\t q\t\tz\n", 3, 17, "undeclared symbol 'z'"),
    # A duplicate rule points at its directive, however it is spaced.
    ("states q\nalphabet g\nrule q g -> q\n  rule  q g  ->  q\n", 4, 3, "duplicate rule 'q g -> q'"),
    # Expression errors after runs of spaces.
    ("states q\nalphabet g\nset S q   ^    g    )\n", 3, 21, "unexpected ')'"),
    ("states q\nalphabet g\nset S q   ^    g  (  g\n", 3, 23, "unbalanced parenthesis"),
]
_COLUMNS = {text: column for text, _, column, _ in _DIAGNOSTICS}


@pytest.mark.parametrize(
    "text, line, fragment", [(text, line, fragment) for text, line, _, fragment in _DIAGNOSTICS]
)
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (line, _COLUMNS[text])
    assert fragment in str(err.value)


def test_duplicate_rule_rejected():
    text = "states q\nalphabet g\nrule q g -> q\nrule q g -> q\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 4
    assert "duplicate rule 'q g -> q'" in str(err.value)
    # Same trigger with a different action is a different rule.
    parse_model("states q\nalphabet g\nrule q g -> q\nrule q g -> q g\n")


def test_set_expression_errors_point_into_the_line():
    text = "states q\nalphabet g\nset S q ^ g (\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert err.value.column >= 9


def test_comments_and_blank_lines_are_skipped():
    model = parse_model("\n# only a comment\nstates q # trailing\nalphabet g\n")
    assert model.spec.states == ("q",)


def test_duplicate_set_slice_rejected():
    text = "states q r\nalphabet g\nset S q ^ g\nset S r ^ g\nset S q ^ g g\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 5
    assert "already has a 'q' slice" in str(err.value)


def test_config_literal_round_trip():
    model = parse_model(E1_TEXT)
    for text, expect in [
        ("p2: a ^ bot", cfg("p2", "a", "bot")),
        ("p: ^ x bot", cfg("p", "", "x bot")),
        ("p: a b ^", cfg("p", "a b", "")),
        ("p: ^", cfg("p", "", "")),
        ("p2: a^bot", cfg("p2", "a", "bot")),
    ]:
        parsed = parse_config_literal(model.spec, text)
        assert parsed == expect
        assert parse_config_literal(model.spec, print_config_literal(parsed)) == parsed


_CONFIG_LITERAL_ERRORS = [
    ("p2 a ^ bot", 1),
    ("nope: a ^ bot", 1),
    ("  zz: a ^ bot", 3),
    ("p: a bot", 9),
    ("p: ^ ^", 6),
    ("p: a ^ ^", 8),
    ("p: a^^ bot", 6),
    ("p: z ^ bot", 4),
    ("p: a ^ zz", 8),
]


@pytest.mark.parametrize(
    ("text", "column"), _CONFIG_LITERAL_ERRORS, ids=[text for text, _ in _CONFIG_LITERAL_ERRORS]
)
def test_config_literal_errors(text, column):
    # Each error points at the token at fault; a missing marker, at the
    # end of the literal.
    model = parse_model(E1_TEXT)
    with pytest.raises(ParseError) as err:
        parse_config_literal(model.spec, text)
    assert (err.value.line, err.value.column) == (1, column)


def test_model_equality_is_structural():
    a = parse_model(E1_TEXT)
    b = parse_model(E1_TEXT)
    assert a == b and a is not b
    assert a != parse_model(E1_TEXT.replace("set C1 p ^ x (y x)* bot", ""))


@pytest.mark.parametrize(
    "expression",
    [lambda leaf: leaf + " *" * 2000, lambda leaf: "( a | b " * 200 + leaf + " * )" * 200],
    ids=["2000 stacked stars", "200 nested groups"],
)
def test_model_equality_compares_the_deepest_trees_the_parser_accepts(expression):
    # A recursive comparison of these trees exceeds the recursion limit;
    # the two models that differ do so only at the innermost symbol.
    def model(leaf):
        return parse_model(f"states p\nalphabet a b\nset S p ^ {expression(leaf)}\n")

    assert model("a") == model("a")
    assert model("a") != model("b") and not model("a") == model("b")


# Differential tests against the character-by-character front end in
# parser_reference.py. Lines mix whole valid directives with words drawn
# from identifiers, reserved words and punctuation glued to symbols,
# joined by tabs, carriage returns and Unicode whitespace.
_SPACES = st.sampled_from(
    [" ", " ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
)
_WORDS = st.sampled_from(
    ["states", "alphabet", "rule", "set", "->", "p", "q", "a", "b", "bot", "S", "_", "^", "*",
     "(", ")", "|", "@a", "é", "a*", "(a", "b)", "a|b", "^a", "a^", "(a|b)*", "**", "#", "a#b", ""]
)
_VALID_LINES = st.sampled_from(
    ["rule p a -> q", "rule q b -> p a b", "rule\tp bot  ->  q bot", "set S p ^ a (b|a)* bot",
     "set T q a^(a | b)*", "set S q _ ^ _", "alphabet ab", "states r"]
)
# A directive, then words; words that repeat or hold one another test
# that each column is found after the word before.
_LINES = st.lists(
    _VALID_LINES
    | st.tuples(
        st.sampled_from(["states", "alphabet", "rule", "set", "", "wobble"]),
        st.lists(st.tuples(_SPACES, _WORDS), max_size=8),
    ).map(lambda line: line[0] + "".join(space + word for space, word in line[1])),
    max_size=8,
)


def _outcome(parse, *args):
    """What a parse gives: its result, or its error with the position."""
    try:
        result = parse(*args)
    except UpstackError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    return result


@settings(max_examples=300, deadline=None)
@given(declared=st.booleans(), lines=_LINES, ending=st.sampled_from(["", "\n", "\r\n"]))
def test_parse_model_matches_the_reference(declared, lines, ending):
    head = ["states p q", "alphabet a b bot"] if declared else []
    text = "\n".join(head + lines) + ending
    assert _outcome(parse_model, text) == _outcome(reference_parse_model, text)


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(alphabet="ab_xé ()|*^\n\t\r\u3000\x85", max_size=30),
    line=st.integers(1, 5),
    col=st.integers(1, 9),
)
def test_place_matches_the_reference(text, line, col):
    """Every word of the text, the end marker included, is placed where
    the character-by-character tokenizer puts its token."""
    words = _words(text)
    placed = [(word, *_place(text, words, k, line, col)) for k, word in enumerate(words)]
    reference = reference_tokenize(text, line, col)
    assert placed == [(token.value, token.line, token.col) for token in reference]


_IDS = st.sampled_from(["p", "q", "a", "b", ""])
# Mostly valid identifier lists, so that the rule checks are reached too.
_DECLARED = st.lists(st.sampled_from(["p", "q", "a"]), min_size=1, max_size=3, unique=True) | st.lists(
    _IDS, max_size=3
)


@settings(max_examples=300, deadline=None)
@given(
    states=_DECLARED,
    alphabet=_DECLARED.map(lambda ids: [f"{i}1" if i else i for i in ids]),
    rules=st.lists(
        st.tuples(_IDS, _IDS, _IDS, st.lists(_IDS, max_size=2)).map(
            lambda rule: (rule[0], rule[1] + "1", rule[2], tuple(f"{i}1" for i in rule[3]))
        ),
        max_size=4,
    ),
)
def test_system_checks_match_the_reference(states, alphabet, rules):
    # UpdsSpec checks its parts in bulk and scans them only to word an
    # error; the reference scans them one at a time.
    states, alphabet = tuple(states), tuple(alphabet)
    rules = tuple(Rule(*rule) for rule in rules)
    assert _outcome(UpdsSpec, states, alphabet, rules) == _outcome(
        lambda: reference_spec_checks(states, alphabet, rules) or UpdsSpec(states, alphabet, rules)
    )


def test_parsing_is_linear_in_the_rules():
    # 20,000 distinct rules over 40 states and 25 symbols. A duplicate
    # check against the list of earlier rules makes this quadratic (about
    # 10 s on a 2-vCPU host); with a hash lookup it takes about 0.2 s
    # there, so the bound is more than 10x that.
    states = [f"q{i}" for i in range(40)]
    symbols = [f"s{i}" for i in range(25)]
    lines = [f"states {' '.join(states)}", f"alphabet {' '.join(symbols)}"]
    for i in range(20_000):
        written = " ".join(symbols[(i + j) % 25] for j in range(i % 3))
        lines.append(f"rule {states[i % 40]} {symbols[i // 40 % 25]} -> {states[i // 1000]} {written}")
    text = "\n".join(lines)
    start = time.perf_counter()
    model = parse_model(text)
    elapsed = time.perf_counter() - start
    assert len(model.spec.rules) == 20_000
    assert elapsed < 3.0, f"parsing 20,000 rules took {elapsed:.2f} s"
