"""Model-file parsing, printing, and the literal configuration syntax."""

import pytest

from upstack.errors import MalformedInputError, ParseError
from upstack.fixtures import fixture_names, fixture_text
from upstack.model import (
    ModelFile,
    parse_config_literal,
    parse_model,
    print_config_literal,
    print_model,
)

from conftest import cfg

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


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("states q\nalphabet g\nrule q z -> q g\n", 3, "undeclared symbol 'z'"),
        ("states q\nalphabet g\nrule r g -> q\n", 3, "undeclared state 'r'"),
        ("states q\nalphabet g\nrule q g -> q g g g\n", 3, "at most two"),
        ("states q\nalphabet g\nrule q g q\n", 3, "expected 'rule"),
        ("states q\nalphabet g\nset S r ^ g\n", 3, "undeclared state 'r'"),
        ("states q\nalphabet g\nset S q\n", 3, "missing expression"),
        ("states q q\nalphabet g\n", 1, "duplicate identifier 'q'"),
        ("states q\nalphabet g q\n", 2, "duplicate identifier 'q'"),
        ("states q\nalphabet g\nwobble q\n", 3, "unknown directive"),
        ("alphabet g\n", 1, "missing states"),
        ("states ^\n", 1, "reserved punctuation"),
        ("states a*b\n", 1, "contains reserved"),
        ("states @q\nalphabet g\n", 1, "'@' prefix is reserved"),
        ("states q\nalphabet g\nset S q ^ g )\n", 3, ""),
    ],
)
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == line
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
    ]:
        parsed = parse_config_literal(model.spec, text)
        assert parsed == expect
        assert parse_config_literal(model.spec, print_config_literal(parsed)) == parsed


@pytest.mark.parametrize(
    "text",
    ["p2 a ^ bot", "nope: a ^ bot", "p: a bot", "p: ^ ^", "p: z ^ bot"],
)
def test_config_literal_errors(text):
    model = parse_model(E1_TEXT)
    with pytest.raises(ParseError):
        parse_config_literal(model.spec, text)


def test_model_equality_is_structural():
    a = parse_model(E1_TEXT)
    b = parse_model(E1_TEXT)
    assert a == b and a is not b
    assert a != parse_model(E1_TEXT.replace("set C1 p ^ x (y x)* bot", ""))
