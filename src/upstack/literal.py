"""Configuration literals: one configuration written as text.

Only the commands that take a configuration (`member`, `post-over`,
`pre-under` and `oracle` with `--config`) parse one, so the parser lives
here, off the path that parsing a model and compiling its sets take.
The printer, `print_config_literal`, stays in `model`: the checkers'
verdicts print their witnesses with it.
"""

from __future__ import annotations

from .core import Configuration, UpdsSpec
from .errors import ParseError
from .regex import _place


def parse_config_literal(spec: UpdsSpec, text: str) -> Configuration:
    """A single configuration written as '<state>: <upper> ^ <lower>',
    e.g. 'p2: a ^ bot' for state p2, upper word a, lower word bot. No
    name holds '^', so the marker needs no spaces around it: 'p2: a^bot'
    is the same configuration. The configuration holds the system's own
    strings, as the model's rules do."""
    head, sep, stacks = text.partition(":")
    state = head.strip()
    if not sep:
        raise ParseError(1, 1, "expected '<state>: <upper> ^ <lower>'")
    if state not in spec.states:
        raise ParseError(
            *_place(head.replace("\n", " "), head.split(), 0), f"undeclared state {state!r}"
        )
    # A literal is one line: columns count along the whole text, a line
    # break in it included, with its state and colon blanked out.
    stacks = " " * len(head + sep) + stacks.replace("\n", " ")
    tokens = stacks.replace("^", " ^ ").split()
    if tokens.count("^") != 1:
        # With no marker, the fault is at the end marker "", the text's end.
        markers = [i for i, token in enumerate(tokens) if token == "^"]
        raise ParseError(
            *_place(stacks, tokens + [""], markers[1] if markers else len(tokens)),
            "expected exactly one boundary marker '^'",
        )
    split = tokens.index("^")
    alphabet = spec.alphabet
    for i, token in enumerate(tokens):
        if i != split:
            try:
                tokens[i] = alphabet[alphabet.index(token)]
            except ValueError:
                raise ParseError(
                    *_place(stacks, tokens, i), f"undeclared symbol {token!r}"
                ) from None
    state = spec.states[spec.states.index(state)]
    return Configuration(state, tuple(tokens[:split]), tuple(tokens[split + 1 :]))
