"""Exhaustive derivation of a grammar's short forms, for test-sized grammars.

The tests compare the paper's grammar (`upstack.grammar`) with the exact
membership search and the bounded oracle by listing every sentential form
and terminal word up to a length.
"""

from __future__ import annotations

from upstack.errors import ResourceLimitError
from upstack.grammar import CsGrammar


def derivable_forms(
    grammar: CsGrammar, max_len: int, form_budget: int = 500_000
) -> set[tuple]:
    """Every sentential form of length <= max_len, by exhaustive search."""
    seen = {(grammar.start,)}
    queue = [(grammar.start,)]
    while queue:
        form = queue.pop()
        for lhs, rhs in grammar.productions:
            span = len(lhs)
            if len(form) - span + len(rhs) > max_len:
                continue
            for i in range(len(form) - span + 1):
                if form[i : i + span] != lhs:
                    continue
                successor = form[:i] + rhs + form[i + span :]
                if successor in seen:
                    continue
                if len(seen) >= form_budget:
                    raise ResourceLimitError(len(seen), "form enumeration budget")
                seen.add(successor)
                queue.append(successor)
    return seen


def derivable_words(
    grammar: CsGrammar, max_len: int, form_budget: int = 500_000
) -> set[tuple]:
    """Every terminal word of length <= max_len."""
    return {
        form
        for form in derivable_forms(grammar, max_len, form_budget)
        if all(s in grammar.terminals for s in form)
    }
