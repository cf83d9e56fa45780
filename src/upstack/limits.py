"""Default budgets and bounds of the analyses, in one place.

The CLI parser shows these as option defaults, so this module imports
nothing: building the parser loads no analysis. The modules that use a
default import it from here and keep it under its old name too.
"""

# Subset-construction states of one determinization, in every compaction
# (`--budget` of the pre* and checker commands). Past it a compaction
# keeps its language in a non-canonical form.
DFA_STATE_BUDGET = 50_000

# Configurations one exact membership search may store (`member --budget`),
# each stored only up to the goal's upper stack: configurations that differ
# only above the prefix they share with it count once, so fewer searches
# run out of it. The search runs forward from the start set and backward
# from the goal, and this counts what both sides store, the goal included.
DEFAULT_CONFIG_BUDGET = 2_000_000

# Configurations a bounded explicit-state search stores by default: the
# replay of a checker's witness and the `oracle` command's closure.
DEFAULT_NODE_BUDGET = 1_000_000

# Configurations a checker's search for a trace from its lower-stack
# witness may store. Past it the checker falls back to the pre* rounds,
# so the search, which on systems that push freely keeps finding new
# configurations long before it reaches the violation, can cost little
# more than the fallback would. The searches of the checkers' tests and
# workloads store at most 61.
LOWER_TRACE_BUDGET = 2_000

# What a configuration search that runs out of its budget calls it.
SEARCH_BUDGET = "configuration search budget"

# Phases of the bounded pre* under-approximation (`-k`).
DEFAULT_PHASES = 3
