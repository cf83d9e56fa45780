"""`python -m upstack`: the command line, through the process entry
`cli.run`, which ends the process once the answer is flushed. To
profile a call, run `python -m cProfile -m upstack.cli ...` instead:
that entry exits normally, so the profiler reports."""

from .cli import run

run()
