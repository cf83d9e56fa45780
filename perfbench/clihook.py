"""Run the upstack CLI with layer spans recorded, for the traced cli pass.

    python3 perfbench/clihook.py SPANS_FILE QUERY_ID upstack-arguments...

Behaves as `python -m upstack upstack-arguments...` and writes the spans
of the call to SPANS_FILE as JSON.
"""

import json
import sys
from pathlib import Path

import tracing
import upstack.cli


def main() -> int:
    spans_file, query = sys.argv[1], int(sys.argv[2])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.query = query
    try:
        return upstack.cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
