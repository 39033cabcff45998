"""Traced stand-in for `python -m pseudosum`, used by the cli workload with
tracing on: spans around `import pseudosum.cli` and `cli.main`, written as
JSON to the file named by the first argument.

    python bench/cli_child.py SPANS.json SUBCOMMAND [ARGS...]
"""

import json
import sys
import time

t0 = time.monotonic()
spanfile, argv = sys.argv[1], sys.argv[2:]
spans = []
try:
    import pseudosum.cli

    t1 = time.monotonic()
    spans.append({"name": "cli.import", "start": t0, "end": t1})
    rc = pseudosum.cli.main(argv)
    spans.append({"name": "cli.main", "start": t1, "end": time.monotonic()})
finally:
    with open(spanfile, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
sys.exit(rc)
