"""Run ``segmentix.cli.main`` in a fresh process with its layers traced.

Usage: python perfbench/cli_child.py SPANS_OUT ARGV_JSON

ARGV_JSON is a JSON list of argument lists; each one is passed to
``cli.main`` in turn, as one op. The spans and exit codes are written to
SPANS_OUT as JSON. The process exits 0 when it could record every call,
whatever the exit codes of the calls themselves.
"""

import json
import sys

import segmentix.cli as cli
from tracing import Recorder


def main() -> int:
    out_path, argv_json = sys.argv[1], sys.argv[2]
    calls = json.loads(argv_json)
    rec = Recorder()
    restore = rec.install()
    codes = []
    try:
        for i, argv in enumerate(calls):
            rec.op = i
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects bad argv this way
                codes.append(exc.code if isinstance(exc.code, int) else 2)
    finally:
        restore()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"codes": codes, "spans": rec.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
