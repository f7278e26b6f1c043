"""Run one traced ``jetk`` command in a fresh process.

    python perfbench/tracechild.py <spans.json> <jetk argv...>

Stands in for ``python -m jetk.cli <argv...>`` in the traced cli-cold
run: same stdout and exit code, plus the spans written to <spans.json>.
``jetk`` must be importable (the benchmark sets PYTHONPATH).
"""

import json
import sys

import tracer

import jetk.cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    rec.install()
    try:
        code = jetk.cli.run(argv)
    finally:
        rec.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
