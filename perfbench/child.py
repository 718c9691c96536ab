"""Run one qhybrid CLI command with every layer traced.

Usage: python3 child.py SPANS_JSON QHYBRID_ARGS...

Installs the wrappers from tracer.py, runs ``qhybrid.cli.main`` on the given
arguments, writes the aggregated spans to SPANS_JSON and exits with the CLI's
exit code. The untraced runs call the CLI directly and never import this file.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import qhybrid.cli

    tracer = Tracer()
    install(tracer)
    code = qhybrid.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
