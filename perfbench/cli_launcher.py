"""Run ``treelike.cli.main`` from the source tree, optionally traced.

Used by the benchmark in place of ``python -m treelike.cli``.  When the
environment variable PERFBENCH_TRACE names a file, the layer wrappers are
installed before ``main`` runs and the spans and counters are written to
that file as JSON when it returns.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    from treelike import cli

    trace_out = os.environ.get("PERFBENCH_TRACE")
    if not trace_out:
        return cli.main(sys.argv[1:])
    sys.path.insert(0, HERE)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.child_record(), fh)


if __name__ == "__main__":
    sys.exit(main())
