"""Traced child of the cold-cli workload: one command in a fresh process.

Times `import gstruct.cli`, installs the span wrappers, runs the command
(`cli.main(argv)`, or `reps.invariant_cubics()` for the cubics op) with
stdout captured, writes the spans and prints one JSON object on stdout.
The untraced child of cold-cli is plain `python -m gstruct.cli`.

usage: python3 perfbench/cold.py SPANS_FILE ARGV...

The layer times are raw; run.py scales them by the op's host-speed factor.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

import workloads
from spantrace import Tracer, layer_totals


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from gstruct import cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    tracer.op = 1
    with redirect_stdout(buf):
        if argv[0] == workloads.CUBICS:
            from gstruct import reps

            print(len(reps.invariant_cubics()))
            rc = 0
        else:
            rc = cli.main(argv)
    tracer.op = None
    tracer.dump(spans_path)
    print(json.dumps({"rc": rc, "out": buf.getvalue(), "import_ms": import_ms,
                      "layers": layer_totals(tracer.spans, {1: 1.0})}))


if __name__ == "__main__":
    main()
