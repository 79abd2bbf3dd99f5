"""Child entry point: `python launch.py ARGS` runs `slw ARGS` as the console
script does. With SLW_BENCH_SPANS set it first installs the tracer and writes
the spans to that path when the command ends."""

import os
import sys

if __name__ == "__main__":
    spans_path = os.environ.get("SLW_BENCH_SPANS")
    if spans_path:
        import tracer
        sys.exit(tracer.run_traced(sys.argv[1:], spans_path))
    from slw.cli import main
    sys.exit(main(sys.argv[1:]))
