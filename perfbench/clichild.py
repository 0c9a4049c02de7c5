"""One fracgreen CLI request in a fresh process, as the console script runs it.

    python3 perfbench/clichild.py TRACE_OUT -- ARGS...

TRACE_OUT is ``-`` for an untraced request.  Otherwise the tracing
wrappers are installed before ``fracgreen.cli.run`` is called, the whole
call is one ``cli.run`` span, and the span summary plus the import time
are written to TRACE_OUT as JSON.  With no ARGS the child only imports
the CLI module and exits (the cli_cold set-up probe).  The exit code is
the CLI's.
"""

import json
import os
import sys
import time


def main():
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clichild.py TRACE_OUT -- ARGS...")
    t0 = time.perf_counter()
    import fracgreen.cli as cli
    import_s = time.perf_counter() - t0
    if not argv:
        return 0
    if out == "-":
        return cli.run(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    from perfbench import trace
    tracer = trace.Tracer()
    trace.install(tracer)
    cpu0 = time.process_time()
    span = tracer.open("cli.run")
    tracer.root = span
    try:
        code = cli.run(argv)
    finally:
        tracer.close(span)
        tracer.root = None
    doc = {"import_s": import_s, "cpu_s": time.process_time() - cpu0,
           "run_s": span.t1 - span.t0, "spans": len(tracer.spans),
           "trace": trace.summarize(tracer.spans)}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
