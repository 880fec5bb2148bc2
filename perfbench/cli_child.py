"""One ``wellprobe`` command-line invocation, as the cli workload runs it.

    python3 perfbench/cli_child.py [--trace-to PATH] -- <wellprobe arguments>

Runs from the repository root in a fresh interpreter, times the import, and
calls ``wellprobe.cli.main``.  With ``--trace-to`` it installs the span
wrappers after the import and writes the import time and the span summary
to PATH as JSON.  The exit code is the CLI's.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import wellprobe.cli  # noqa: E402

import_s = time.perf_counter() - start

args = sys.argv[1:]
trace_to = None
if args[:1] == ["--trace-to"]:
    trace_to, args = args[1], args[2:]
if args[:1] == ["--"]:
    args = args[1:]

if trace_to is None:
    sys.exit(wellprobe.cli.main(args))

import json  # noqa: E402

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.current_op = 0
try:
    code = wellprobe.cli.main(args)
finally:
    tracer.uninstall()
    sys.stdout.flush()
with open(trace_to, "w") as fh:
    json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)
sys.exit(code)
