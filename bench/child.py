"""Child processes of the benchmark; not run by hand.

    child.py setup WORKLOAD SEED   time one set-up in a fresh interpreter:
                                   [scaled, raw] seconds
    child.py cli SPEC FIRST        time one CLI operation in-process, then
                                   replay it through public calls, traced

Each prints one JSON line.  The checkout's ``src`` comes in on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from trace import Tracer  # noqa: E402


def setup(name, seed):
    from run import timed_setup

    return timed_setup(name, int(seed))[1]


def cli(spec_json, first):
    spec = json.loads(spec_json)
    tr = Tracer()
    tr.first = first == "1"
    import ippp.cli

    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = ippp.cli.main(workloads.cli_argv(spec))
    equal = rc == 0 and workloads.replay_cli(tr, spec, buf.getvalue())
    return {"rc": rc, "stdout": buf.getvalue(), "equal": equal, "tracer": tr.dump()}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    print(json.dumps({"setup": setup, "cli": cli}[mode](*rest)))
