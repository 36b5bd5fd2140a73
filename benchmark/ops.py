"""Operations, spans and the command-line front end as the benchmark drives them.

An operation is one call into the library's public API or one run of
``riordan.cli.main`` on a payload, paired with an output check that does
not use the function under test.  Every call into a layer goes
through ``call(span_name, fn, *args)``, which either calls straight
through or records a span.
"""

from __future__ import annotations

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from literals import README_PINS

# Subcommand -> family, after the README's grouping; the span of a
# command-line call is cli.main.<family>.
CLI_FAMILY = {
    "series-mul": "series", "series-inv": "series", "series-compose": "series",
    "series-compinv": "series",
    "riordan-mul": "riordan", "riordan-inv": "riordan", "riordan-array": "riordan",
    "lcs-verify": "quotient", "width": "quotient", "gens-check": "quotient",
    "hm-check": "quotient", "tower-check": "quotient", "sigma-check": "quotient",
    "admissible": "index", "density": "index", "jxi": "index", "hdim": "index",
    "spectrum": "index", "classify": "index",
}


@dataclass
class Op:
    """One closed-loop operation: run(call) -> result, check(result) -> bool."""

    label: str
    run: Callable
    check: Callable
    count: Callable | None = None  # result -> {counter name: exact count}
    known: bool = False  # a listed defect of the program: counted, not a harness error


def direct(name, fn, *args, **kwargs):
    """The untraced call: no bookkeeping at all."""
    return fn(*args, **kwargs)


class Tracer:
    """Records (name, start, end, operation id) spans in memory."""

    def __init__(self):
        self.spans = []
        self.op_id = "setup"

    def __call__(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op_id))


def invoke_cli(cli, argv, payload):
    """cli.main(argv) with the payload on stdin; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def lib_op(label, span, fn, args, check, count=None):
    return Op(label, lambda call: call(span, fn, *args), check, count)


def cli_op(R, argv, payload, code, check_stdout, label=None):
    """A command-line operation expecting exit `code` and stdout accepted by check_stdout."""
    span = "cli.main." + CLI_FAMILY[argv[0]]

    def check(res):
        got, out, err = res
        if got != code:
            return False
        if code == 2:
            return out == "" and err != ""
        return err == "" and check_stdout(out)

    def count(res):
        return {"cli.exit2": int(res[0] == 2)}

    return Op(label or "cli " + argv[0], lambda call: call(span, invoke_cli, R.cli, argv, payload),
              check, count)


def pinned(R, argv, payload, code, stdout, label):
    """Exit code and stdout must match byte for byte (README pins, closed forms)."""
    return cli_op(R, argv, payload, code, lambda out: out == stdout, label)


def probe(R, argv, payload, known):
    """A malformed payload; the exit-code contract says 2 with a message on stderr."""
    op = cli_op(R, argv, payload, 2, None, "malformed " + " ".join(argv))
    op.known = known
    return op


def contract_ops(R, front_end, probes):
    """The README examples of one front end, then every malformed payload."""
    return ([pinned(R, argv, payload, code, out, "readme " + argv[0])
             for argv, payload, code, out in README_PINS[front_end]]
            + [probe(R, argv, payload, known) for argv, payload, known in probes])
