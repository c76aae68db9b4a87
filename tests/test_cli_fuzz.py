"""CLI grammar fuzz: command lines drawn from the option table end on time in 0, 1 or 2.

Each argv takes a subcommand and its options from cli.COMMANDS and
cli.OPTIONS, with edge values (0, negative, huge, non-prime, just past
a cap, empty or repeated lists) and sizes small enough that an accepted
run answers well inside the deadline. A failure found here becomes a
named regression test in test_cli.py.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icgraph import cli

DEADLINE_S = 2.0

# Small primes, divisor-rich n and small lists come first: they are the
# values most likely to form a valid instance.
INTS = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(-2, 13),
    st.sampled_from([12, 30, 60, 64]),
    st.sampled_from([-(10**30), 21, 10**4 + 1, 10**6 + 1, 2**61 - 1, 10**30]),
)
LISTS = st.one_of(
    st.sets(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3).map(sorted).map(tuple),
    st.sets(st.integers(0, 12), min_size=1, max_size=4).map(sorted).map(tuple),
    st.lists(INTS, max_size=4).map(tuple),
)
# A required option is left out one time in ten, an optional one half the time.
REQUIRED = st.sampled_from([True] * 9 + [False])

class Deadline(BaseException):
    """Raised by SIGALRM inside the command; no handler in cli catches it."""


def _alarm(signum, frame):
    raise Deadline(f"no answer within {DEADLINE_S} s")


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _value(flag):
    """A strategy for one option's value: None for a bare flag."""
    spec = cli.OPTIONS[flag]
    if spec.get("action") == "store_true":
        return st.none()
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], "neither"])
    return INTS if spec["type"] is int else LISTS


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, required, optional = cli.COMMANDS[name]
    values = {}
    for flag in (*required, *optional):
        if draw(REQUIRED if flag in required else st.booleans()):
            values[flag] = draw(_value(flag))
    if name == "energy" and draw(st.booleans()):
        # energy takes one of two input forms, whole.
        form = draw(st.sampled_from([("--p", "--s", "--exponents"), cli.INSTANCE]))
        values = {flag: values.get(flag) or draw(_value(flag)) for flag in form}
    if isinstance(values.get("--delta"), tuple) and draw(st.booleans()):
        values["--s"] = sum(values["--delta"]) + 1  # the sum trace checks
    p, s = values.get("--p", 0), values.get("--s", 0)
    if name == "energy" and p > 1 and s > 0:
        # The output cap bounds the bits printed, but str() of an int is
        # quadratic in its digits: p^s of 10^6 bits prints in about 3 s.
        # Keep energy's numbers below 10^5 bits.
        assume(s * p.bit_length() <= 10**5)
    argv = [name]
    for flag, value in values.items():
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
            value = f"({value})" if draw(st.booleans()) else value
        argv += [flag] if value is None else [flag, str(value)]
    return [*argv, "--format", draw(st.sampled_from(("table", "json", "csv")))]


@settings(max_examples=300)
@given(command_lines())
def test_every_command_line_ends_in_a_documented_code(argv):
    code, out, err = run_in_process(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RESOURCE), (code, err)
    if code == cli.EXIT_OK:
        assert err == ""
        if argv[-1] == "json":
            assert json.loads(out)["command"] == argv[0]
    else:
        assert out == ""
        assert err.startswith(("usage error: ", "resource limit: "))
