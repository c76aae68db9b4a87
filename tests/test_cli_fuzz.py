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

from hypothesis import given, settings
from hypothesis import strategies as st

from icgraph import cli

DEADLINE_S = 2.0

# Long values an error message must show briefly: 60 and 3001 digits,
# 4301 digits (one past the int-to-str limit that argv parsing keeps) and
# 80 letters.
LONG_INTS = [10**59 + 1, 10**3000, 7 * (10**4301 - 1) // 9]
WORD = "w" * 80

# Small primes, divisor-rich n and small lists come first: they are the
# values most likely to form a valid instance.
INTS = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(-2, 13),
    st.sampled_from([12, 30, 60, 64]),
    st.sampled_from([-(10**30), 21, 10**4 + 1, 10**6 + 1, 2**61 - 1, 10**30, *LONG_INTS]),
)
LISTS = st.one_of(
    st.sets(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3).map(sorted).map(tuple),
    st.sets(st.integers(0, 12), min_size=1, max_size=4).map(sorted).map(tuple),
    st.lists(INTS, max_size=4).map(tuple),
    st.just(WORD),
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
        return st.sampled_from([*spec["choices"], "neither", WORD])
    return LISTS if spec["type"] is cli._int_list else INTS


def _decimal(value):
    """value as argv text: an int in decimal, past the 4300-digit limit of str() too."""
    if not isinstance(value, int) or abs(value) < 10**4000:
        return str(value)
    high, low = divmod(abs(value), 10**4000)
    return "-" * (value < 0) + _decimal(high) + str(low).zfill(4000)


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
    argv = [name]
    for flag, value in values.items():
        if isinstance(value, tuple):
            value = ",".join(map(_decimal, value))
            value = f"({value})" if draw(st.booleans()) else value
        argv += [flag] if value is None else [flag, _decimal(value)]
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
        # one line, long numbers and arguments shown briefly
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode()) <= 300, err
