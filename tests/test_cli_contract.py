"""Each argv one step past an accepted edge exits 2 in a child held to 10 CPU seconds and 1 GiB.

The children run one at a time. Each gets its limits through
resource.setrlimit before exec, so a run that went past its cap would
be killed by SIGXCPU or fail to allocate instead of passing. The slow
accepted edges themselves run in CI only.
"""

import resource
import subprocess
import sys

import pytest

from helpers import UNPROVABLE_P, src_env

CPU_SECONDS = 10
ADDRESS_SPACE = 1 << 30

PAST_THE_EDGE = [
    ["emax", "--p", "2", "--s", "3162"],
    ["emax", "--p", "2", "--s", "2236", "--brute"],
    ["verify", "--pmax", "2", "--smax", "3162"],
    ["verify", "--pmax", "10001", "--smax", "1"],
    ["trace", "--p", "2", "--s", "3162", "--delta", "3161"],
    ["energy", "--p", "2", "--s", "2000000", "--exponents", "0"],
    ["emin", "--p", str(UNPROVABLE_P), "--s", "2"],
    ["energy", "--n", str((2**9941 - 1) * (2**4253 - 1)), "--divisors", "1"],
    ["classify", "--n", "1000001", "--divisors", "1"],
    ["spectrum", "--n", "1000001", "--divisors", "1"],
]


def _limits():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv", PAST_THE_EDGE, ids=lambda argv: " ".join(argv)[:40])
def test_one_step_past_an_edge_exits_2_within_the_budget(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "icgraph", *argv],
        capture_output=True,
        env=src_env(),
        preexec_fn=_limits,
        timeout=4 * CPU_SECONDS,
    )
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr[:300]
    assert proc.stderr.startswith(b"resource limit: ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
