"""Regenerate the benchmark's stored references in benchmarks/data/.

    python3 benchmarks/make_reference.py

general_maxima.json holds, for every n the sweep workload may draw, the
maximal energy over nonempty sets of proper divisors of n and all
maximizers, enumerated with oracles.general_maximum (sympy number theory,
no icgraph code). cli_golden.json holds the stdout of every catalog
command line, captured from `python -m icgraph` at the commit that
defined the benchmark; the cli workload requires byte equality with it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent

# n <= 300 with 12 or 16 divisors (sweep), and with 6 divisors (the smoke test).
GENERAL_TAUS = (6, 12, 16)
GENERAL_NMAX = 300


def general_maxima() -> dict:
    out = {}
    for n in range(2, GENERAL_NMAX + 1):
        if len(oracles.ref_divisors(n)) in GENERAL_TAUS:
            out[str(n)] = oracles.general_maximum(n)
    return out


def cli_golden() -> list[dict]:
    env = workloads.child_env(ROOT)
    out = []
    for argv in workloads.cli_argvs():
        proc = subprocess.run(
            [sys.executable, "-m", "icgraph", *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        out.append({"argv": argv, "stdout": proc.stdout})
    return out


def main() -> None:
    workloads.DATA.mkdir(exist_ok=True)
    (workloads.DATA / "general_maxima.json").write_text(json.dumps(general_maxima(), indent=1) + "\n")
    (workloads.DATA / "cli_golden.json").write_text(json.dumps(cli_golden(), indent=1) + "\n")


if __name__ == "__main__":
    main()
