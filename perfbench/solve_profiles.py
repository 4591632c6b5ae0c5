"""Benchmark set-up step, run in a fresh interpreter so its cost is the one a
user pays: import ``wavetrain`` and solve and save a workload's profiles.

    python3 perfbench/solve_profiles.py WORKLOAD WORK_DIR

Exits non-zero if any profile command fails.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(workload, work):
    from wavetrain import cli

    from workloads import WORKLOADS

    for cmd in WORKLOADS[workload].setup_commands(Path(work)):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cmd.argv)
        if code != 0:
            print(f"set-up command failed ({code}): {cmd.argv}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
