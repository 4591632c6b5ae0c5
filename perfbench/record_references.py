"""Record ``references.json``: the checked quantities of every workload's
commands at its reference seed.

    python3 perfbench/record_references.py

Run once at the commit whose outputs define the references, and commit the
file. The checks in ``workloads.py`` hold later runs to these values with
fixed tolerances; re-recording is not a way to make a run pass.
"""

import contextlib
import io
import json
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    from wavetrain import cli

    run.STATE.mkdir(exist_ok=True)
    work = run.STATE / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = {"environment": run.environment(), "source": run.source_fingerprint(),
           "workloads": {}}
    try:
        for name, wl in workloads.WORKLOADS.items():
            wl.prepare(work, wl.ref_seed)
            refs = {}
            for cmd in (wl.setup_commands(work)
                        + wl.commands(work, wl.ref_seed)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(cmd.argv)
                if code != 0:
                    raise SystemExit(f"{name}: {cmd.argv} exited {code}")
                refs[cmd.label] = workloads.referenced(
                    workloads.quantities(cmd))
            out["workloads"][name] = {"ref_seed": wl.ref_seed, **refs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
