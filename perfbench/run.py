"""Benchmark of the ``wavetrain`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One caller runs the workload's command sequence in a closed loop
(each command starts after the previous one returns) through
``wavetrain.cli.main(argv)`` until ``--seconds`` would be exceeded; at least
one full sequence always runs. OpenBLAS keeps its default thread count.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` each round is one untraced and one
traced pass of the sequence, and the metrics are the per-layer figures of
``tracer.py`` plus the tracing overhead.

Every run appends its environment, samples and metrics to
``.perfbench/runs.jsonl``; ``compare.py`` compares two such files. Working
files go to ``.perfbench/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

_clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("spectral", "linear", "nonlinear"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """Effective thread count of every OpenBLAS loaded in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so"):
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def fingerprint(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def source_fingerprint():
    h = hashlib.sha256()
    for path in sorted((SRC / "wavetrain").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up

def time_setup(workload, work):
    """Wall times of SETUP_REPEATS fresh-interpreter set-ups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, str(HERE / "solve_profiles.py"), workload,
             str(work)], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(_clock() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return samples


# ---------------------------------------------------------------------------
# one pass of the command sequence

class Pass:
    """Timings, checks and (when traced) layer data of one sequence pass."""

    def __init__(self, traced):
        self.traced = traced
        self.cmd_s = {}          # kind -> seconds (summed over commands)
        self.wall_s = 0.0
        self.ops = 0
        self.failed = 0
        self.digests = []
        self.tracer = None
        self.per_cmd = []        # traced: per-command count deltas
        self.extra = {"cli.files_written": 0, "cli.bytes_written": 0,
                      "bloch.branch_lost_csv": 0, "xi_outputs": 0,
                      "xi_decompositions": 0}


def run_pass(wl, cmds, refs, on_ref_seed, traced):
    from wavetrain import cli

    import workloads

    rec = Pass(traced)
    if traced:
        rec.tracer = Tracer()
        rec.tracer.install()
    try:
        for cmd in cmds:
            before = rec.tracer.snapshot() if traced else None
            out, err = io.StringIO(), io.StringIO()
            problems = []
            t0 = _clock()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(cmd.argv)
            except Exception as exc:     # a crash fails this operation only
                code = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
            dt = _clock() - t0
            if traced:
                rec.tracer.active = False
            rec.wall_s += dt
            rec.cmd_s[cmd.kind] = rec.cmd_s.get(cmd.kind, 0.0) + dt
            rec.ops += 1
            digest = None
            if code != 0 and not problems:
                problems.append(f"exit code {code}: {err.getvalue().strip()}")
            if not problems:
                try:
                    q = workloads.quantities(cmd)
                    problems += workloads.check(cmd, q, refs, on_ref_seed)
                    digest = _digest(workloads.output_files(cmd))
                    files, nbytes = workloads.output_stats(cmd)
                    rec.extra["cli.files_written"] += files
                    rec.extra["cli.bytes_written"] += nbytes
                    rec.extra["bloch.branch_lost_csv"] += workloads.untagged_xi(cmd)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            if traced:
                after = rec.tracer.snapshot()
                n_xi = workloads.distinct_abs_xi(cmd) if not problems else 0
                decomp = sum(after[k] - before[k] for k in
                             ("bloch.eig_calls", "bloch.eigvals_calls"))
                if n_xi:
                    rec.extra["xi_outputs"] += n_xi
                    rec.extra["xi_decompositions"] += decomp
                rec.per_cmd.append({"label": cmd.label, "seconds": dt,
                                    "bloch_decompositions": decomp,
                                    "distinct_abs_xi": n_xi})
                rec.tracer.active = True
            if problems:
                rec.failed += 1
                print(f"[{wl.name}] {cmd.label} failed: " + "; ".join(problems),
                      file=sys.stderr)
            rec.digests.append(digest)
    finally:
        if traced:
            rec.tracer.uninstall()
    return rec


# ---------------------------------------------------------------------------
# metrics

def layer_figures(rec):
    """Per-layer figures of one traced pass."""
    c, t, x = rec.tracer.counts, rec.tracer.times, rec.extra
    steps = c["evolve.steps"]
    fibers = c["semigroup.fibers"]
    fig = {
        "trace.wall_s": rec.wall_s,
        "trace.coverage": sum(t.get(f"{layer}.self_s", 0.0)
                              for layer in LAYERS) / rec.wall_s,
        "bloch.eig_calls": c["bloch.eig_calls"],
        "bloch.eigvals_calls": c["bloch.eigvals_calls"],
        "bloch.eig_s": t.get("bloch.eig_s", 0.0) + t.get("bloch.eigvals_s", 0.0),
        "bloch.assemble_calls": c["bloch.assemble_bloch.calls"],
        "bloch.eig_per_xi": (x["xi_decompositions"] / x["xi_outputs"]
                             if x["xi_outputs"] else 0.0),
        "bloch.branch_lost": c["bloch.branch_lost"] + x["bloch.branch_lost_csv"],
        "fourier.operator_matrix_calls": c["fourier.operator_matrix.calls"],
        "semigroup.build_s": t.get("semigroup.SemigroupEngine.s", 0.0),
        "semigroup.eig_calls": c["semigroup.eig_calls"],
        "semigroup.eig_per_fiber": (c["semigroup.eig_calls"] / fibers
                                    if fibers else 0.0),
        "semigroup.cond_calls": c["semigroup.cond_calls"],
        "semigroup.inv_calls": c["semigroup.inv_calls"],
        "semigroup.expm_calls": c["semigroup.expm_calls"],
        "semigroup.apply_calls": c["semigroup.apply.calls"],
        "semigroup.decompose_calls": c["semigroup.decompose.calls"],
        "grids.bloch_transform_calls": c["grids.bloch_transform.calls"],
        "grids.bloch_inverse_calls": c["grids.bloch_inverse.calls"],
        "grids.interp_calls": c["grids.interp.calls"],
        "grids.interp_s": t.get("grids.interp.s", 0.0),
        "grids.interp_bytes": c["grids.interp_bytes"],
        "evolve.run_s": t.get("evolve.run_experiment.s", 0.0),
        "evolve.steps": steps,
        "evolve.step_us": (1e6 * t.get("evolve.step_s", 0.0) / steps
                           if steps else 0.0),
        "evolve.frames": c["evolve.modulation_frame.calls"],
        "evolve.warp_failures": c["evolve.warp_failures"],
        "evolve.duhamel_sweeps": c["evolve.duhamel_sweeps"],
        "evolve.residual_calls": c["evolve.nonlinear_residual.calls"],
        "evolve.fft_calls": c["evolve.fft_calls"],
        "models.f_calls": c["models.f.calls"],
        "models.df_calls": c["models.df.calls"],
        "profiles.newton_iters": c["profiles.newton_iters"],
        "cli.files_written": x["cli.files_written"],
        "cli.bytes_written": x["cli.bytes_written"],
    }
    for layer in LAYERS:
        fig[f"{layer}.self_s"] = t.get(f"{layer}.self_s", 0.0)
    return fig


def _median(values):
    return statistics.median(values) if values else 0.0


def metrics(passes, setup_samples, trace):
    plain = [p for p in passes if not p.traced]
    if not trace:
        return {
            "wall_s": {"value": _median([p.wall_s for p in plain]),
                       "unit": "s"},
            "setup_s": {"value": _median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    traced_passes = [p for p in passes if p.traced]
    if any(p.tracer.counts != traced_passes[0].tracer.counts
           for p in traced_passes):
        print("per-layer counts differ between traced passes",
              file=sys.stderr)
    traced = [layer_figures(p) for p in traced_passes]
    values = {name: _median([f[name] for f in traced]) for name in traced[0]}
    values["trace.untraced_wall_s"] = _median([p.wall_s for p in plain])
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    for kind in ("profile", "spectrum", "gap", "decay", "duhamel", "simulate"):
        values[f"cmd.{kind}_s"] = _median([p.cmd_s.get(kind, 0.0)
                                           for p in plain])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# determinism across passes and runs

def check_digests(passes, known):
    """Count operations whose payload differs from the first pass of this
    run, or from an earlier run of the same code, seed and environment."""
    bad = 0
    first = known or passes[0].digests
    for p in passes:
        for i, (want, got) in enumerate(zip(first, p.digests)):
            if got is not None and want is not None and got != want:
                bad += 1
                print(f"payload of command {i} differs between passes "
                      "(outputs are not deterministic)", file=sys.stderr)
    return bad


def _load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


def _write_json(path, payload):
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    tmp.replace(path)


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "wavetrain" / "cli.py").is_file():
        print(f"no wavetrain sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    t_begin = _clock()
    env = environment()
    env_fp = fingerprint(env)
    src_fp = source_fingerprint()
    refs = _load_json(workloads.REFERENCES, None)
    if refs is None:
        print(f"cannot read {workloads.REFERENCES}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    refs = refs["workloads"][wl.name]

    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{wl.name}-{os.getpid()}"
    work.mkdir()
    try:
        setup_samples = time_setup(wl.name, work)
        wl.prepare(work, args.seed)
        cmds = wl.commands(work, args.seed)
        on_ref_seed = args.seed == wl.ref_seed
        from wavetrain import cli  # noqa: F401  (import outside the timing)

        passes = []
        t_loop = _clock()
        while True:
            t_round = _clock()
            for traced in ((False, True) if args.trace else (False,)):
                passes.append(run_pass(wl, cmds, refs, on_ref_seed, traced))
            now = _clock()
            if now - t_loop + (now - t_round) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest_path = STATE / "digests.json"
    digests = _load_json(digest_path, {})
    key = f"{wl.name}|seed={args.seed}|env={env_fp}|src={src_fp}"
    mismatched = check_digests(passes, digests.get(key))
    if key not in digests and not mismatched:
        digests[key] = passes[0].digests
        _write_json(digest_path, digests)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes) + mismatched
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(passes, setup_samples, args.trace),
    }

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": env, "env_fingerprint": env_fp, "src": src_fp,
              "passes": len(passes), "run_s": _clock() - t_begin,
              "setup_samples": setup_samples,
              "wall_samples": [p.wall_s for p in passes if not p.traced],
              **result}
    with open(STATE / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        first = next(p for p in passes if p.traced)
        _write_json(STATE / f"spans-{wl.name}-{args.seed}.json", {
            "fields": ["id", "parent", "layer", "name", "start", "end"],
            "spans": first.tracer.spans,
            "commands": first.per_cmd,
            "counts": dict(first.tracer.counts),
            "times": dict(first.tracer.times),
        })

    print(json.dumps({"environment": env, "passes": len(passes)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
