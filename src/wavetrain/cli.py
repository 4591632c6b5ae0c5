"""Command-line entry point: profiles, spectra, decay studies, experiments.

Every command's files go through one ``_Manifest``: it reads and digests
every input file, writes, times and lists every artifact, and makes the
output directory at the first write, so a run refused before its first
artifact leaves no directory.  Its ``manifest.json`` (``<name>.manifest.json``
beside a profile ``<name>.json``) records the resolved
configuration, tool version, input digests, artifact paths, step counts,
wall-clock time and per-stage timings and fiber counts (``stages``).  Reruns
with the same inputs and seeds reproduce all CSV/JSON payloads bit-for-bit
(manifest timing fields excepted).

Exit codes: 0 success, 2 solver failure, 64 usage error, 65 validation
error (and any other package error, such as a lost critical branch), 66
unreadable input, 70 blow-up, 71 Duhamel extraction failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fourier, profiles
from .errors import (
    AdmissibilityError,
    BlowUpError,
    ExtractionDivergenceError,
    ModelParameterError,
    PhaseWarpError,
    ProfileConvergenceError,
    ResolutionError,
    WavetrainError,
)
from .models import _FACTORIES, make_model

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_USAGE = 64
EXIT_VALIDATION = 65
EXIT_IO = 66
EXIT_BLOWUP = 70
EXIT_DIVERGENCE = 71

_SCHEMA_VERSIONS = {
    "manifest": 1,
    "profile": 1,
    "spectrum_csv": 1,
    "stability_report": 2,
    "gap_report": 1,
    "decay_csv": 1,
    "decay_fit": 2,
    "sum_csv": 1,
    "sum_summary": 1,
    "trace_csv": 1,
    "snapshot_blob": 1,
    "experiment_report": 4,
}


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


def _fmt(x):
    """Floats with 17 significant digits (value-preserving for doubles)."""
    return f"{float(x):.17g}"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _jsonable(obj):
    """``obj`` with numpy arrays and scalars as Python values and every
    non-finite float as None, so that the dump is strict (RFC 8259) JSON."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


class _Manifest:
    """The one owner of a command's files: it digests each input it reads,
    and writes, times and lists each artifact under ``out_dir``, which is
    made at the first write."""

    def __init__(self, command, argv, config, out_dir):
        self.command = command
        self.argv = list(argv)
        self.config = config
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.name = "manifest.json"
        self.inputs = {}
        self.outputs = []
        self.counts = {}
        self.seconds = {}
        self.fibers = {}
        self.health = {}
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name):
        """Add the wall time of the block to stage ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)

    def count_fibers(self, profile, engines=()):
        """Record the fibers decomposed by the profile's store and by the
        engines."""
        from . import bloch

        self.fibers = {"store": bloch.decomposed_fibers(profile),
                       "engine": sum(e.n_half for e in engines)}

    def add_input(self, path):
        self.inputs[str(path)] = _sha256(path)

    def read_profile(self, path):
        """The profile stored at ``path``, its digest recorded; an
        unreadable or malformed file exits 66."""
        try:
            prof = profiles.load_profile(path)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot read profile file {path}: {exc}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise _CliError(EXIT_IO, f"not a valid profile file {path}: {exc}")
        self.add_input(path)
        return prof

    def _path(self, name):
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def artifact(self, name, write, *args):
        """Write artifact ``name`` as ``write(path, *args)``, timed as the
        ``outputs`` stage, and list it."""
        with self.stage("outputs"):
            write(self._path(name), *args)
        self.outputs.append(name)

    def write(self):
        """Add the manifest, ``name`` in ``out_dir``."""
        payload = {
            "schema_version": _SCHEMA_VERSIONS["manifest"],
            "schema_versions": _SCHEMA_VERSIONS,
            "tool_version": __version__,
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "step_counts": self.counts,
            "stages": {"seconds": self.seconds, "fibers": self.fibers},
            "wall_time_s": time.perf_counter() - self.t0,
        }
        if self.counts.get("time_steps"):
            payload["stages"]["evolution_step_us"] = (
                1e6 * self.seconds["evolution"] / self.counts["time_steps"])
        if self.health:
            payload["health"] = self.health
        _write_json(self._path(self.name), payload)


# the --param keys each model's analytic guess reads, beside the model's own
_GUESS_PARAMS = {"rgl": ("q",), "nagumo": ("amplitude",), "brusselator": ()}


def _parse_params(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise _CliError(EXIT_USAGE,
                            f"--param expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise _CliError(EXIT_USAGE,
                            f"--param {key.strip()}: not a number: {val!r}")
    return out


def _parse_int_list(text, name):
    try:
        vals = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise _CliError(EXIT_USAGE, f"{name} expects integers, got {text!r}")
    if not vals or any(v < 1 for v in vals):
        raise _CliError(EXIT_USAGE, f"{name} entries must be >= 1")
    return vals


def _resize_coeffs(coeffs, m_new):
    m_old = fourier.trunc_order(coeffs)
    if m_new == m_old:
        return coeffs
    out = np.zeros((2 * m_new + 1, coeffs.shape[1]), dtype=complex)
    keep = min(m_old, m_new)
    out[m_new - keep:m_new + keep + 1] = coeffs[m_old - keep:m_old + keep + 1]
    return out


# ---------------------------------------------------------------------------
# profile

def cmd_profile(args, argv):
    if args.modes < 1:
        raise _CliError(EXIT_USAGE, f"--modes must be >= 1, got {args.modes}")
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise _CliError(EXIT_USAGE, f"--tol must be finite and > 0, got {args.tol}")
    params = _parse_params(args.param)
    model_id = args.model.lower()
    if model_id not in _FACTORIES:
        raise _CliError(EXIT_USAGE,
                        f"unknown model {args.model!r}; known: "
                        f"{sorted(_FACTORIES)}")
    takes = (*_FACTORIES[model_id][1], *_GUESS_PARAMS[model_id])
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise _CliError(EXIT_USAGE,
                        f"--param {', '.join(unknown)}: model {model_id} "
                        f"takes {', '.join(takes)}")
    # the model factory takes its own parameters; the remaining --param
    # entries parameterize the analytic guess
    try:
        model = make_model(model_id,
                           {k: params[k] for k in _FACTORIES[model_id][1]
                            if k in params})
    except ModelParameterError as exc:
        raise _CliError(EXIT_VALIDATION, str(exc))

    out_path = Path(args.out)
    manifest = _Manifest("profile", argv, {
        "model": model_id, "params": params, "modes": args.modes,
        "guess": args.guess, "tol": args.tol, "out": str(out_path)},
        out_path.parent)
    # one manifest per profile file, so that profiles can share a directory
    manifest.name = f"{out_path.stem}.manifest.json"

    if args.guess == "analytic":
        try:
            if model_id == "rgl":
                if "q" not in params:
                    raise _CliError(EXIT_VALIDATION,
                                    "analytic rgl guess needs --param q=...")
                coeffs, k0, c0 = profiles.rgl_analytic(params["q"],
                                                       m_f=args.modes)
            elif model_id == "nagumo":
                coeffs, k0, c0 = profiles.nagumo_guess(
                    params["alpha"], amplitude=params.get("amplitude", 0.1),
                    m_f=args.modes)
            else:
                raise _CliError(EXIT_VALIDATION,
                                f"no analytic wave family for {model_id}; "
                                "use --guess file:PATH")
        except ModelParameterError as exc:
            raise _CliError(EXIT_VALIDATION, str(exc))
    elif args.guess.startswith("file:"):
        guess_path = args.guess[5:]
        guess_prof = manifest.read_profile(guess_path)
        if guess_prof.n != model.n:
            raise _CliError(EXIT_VALIDATION,
                            f"guess file {guess_path} holds a "
                            f"{guess_prof.n}-component profile; model "
                            f"{model_id} has {model.n} components")
        coeffs = _resize_coeffs(guess_prof.coeffs, args.modes)
        k0, c0 = guess_prof.k, guess_prof.c
    else:
        raise _CliError(EXIT_USAGE,
                        f"--guess must be 'analytic' or 'file:PATH', "
                        f"got {args.guess!r}")

    try:
        with manifest.stage("solve"):
            prof = profiles.solve_profile(model, coeffs, k0, c0, tol=args.tol)
    except ProfileConvergenceError as exc:
        hist = ", ".join(f"{r:.3e}" for r in exc.history)
        print(f"solver failed: {exc}\nresidual history: [{hist}]",
              file=sys.stderr)
        return EXIT_SOLVER

    manifest.artifact(out_path.name,
                      lambda path: profiles.save_profile(prof, path))
    manifest.counts["newton_iterations"] = len(prof.info["newton_residuals"])
    manifest.health = {key: prof.info[key]
                       for key in ("newton_residuals", "newton_rcond")}
    manifest.write()
    print(f"converged: residual {prof.residual_norm:.3e}, "
          f"k = {prof.k:.12g}, c = {prof.c:.12g}, "
          f"amplitude {prof.amplitude():.12g} -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum

def _hill_evidence(report):
    """The Hill truncation of a stability scan and its evidence."""
    return {"hill_modes": report.hill.modes, "hill_tail": report.hill.tail,
            "hill_check": report.hill.check}


def _stability_payload(report):
    """The contents of ``stability_report.json``."""
    from . import bloch

    return {
        "schema_version": _SCHEMA_VERSIONS["stability_report"],
        "verdict": report.verdict,
        "conditions": {
            "negative_spectrum": report.condition_negative_spectrum,
            "quadratic_bound": report.condition_quadratic_bound,
            "simple_zero": report.condition_simple_zero,
        },
        "theta": report.theta,
        "a": report.curve.a,
        "d": report.curve.d,
        "d_second_diff": report.curve.d_second_diff,
        "curve_fit_residual": report.curve.fit_residual,
        "xi_1": report.xi_1,
        "delta_1": report.delta_1,
        "delta_0": {_fmt(k): v for k, v in report.delta_0.items()},
        "zero_simplicity": report.zero_simplicity,
        "max_nonzero_real": report.max_nonzero_real,
        "branch_lost": report.branch_lost,
        "min_overlap_margin": report.min_overlap_margin,
        "failures": report.failures,
        "tolerances": {"tol_zero": report.tol_zero, "scan": report.scan,
                       "xi_fit": bloch.CURVE_XI_MAX},
        **_hill_evidence(report),
    }


def _engines(manifest, prof, scan, n_values, m_x):
    """The gate of the engine commands: the stability report of ``prof``
    on ``scan`` points, exit 65 if it fails, then the engines of periods
    ``n_values`` on ``m_x`` cell modes at the report's cutoff. Records the
    stages, fibers and health; returns (report, engines)."""
    from . import bloch, semigroup

    with manifest.stage("stability_scan"):
        report = bloch.verify_diffusive_stability(prof, scan=scan)
    if not report.verdict:
        raise _CliError(EXIT_VALIDATION,
                        "profile fails the spectral stability check; "
                        f"failures: {report.failures}")
    cutoff = semigroup.default_cutoff(report)
    with manifest.stage("engine_build"):
        engines = [semigroup.SemigroupEngine(prof, n, cutoff, m_x=m_x)
                   for n in n_values]
    manifest.count_fibers(prof, engines)
    # the grid the engines run on and the Hill truncation it derives from
    manifest.health = {"m_x": engines[0].m_x, **_hill_evidence(report)}
    return report, engines


def cmd_spectrum(args, argv):
    from . import bloch, grids

    if args.scan < 8:
        raise _CliError(EXIT_USAGE, f"--scan must be >= 8, got {args.scan}")
    manifest = _Manifest("spectrum", argv, {
        "profile": str(args.profile), "scan": args.scan,
        "out_dir": str(Path(args.out_dir))}, args.out_dir)
    prof = manifest.read_profile(args.profile)

    with manifest.stage("stability_scan"):
        report = bloch.verify_diffusive_stability(prof, scan=args.scan)
    manifest.count_fibers(prof)

    # the CSV lists the scan lattice in ascending xi; -xi mirrors xi
    store = bloch.fiber_store(prof)
    js = grids.cell_modes(args.scan)
    xis = grids.frequency_lattice(args.scan)
    rows = []
    for k in np.argsort(xis):
        fib = store.fiber(js[k], args.scan)
        for idx, l in enumerate(fib.lam):
            tag = "critical" if idx == fib.index else "bulk"
            rows.append((_fmt(xis[k]), _fmt(l.real), _fmt(l.imag), tag))
    manifest.artifact("spectrum.csv", _write_csv,
                      ("xi", "re_lambda", "im_lambda", "branch_tag"), rows)
    manifest.artifact("stability_report.json", _write_json,
                      _stability_payload(report))
    manifest.counts["scan_points"] = int(xis.size)
    manifest.write()
    print(f"verdict={'true' if report.verdict else 'false'} "
          f"theta={report.theta:.6g} a={report.curve.a:.3e} "
          f"d={report.curve.d:.6g} xi_1={report.xi_1:.6g} "
          f"delta_1={report.delta_1:.6g}")
    if not report.verdict:
        for line in report.failures:
            print(f"  failed: {line}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gap

def cmd_gap(args, argv):
    from . import bloch

    n_values = _parse_int_list(args.N, "--N")
    manifest = _Manifest("gap", argv, {"profile": str(args.profile),
                                       "N": n_values}, args.out_dir)
    prof = manifest.read_profile(args.profile)
    records = []
    with manifest.stage("spectra"):
        for n in n_values:
            sub = bloch.subharmonic_spectrum(prof, n)
            records.append({"N": n, "delta_N": sub.delta,
                            "attaining_xi": sub.attaining_xi,
                            "zero_defect": sub.zero_defect})
    manifest.count_fibers(prof)
    print("N,delta_N,attaining_xi")
    for rec in records:
        print(f"{rec['N']},{_fmt(rec['delta_N'])},{_fmt(rec['attaining_xi'])}")

    if manifest.out_dir is not None:
        manifest.config["out_dir"] = str(manifest.out_dir)
        manifest.artifact("gaps.csv", _write_csv,
                          ("N", "delta_N", "attaining_xi"),
                          ((str(r["N"]), _fmt(r["delta_N"]),
                            _fmt(r["attaining_xi"])) for r in records))
        manifest.artifact("gap_report.json", _write_json, {
            "schema_version": _SCHEMA_VERSIONS["gap_report"],
            "records": records})
        manifest.write()
    return EXIT_OK


# ---------------------------------------------------------------------------
# linear decay

def _engine_health(engine):
    """The engine's worst eigenvector condition bound."""
    return {"max_eigvec_cond": float(np.max(engine.eigvec_cond))}


def cmd_linear_decay(args, argv):
    from . import evolve, semigroup

    n_values = _parse_int_list(args.N, "--N")
    if args.l < 0 or args.m < 0:
        raise _CliError(EXIT_USAGE, "--l and --m must be >= 0")
    if args.samples < 4:
        raise _CliError(EXIT_USAGE, "--samples must be >= 4")
    if not np.isfinite(args.tmax):
        raise _CliError(EXIT_USAGE, f"--tmax must be finite, got {args.tmax}")
    if not 0 <= args.seed < 2 ** 128:
        raise _CliError(EXIT_USAGE, f"--seed must be in [0, 2**128), got {args.seed}")
    if args.tmax <= 10.0:
        raise _CliError(
            EXIT_VALIDATION,
            f"horizon --tmax {args.tmax} is shorter than the fit window, "
            "which starts at t = 10; increase --tmax (the window is "
            "[10, N^2/10])")
    manifest = _Manifest("linear-decay", argv, {
        "profile": str(args.profile), "N": n_values, "tmax": args.tmax,
        "samples": args.samples, "l": args.l, "m": args.m, "seed": args.seed,
        "out_dir": str(Path(args.out_dir))}, args.out_dir)
    prof = manifest.read_profile(args.profile)

    times = np.geomspace(0.1, args.tmax, args.samples)
    _, engines = _engines(manifest, prof, 128, n_values, None)
    rows = []
    fits = []
    for n, engine in zip(n_values, engines):
        # a datum of L1 size 1, the size the constants are measured against
        v = evolve.random_perturbation(n, engine.m_x, prof.n, args.seed, 1.0,
                                       normalize="l1")
        with manifest.stage("evolution"):
            measures = semigroup.measure_decay(engine, v, 1.0, times,
                                               l=args.l, m=args.m)
        for i, t in enumerate(times):
            rows.append((str(n), _fmt(t),
                         _fmt(measures["total"].norms[i]),
                         _fmt(measures["mean"].norms[i]),
                         _fmt(measures["sp"].norms[i]),
                         _fmt(measures["stilde"].norms[i]),
                         str(args.l), str(args.m)))
        fits.append({"N": n, **_engine_health(engine), "parts": {
            part: {
                "claimed_exponent": meas.claimed_exponent,
                "fitted_exponent": meas.fitted_exponent,
                "attained_constant": meas.attained_constant,
                "reference_norm": meas.reference_norm,
                "super_polynomial": meas.super_polynomial,
            } for part, meas in measures.items()}})

    manifest.artifact("decay.csv", _write_csv,
                      ("N", "t", "norm_total", "norm_mean_phase", "norm_sp",
                       "norm_stilde", "l", "m"), rows)

    uniformity = {}
    for part in ("sp", "stilde"):
        consts = [f["parts"][part]["attained_constant"] for f in fits]
        finite = [c for c in consts if np.isfinite(c) and c > 0]
        uniformity[part] = (max(finite) / min(finite)) if finite else None
    manifest.artifact("decay_fit.json", _write_json, {
        "schema_version": _SCHEMA_VERSIONS["decay_fit"],
        "l": args.l, "m": args.m, "seed": args.seed,
        "fit_window": "[10, N^2/10] (whole series when underpopulated)",
        "fits": fits,
        "constant_spread": uniformity,
    })
    manifest.counts["time_samples"] = int(times.size)
    manifest.write()
    for f in fits:
        sp = f["parts"]["sp"]
        st = f["parts"]["stilde"]
        print(f"N={f['N']}: sp slope {sp['fitted_exponent']:+.3f} "
              f"(claimed {sp['claimed_exponent']:+.2f}), "
              f"stilde slope {st['fitted_exponent']:+.3f} "
              f"(claimed {st['claimed_exponent']:+.2f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sum bounds

def cmd_sum_bounds(args, argv):
    from . import semigroup

    if not (np.isfinite(args.d) and args.d > 0.0):
        raise _CliError(EXIT_USAGE, f"--d must be finite and > 0, got {args.d}")
    # the time grid starts at t = 1e-2
    if not (np.isfinite(args.tmax) and args.tmax > 1e-2):
        raise _CliError(EXIT_USAGE,
                        f"--tmax must be finite and > 1e-2, got {args.tmax}")
    try:
        r_values = [float(tok) for tok in args.r.split(",") if tok.strip()]
    except ValueError:
        raise _CliError(EXIT_USAGE, f"--r expects numbers, got {args.r!r}")
    if not r_values or not all(np.isfinite(r) and r >= 0 for r in r_values):
        raise _CliError(EXIT_USAGE, "--r entries must be finite and >= 0")
    n_values = _parse_int_list(args.N, "--N")
    manifest = _Manifest("sum-bounds", argv, {
        "d": args.d, "r": r_values, "N": n_values, "tmax": args.tmax,
        "out_dir": str(Path(args.out_dir))}, args.out_dir)

    times = np.unique(np.concatenate(
        [[0.0], np.geomspace(1e-2, args.tmax, 240)]))
    with manifest.stage("lattice_sums"):
        report_rows = semigroup.sum_bound_report(n_values, r_values, times,
                                                 d=args.d)
        rows = [(str(row.n_period), _fmt(row.r), _fmt(t), _fmt(s), _fmt(ratio))
                for row in report_rows
                for t, s, ratio in zip(times, row.sums, row.ratios)]
        global_c = max(row.attained_constant for row in report_rows)
        probes = {}
        for n in n_values:
            probe = semigroup.crossover_probe(n, d=args.d, r=0)
            probes[str(n)] = {"t_star": probe.t_star,
                              "late_rate": probe.late_rate,
                              "predicted_rate": probe.predicted_rate}
    manifest.artifact("sums.csv", _write_csv,
                      ("N", "r", "t", "sum", "envelope_ratio"), rows)
    manifest.artifact("sum_summary.json", _write_json, {
        "schema_version": _SCHEMA_VERSIONS["sum_summary"],
        "d": args.d,
        "per_pair": [{"N": row.n_period, "r": row.r,
                      "C_min": row.attained_constant,
                      "sup_time": row.sup_time} for row in report_rows],
        "C_global": global_c,
        "crossover": probes,
    })
    manifest.counts["time_samples"] = int(times.size)
    manifest.write()
    print(f"global C = {global_c:.6g} over N in {n_values}, r in {r_values}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_IO, f"config {path} is not valid JSON: {exc}")


# simulate's config keys: a section maps to the keys it holds, a plain key
# to None
_CONFIG_KEYS = {
    "model": None, "profile": None, "N": None, "m_x": None, "dt": None,
    "t_max": None, "scheme": None, "K": None, "output_dir": None,
    "perturbation": ("shape", "amplitude", "seed", "band", "normalize"),
    "extraction": ("mode",),
}


def _validated_simulation_config(cfg, extract_flag):
    """Fill defaults and validate the experiment configuration document."""
    from . import evolve

    def bad(msg):
        raise _CliError(EXIT_VALIDATION, f"config: {msg}")

    # JSON true/false are Python bools, which are ints
    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    # JSON Infinity and NaN parse as floats
    def is_number(x):
        return is_int(x) or (isinstance(x, float) and math.isfinite(x))

    if not isinstance(cfg, dict):
        bad("the document must be a JSON object")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            bad(f"unknown key {key!r}")
    sections = {}
    for section, known in _CONFIG_KEYS.items():
        if known is None:
            continue
        entries = cfg.get(section)
        if entries is None:
            entries = {}
        elif not isinstance(entries, dict):
            bad(f"{section!r} must be an object")
        for key in entries:
            if key not in known:
                bad(f"unknown key {key!r} in {section!r}")
        sections[section] = entries
    pert, extr = sections["perturbation"], sections["extraction"]

    for key in ("profile", "output_dir"):
        if not cfg.get(key):
            bad(f"missing key {key!r}")
    for key in ("model", "profile", "output_dir"):
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            bad(f"{key!r} must be a string")

    resolved = {
        "model": cfg.get("model"),
        "profile": cfg["profile"],
        "N": cfg.get("N"),
        "m_x": cfg.get("m_x"),
        "dt": cfg.get("dt", 0.01),
        "t_max": cfg.get("t_max"),
        "scheme": cfg.get("scheme", "imex"),
        "K": cfg.get("K", 3),
        "perturbation": {"shape": pert.get("shape", "fourier"),
                         "amplitude": pert.get("amplitude", 1e-2),
                         "seed": pert.get("seed", 0),
                         "band": pert.get("band"),
                         "normalize": pert.get("normalize", "l1_sobolev")},
        "extraction": {"mode": extract_flag or extr.get("mode", "projection")},
        "output_dir": cfg["output_dir"],
    }

    if not is_int(resolved["N"]) or resolved["N"] < 1:
        bad("'N' must be a positive integer")
    m_x = resolved["m_x"]
    if m_x is not None and not (is_int(m_x) and m_x >= 3 and m_x % 2 == 1):
        bad("'m_x' must be an odd integer >= 3")
    if not (is_number(resolved["dt"]) and resolved["dt"] > 0):
        bad("'dt' must be a positive finite number")
    if not (is_number(resolved["t_max"]) and resolved["t_max"] > 0):
        bad("'t_max' must be a positive finite number")
    if resolved["t_max"] <= 10.0:
        bad("'t_max' must exceed 10, where the zeta check is normalized")
    if (not isinstance(resolved["scheme"], str)
            or resolved["scheme"] not in evolve._SCHEMES):
        bad(f"unknown scheme {resolved['scheme']!r} "
            f"(have {sorted(evolve._SCHEMES)})")
    if not is_int(resolved["K"]) or resolved["K"] < 1:
        bad("'K' must be an integer >= 1")
    p = resolved["perturbation"]
    if p["shape"] not in ("fourier", "bump"):
        bad(f"perturbation shape must be 'fourier' or 'bump', got {p['shape']!r}")
    if not (is_number(p["amplitude"]) and p["amplitude"] >= 0):
        bad("perturbation amplitude must be a finite number >= 0")
    if not (is_int(p["seed"]) and 0 <= p["seed"] < 2 ** 128):
        bad("perturbation seed must be an integer in [0, 2**128)")
    if p["band"] is not None and not (is_int(p["band"]) and p["band"] >= 0):
        bad("perturbation band must be an integer >= 0")
    if p["band"] is not None and p["shape"] != "fourier":
        bad(f"perturbation band applies to shape 'fourier' only, not "
            f"{p['shape']!r}")
    if p["normalize"] not in ("sup", "l1", "l1_sobolev"):
        bad("perturbation normalize must be 'sup', 'l1' or 'l1_sobolev', "
            f"got {p['normalize']!r}")
    e = resolved["extraction"]
    if e["mode"] not in ("projection", "duhamel", "both"):
        bad(f"extraction mode must be projection/duhamel/both, got {e['mode']!r}")
    return resolved


def cmd_simulate(args, argv):
    from . import bloch, evolve, grids

    cfg = _validated_simulation_config(_load_config(args.config),
                                       args.extract)
    manifest = _Manifest("simulate", argv, cfg, cfg["output_dir"])
    manifest.add_input(args.config)
    prof = manifest.read_profile(cfg["profile"])
    if cfg["model"] is not None and cfg["model"].lower() != prof.model.id:
        raise _CliError(EXIT_VALIDATION,
                        f"config model {cfg['model']!r} does not match the "
                        f"profile's model {prof.model.id!r}")
    m_x, _ = bloch.grid_modes(prof, cfg["m_x"])
    pert = cfg["perturbation"]
    try:
        datum = evolve.random_perturbation(
            cfg["N"], m_x, prof.n, pert["seed"], pert["amplitude"],
            band=pert["band"], kind=pert["shape"],
            normalize=pert["normalize"], k_sob=cfg["K"])
    except ValueError as exc:
        raise _CliError(EXIT_VALIDATION, f"config: {exc}")

    dt_limit = evolve.stable_dt_limit(prof)
    if cfg["dt"] > dt_limit:
        raise _CliError(EXIT_VALIDATION,
                        f"dt = {cfg['dt']} exceeds the explicit-term stability "
                        f"estimate 0.5/rho(Df/k) = {dt_limit:.4g}")

    n_period = cfg["N"]
    stability, (engine,) = _engines(manifest, prof, 256, [n_period], m_x)

    try:
        with manifest.stage("evolution"):
            result = evolve.run_experiment(
                engine, datum, evolve.default_snapshot_times(cfg["t_max"]),
                dt=cfg["dt"], scheme=cfg["scheme"])
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        manifest.counts["blow_up_time"] = exc.t
        manifest.write()
        return EXIT_BLOWUP

    times = result.times
    T = times.size

    # per-snapshot extraction; warp failures are recorded, not fatal
    with manifest.stage("extraction"):
        trace = evolve.modulation_trace(result, k_sob=cfg["K"])

    manifest.artifact(
        "trace.csv", _write_csv,
        ("t", "gamma", "gamma_t", "norm_v_h", "norm_psi_x_h", "norm_psi_t_h",
         "norm_v_l2", "norm_psi_x_l2", "norm_psi_t_l2", "warp_ok"),
        ((_fmt(times[i]), _fmt(trace.gamma[i]), _fmt(trace.gamma_t[i]),
          _fmt(trace.v_h[i]), _fmt(trace.psi_x_h[i]), _fmt(trace.psi_t_h[i]),
          _fmt(trace.v_l2[i]), _fmt(trace.psi_x_l2[i]),
          _fmt(trace.psi_t_l2[i]), str(int(trace.warp_ok[i])))
         for i in range(T)))
    for i in range(T):
        manifest.artifact(f"snapshots/snap_{i:04d}.bin", evolve.write_snapshot,
                          result.snapshots[i], n_period, times[i])

    du = duhamel_exit = None
    if cfg["extraction"]["mode"] in ("duhamel", "both"):
        try:
            with manifest.stage("extraction"):
                du = evolve.extract_modulation_duhamel(result, trace)
        except (ExtractionDivergenceError, PhaseWarpError) as exc:
            # a diverging iteration or a phase warp that stops being invertible
            print(f"Duhamel extraction failed: {exc}", file=sys.stderr)
            manifest.counts["duhamel_sweeps"] = getattr(exc, "iterations", None)
            duhamel_exit = EXIT_DIVERGENCE
        if du is not None:
            psi_l2 = grids.norm_l2(du.psi_vals[..., None], n_period)
            v_l2 = grids.norm_l2(du.v_vals, n_period)
            manifest.artifact(
                "trace_duhamel.csv", _write_csv,
                ("t", "gamma", "norm_psi_l2", "norm_v_l2"),
                ((_fmt(times[i]), _fmt(du.gamma[i]), _fmt(psi_l2[i]),
                  _fmt(v_l2[i])) for i in range(T)))
            manifest.counts["duhamel_sweeps"] = du.iterations

    with manifest.stage("checks"):
        delta_n = bloch.subharmonic_spectrum(prof, n_period).delta
        checks = evolve.run_checks(
            result, trace, delta_n, pert["amplitude"],
            duhamel=du if cfg["extraction"]["mode"] == "both" else None)
    if "route_agreement" in checks and pert["amplitude"] > 0:
        # the name schema 1 gave the (relative) value, which readers of the
        # report use
        checks["route_agreement"]["relative"] = \
            checks["route_agreement"]["value"]
    report = {
        "schema_version": _SCHEMA_VERSIONS["experiment_report"],
        "n_snapshots": T,
        "extraction_failures": int((~trace.warp_ok).sum()),
        "scheme": cfg["scheme"],
        "E0": pert["amplitude"],
        "delta_N": delta_n,
        **_engine_health(engine),
        **_hill_evidence(stability),
        "snapshot_tail": float(np.max(result.snapshot_tail)),
        **checks,
    }
    if du is not None:
        report["duhamel"] = {
            "iterations": du.iterations,
            "update_norms": list(du.update_norms),
            "tol": evolve.DUHAMEL_TOL,
            "v2_defect": du.v2_defect,
        }

    manifest.artifact("report.json", _write_json, report)
    manifest.counts["time_steps"] = result.n_steps
    manifest.counts["snapshots"] = T
    manifest.write()

    print(f"simulated {times[-1]:g} time units ({result.n_steps} steps), "
          f"{T} snapshots -> {manifest.out_dir}")
    print("checks: " + ", ".join(
        f"{name}={'n/a' if check['pass'] is None else check['pass']}"
        for name, check in sorted(checks.items())))
    if duhamel_exit is not None:
        return duhamel_exit
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    parser = _Parser(prog="wavetrain",
                     description="Periodic wave trains of reaction-diffusion "
                                 "systems: profiles, spectra, and nonlinear "
                                 "modulation experiments.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("profile", help="solve a wave-train profile",
                       parents=[], add_help=True)
    p.add_argument("--model", required=True, help="model id (rgl, nagumo, ...)")
    p.add_argument("--param", action="append", metavar="KEY=VAL",
                   help="model/guess parameter (repeatable)")
    p.add_argument("--modes", type=int, default=32,
                   help="the profile's storage truncation: Fourier modes "
                        "|l| <= MODES (the spectra derive their own, at "
                        "most MODES)")
    p.add_argument("--guess", default="analytic",
                   help="'analytic' or 'file:PATH'")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default="profile.json")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="Bloch spectrum and stability verdict")
    p.add_argument("--profile", required=True)
    p.add_argument("--scan", type=int, default=256)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gap", help="subharmonic spectral gaps delta_N")
    p.add_argument("--profile", required=True)
    p.add_argument("--N", required=True, help="single N or comma list")
    p.add_argument("--out-dir", default=None, dest="out_dir")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("linear-decay",
                       help="decay of semigroup parts for random data")
    p.add_argument("--profile", required=True)
    p.add_argument("--N", required=True, help="comma list of periods")
    p.add_argument("--tmax", type=float, default=500.0)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--l", type=int, default=0, help="spatial derivative order")
    p.add_argument("--m", type=int, default=0, help="temporal derivative order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_linear_decay)

    p = sub.add_parser("sum-bounds",
                       help="polynomial bounds for lattice heat sums")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--r", default="0,1,2", help="comma list of weights")
    p.add_argument("--N", default="4,8,16,32,64", help="comma list of periods")
    p.add_argument("--tmax", type=float, default=1e4)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_sum_bounds)

    p = sub.add_parser("simulate", help="nonlinear experiment with extraction")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--extract", choices=("projection", "duhamel", "both"),
                   default=None, help="override the config extraction mode")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a command is required")
        return args.func(args, argv)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (ModelParameterError, AdmissibilityError, ResolutionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ExtractionDivergenceError as exc:
        print(f"extraction divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except WavetrainError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
