"""The benchmark's workloads: command sequences, inputs and output checks.

Every workload is a fixed sequence of ``wavetrain`` commands, run in process
through ``wavetrain.cli.main(argv)``. One operation is one command plus the
check of its outputs. The checks compare the quantities a command reports
with ``references.json`` (recorded at this package's reference inputs) using
one tolerance per quantity; on a perturbation seed other than the one the
references were recorded with, seed-dependent quantities are held to the
acceptance bands of ``tests/test_acceptance.py`` instead.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# The test fixtures' wave (rgl, q = 0.3, m_f = 32) and the scalar nagumo
# wave (alpha = 0.25), whose verdict is False.
PROFILES = {
    "rgl": ["--model", "rgl", "--param", "q=0.3", "--modes", "32"],
    "nagumo": ["--model", "nagumo", "--param", "alpha=0.25", "--modes", "32"],
}
RGL_AMPLITUDE = math.sqrt(1.0 - 0.3 ** 2)

# Sizes chosen so that one pass of each workload fits a run (see NOTES.md).
SPECTRUM_SCAN = 16
GAP_N = (2, 4, 8)
DECAY_ARGS = ["--N", "64", "--tmax", "410"]

# ACCEPTANCE 10: short run, both extraction routes.
DUHAMEL_CONFIG = {
    "model": "rgl", "N": 16, "dt": 0.01, "t_max": 20.0, "scheme": "imex",
    "K": 3,
    "perturbation": {"shape": "fourier", "amplitude": 1e-5, "band": 16,
                     "normalize": "sup"},
    "extraction": {"mode": "both"},
}
# ACCEPTANCE 09 / README reference run: N = 16 to t = 4 N^2, projection.
SIMULATE_CONFIG = {
    "model": "rgl", "N": 16, "dt": 0.01, "t_max": 1024.0, "scheme": "imex",
    "K": 3,
    "perturbation": {"shape": "fourier", "amplitude": 1e-2, "band": 16,
                     "normalize": "l1_sobolev"},
    "extraction": {"mode": "projection"},
}

# One tolerance per checked quantity: (kind, value), kind "abs" or "rel".
TOLERANCES = {
    "verdict": ("abs", 0.0),
    "a": ("abs", 1e-8),
    "d": ("rel", 1e-6),
    "xi_1": ("rel", 1e-9),
    "max_nonzero_real": ("rel", 1e-6),
    "delta_N": ("rel", 1e-6),
    "slope_sp": ("abs", 1e-6),
    "slope_stilde": ("abs", 1e-6),
    "gamma_inf": ("rel", 1e-6),
}
ROUTE_AGREEMENT_BAND = 1e-3          # ACCEPTANCE 10
V2_DEFECT_BAND = 10.0 * 1e-8         # ACCEPTANCE 10: 10 x extraction tol
PROFILE_RESIDUAL_BAND = 1e-10        # ACCEPTANCE 01
AMPLITUDE_BAND = 1e-8                # ACCEPTANCE 01


@dataclass
class Command:
    """One ``wavetrain`` invocation and where its outputs land."""

    kind: str           # timing bucket: profile/spectrum/gap/decay/duhamel/simulate
    label: str          # key into the references
    argv: list
    output: Path        # file or directory the command writes
    seed_dependent: tuple = ()   # quantities that change with the seed


@dataclass
class Workload:
    name: str
    ref_seed: int
    profiles: tuple     # solved during set-up

    def setup_commands(self, work):
        return [Command("profile", f"{p}.profile",
                        ["profile", *PROFILES[p], "--out",
                         str(work / f"{p}.json")], work / f"{p}.json")
                for p in self.profiles]

    def prepare(self, work, seed):
        """Write the run configurations (inputs derived from the seed)."""
        for name, base in (("duhamel", DUHAMEL_CONFIG),
                           ("simulate", SIMULATE_CONFIG)):
            cfg = json.loads(json.dumps(base))
            cfg["profile"] = str(work / "rgl.json")
            cfg["perturbation"]["seed"] = int(seed)
            cfg["output_dir"] = str(work / name)
            (work / f"{name}.json").write_text(json.dumps(cfg, indent=1))

    def commands(self, work, seed):
        if self.name == "spectral":
            cmds = []
            for p in self.profiles:
                prof = str(work / f"{p}.json")
                cmds += [
                    Command("profile", f"{p}.profile",
                            ["profile", *PROFILES[p], "--out", prof],
                            Path(prof)),
                    Command("spectrum", f"{p}.spectrum",
                            ["spectrum", "--profile", prof, "--scan",
                             str(SPECTRUM_SCAN), "--out-dir",
                             str(work / f"{p}_spectrum")],
                            work / f"{p}_spectrum"),
                    Command("gap", f"{p}.gap",
                            ["gap", "--profile", prof, "--N",
                             ",".join(map(str, GAP_N)), "--out-dir",
                             str(work / f"{p}_gap")],
                            work / f"{p}_gap"),
                ]
            return cmds
        prof = str(work / "rgl.json")
        if self.name == "linear":
            return [
                Command("decay", "rgl.decay",
                        ["linear-decay", "--profile", prof, *DECAY_ARGS,
                         "--seed", str(seed), "--out-dir",
                         str(work / "decay")],
                        work / "decay", ("slope_sp", "slope_stilde")),
                Command("duhamel", "rgl.duhamel",
                        ["simulate", "--config", str(work / "duhamel.json"),
                         "--extract", "both"],
                        work / "duhamel", ("gamma_inf",)),
            ]
        return [Command("simulate", "rgl.simulate",
                        ["simulate", "--config", str(work / "simulate.json")],
                        work / "simulate", ("gamma_inf",))]


WORKLOADS = {
    # Dense Bloch-fiber eigensolves (bloch/fourier); evolve and grids idle.
    "spectral": Workload("spectral", 0, ("rgl", "nagumo")),
    # Semigroup engine at N = 64, then the O(T^2) Duhamel extraction.
    "linear": Workload("linear", 7, ("rgl",)),
    # Time stepping and warp interpolation of the reference nonlinear run.
    "nonlinear": Workload("nonlinear", 0, ("rgl",)),
}


# ---------------------------------------------------------------------------
# quantities reported by each command

def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def quantities(cmd):
    """The checked quantities of a finished command, read from its outputs."""
    out = cmd.output
    if cmd.kind == "profile":
        from wavetrain import profiles
        prof = profiles.load_profile(out)
        q = {"residual_norm": prof.residual_norm}
        if prof.model.id == "rgl":
            q["amplitude"] = prof.amplitude()
        return q
    if cmd.kind == "spectrum":
        rep = _json(out / "stability_report.json")
        q = {"verdict": rep["verdict"], "a": rep["a"], "d": rep["d"],
             "xi_1": rep["xi_1"], "max_nonzero_real": rep["max_nonzero_real"]}
        if not rep["verdict"]:
            # d, a and xi_1 carry no meaning without a critical curve
            q = {"verdict": q["verdict"],
                 "max_nonzero_real": q["max_nonzero_real"]}
        return q
    if cmd.kind == "gap":
        recs = _json(out / "gap_report.json")["records"]
        return {"delta_N": {str(r["N"]): r["delta_N"] for r in recs}}
    if cmd.kind == "decay":
        parts = _json(out / "decay_fit.json")["fits"][0]["parts"]
        return {"slope_sp": parts["sp"]["fitted_exponent"],
                "slope_stilde": parts["stilde"]["fitted_exponent"]}
    rep = _json(out / "report.json")
    q = {"delta_N": rep["delta_N"], "gamma_inf": rep["phase"]["gamma_inf"],
         "anchor_ok": rep["phase"]["pass"],
         "extraction_failures": rep["extraction_failures"]}
    if cmd.kind == "duhamel":
        q["route_agreement"] = rep["route_agreement"]["relative"]
        q["v2_defect"] = rep["duhamel"]["v2_defect"]
    return q


def _close(name, got, want):
    kind, tol = TOLERANCES[name]
    if isinstance(want, bool) or isinstance(got, bool):
        return got == want
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return False
    err = abs(got - want)
    return err <= (tol * abs(want) if kind == "rel" else tol)


def check(cmd, q, refs, on_ref_seed):
    """Problems with a command's quantities; an empty list means it passed."""
    problems = []

    def band(ok, text):
        if not ok:
            problems.append(text)

    if cmd.kind == "profile":
        band(q["residual_norm"] <= PROFILE_RESIDUAL_BAND,
             f"profile residual {q['residual_norm']:.2e}")
        if "amplitude" in q:
            band(abs(q["amplitude"] - RGL_AMPLITUDE) <= AMPLITUDE_BAND,
                 f"amplitude {q['amplitude']!r}")
        return problems
    if cmd.kind == "gap" and cmd.label.startswith("rgl"):
        # ACCEPTANCE 04: delta_N nonincreasing along the nested lattice
        chain = [q["delta_N"][str(n)] for n in GAP_N]
        band(all(a >= b for a, b in zip(chain, chain[1:])),
             f"delta_N not nonincreasing: {chain}")
    if cmd.kind == "decay":
        for name in ("slope_sp", "slope_stilde"):
            band(math.isfinite(q[name]) and q[name] < 0.0,
                 f"{name} {q[name]!r} is not a decay")
    if cmd.kind in ("duhamel", "simulate"):
        band(q["extraction_failures"] == 0,
             f"{q['extraction_failures']} phase-warp failures")
        # ACCEPTANCE 09: phase limit within 10 E0 of its linear prediction
        band(q["anchor_ok"], "gamma_inf outside the anchor band")
    if cmd.kind == "duhamel":
        band(q["route_agreement"] <= ROUTE_AGREEMENT_BAND,
             f"route agreement {q['route_agreement']:.2e}")
        band(q["v2_defect"] <= V2_DEFECT_BAND,
             f"v2_defect {q['v2_defect']:.2e}")

    ref = refs[cmd.label]
    for name, want in ref.items():
        if name in cmd.seed_dependent and not on_ref_seed:
            continue
        got = q.get(name)
        if isinstance(want, dict):
            for key, w in want.items():
                g = None if got is None else got.get(key)
                band(g is not None and _close(name, g, w),
                     f"{name}[{key}] = {g!r}, reference {w!r}")
        else:
            band(got is not None and _close(name, got, want),
                 f"{name} = {got!r}, reference {want!r}")
    return problems


def referenced(q):
    """The subset of ``q`` that goes into references.json."""
    return {name: val for name, val in q.items() if name in TOLERANCES}


def output_files(cmd):
    """Payload files of a command (its manifest excepted), sorted."""
    out = cmd.output
    if out.is_file():
        return [out]
    return sorted(p for p in out.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def output_stats(cmd):
    """(files written including the manifest, payload bytes)."""
    files = output_files(cmd)
    manifest = 0 if cmd.output.is_file() else int(
        (cmd.output / "manifest.json").is_file())
    return len(files) + manifest, sum(p.stat().st_size for p in files)


def distinct_abs_xi(cmd):
    """Distinct |xi| a spectrum or gap command reports on, else 0."""
    if cmd.kind == "spectrum":
        with open(cmd.output / "spectrum.csv", encoding="utf-8") as fh:
            return len({round(abs(float(r["xi"])), 12)
                        for r in csv.DictReader(fh)})
    if cmd.kind == "gap":
        return len({round(abs(math.remainder(2.0 * math.pi * j / n,
                                             2.0 * math.pi)), 12)
                    for n in GAP_N for j in range(n)})
    return 0


def untagged_xi(cmd):
    """Spectrum frequencies where the critical branch was lost."""
    if cmd.kind != "spectrum":
        return 0
    tagged, seen = set(), set()
    with open(cmd.output / "spectrum.csv", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            seen.add(r["xi"])
            if r["branch_tag"] == "critical":
                tagged.add(r["xi"])
    return len(seen - tagged)
