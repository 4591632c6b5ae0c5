"""Spectral tools for periodic traveling waves of reaction-diffusion systems.

The package solves for wave-train profiles in a scaled co-moving frame,
assembles their Bloch-operator linearizations, verifies diffusive spectral
stability, decomposes the linear semigroup on N-periodic functions into
phase, critically damped, and exponentially damped parts, and runs nonlinear
simulations with modulation (phase/translation) extraction.

Submodules load on first use: ``wavetrain.subharmonic_spectrum`` imports
``wavetrain.bloch``, and a command that never touches the time stepper never
loads ``wavetrain.evolve``.
"""

__version__ = "0.1.0"

# each submodule and the public names it owns
_EXPORTS = {
    "bloch": (
        "CriticalCurve", "HillTruncation", "StabilityReport",
        "SubharmonicSpectrum", "assemble_bloch", "critical_curve",
        "grid_modes", "subharmonic_spectrum", "verify_diffusive_stability",
    ),
    "errors": (
        "AdmissibilityError", "BlowUpError", "BranchTrackingError",
        "DegenerateProfileError", "DiagonalizationError",
        "ExtractionDivergenceError", "ModelParameterError", "PhaseWarpError",
        "ProfileConvergenceError", "ResolutionError", "ShiftFitError",
        "WavetrainError",
    ),
    "evolve": (
        "DuhamelTrace", "ExperimentResult", "ModulationTraceData",
        "crossover_fit", "damping_check", "default_snapshot_times",
        "envelope_slope", "extract_modulation_duhamel", "modulation_frame",
        "modulation_trace", "nonlinear_residual", "phase_convergence",
        "random_perturbation", "read_snapshot", "run_checks",
        "run_experiment", "write_snapshot",
    ),
    "fourier": (),
    "grids": (
        "GridFunction", "bloch_inverse",
        "bloch_transform", "derivative_values", "frequency_lattice",
        "from_profile", "grid_points", "norm_h", "norm_l1", "norm_l2",
        "norm_linf", "resample",
    ),
    "models": (
        "ReactionModel", "brusselator", "make_model", "nagumo",
        "real_ginzburg_landau",
    ),
    "profiles": (
        "WaveProfile", "load_profile", "nagumo_guess",
        "profile_residual", "rgl_analytic", "save_profile", "solve_profile",
    ),
    "semigroup": (
        "CutoffSpec", "DecayMeasurement", "SemigroupEngine",
        "continuum_envelope", "crossover_probe", "default_cutoff",
        "lattice_sum", "measure_decay", "sum_bound_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule here, and `python -X importtime` lists
    # it (importlib.import_module would not)
    __import__(f"{__name__}.{module}")
    submodule = globals()[module]
    return submodule if name == module else getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
