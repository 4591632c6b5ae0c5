"""The benchmark's layer tracer still installs on the package.

``perfbench/tracer.py`` rebinds module functions, a few methods and the
dense kernels by name. A rename or deletion of one of those names breaks the
traced benchmark run; this test catches it without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    from wavetrain import bloch, grids

    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
    finally:
        tracer.uninstall()
    hooked = {(owner, attr) for owner, attr, _ in saved}
    assert (bloch._BranchWalker, "mode_at") in hooked
    assert (grids.GridFunction, "interp") in hooked
    assert (bloch, "subharmonic_spectrum") in hooked
    assert (np.linalg, "inv") in hooked
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr


def test_traced_interp_counts_its_table_bytes():
    # the interp hook reads GridFunction.n_points for the byte count
    from wavetrain import grids

    tracer = _load_tracer().Tracer()
    values = np.ones((4 * 9, 2))
    points = np.linspace(0.0, 4.0, 5)
    try:
        tracer.install()
        got = grids.GridFunction(4, values).interp(points)
    finally:
        tracer.uninstall()
    np.testing.assert_allclose(got, 1.0, atol=1e-14)
    assert tracer.counts["grids.interp.calls"] == 1
    assert tracer.counts["grids.interp_bytes"] == 5 * 36 * 16
