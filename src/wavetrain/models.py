"""Built-in reaction terms f(u) and their Jacobians.

Each model packages the reaction term of u_t = u_xx + f(u) together with its
exact Jacobian Df(u). Values are vectorized over leading axes: ``f`` maps
(..., n) -> (..., n) and ``df`` maps (..., n) -> (..., n, n).
"""

from __future__ import annotations

import numpy as np

from .errors import ModelParameterError


class ReactionModel:
    """A reaction term with exact Jacobian and validated parameters."""

    def __init__(self, model_id, n, f, df, params=None):
        self.id = model_id
        self.n = n
        self._f = f
        self._df = df
        self.params = dict(params or {})

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return self._f(u)

    def df(self, u):
        u = np.asarray(u, dtype=float)
        return self._df(u)

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"ReactionModel({self.id!r}, n={self.n}" + (f", {ps})" if ps else ")")


def real_ginzburg_landau():
    """Two-component real Ginzburg-Landau reaction (1 - |u|^2) u."""

    def f(u):
        amp = np.add.reduce(u * u, axis=-1, keepdims=True)
        return np.subtract(1.0, amp, out=amp) * u

    def df(u):
        amp = 1.0 - np.sum(u * u, axis=-1)
        eye = np.eye(2)
        outer = u[..., :, None] * u[..., None, :]
        return amp[..., None, None] * eye - 2.0 * outer

    return ReactionModel("rgl", 2, f, df)


def brusselator(a, b):
    """Brusselator kinetics (a - (b+1)u + u^2 v, b u - u^2 v); requires a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ModelParameterError(f"brusselator requires A > 0 and B > 0, got A={a}, B={b}")

    def f(u):
        x, y = u[..., 0], u[..., 1]
        out = np.empty_like(u)
        out[..., 0] = a - (b + 1.0) * x + x * x * y
        out[..., 1] = b * x - x * x * y
        return out

    def df(u):
        x, y = u[..., 0], u[..., 1]
        out = np.empty(u.shape[:-1] + (2, 2))
        out[..., 0, 0] = -(b + 1.0) + 2.0 * x * y
        out[..., 0, 1] = x * x
        out[..., 1, 0] = b - 2.0 * x * y
        out[..., 1, 1] = -(x * x)
        return out

    return ReactionModel("brusselator", 2, f, df, {"A": a, "B": b})


def nagumo(alpha):
    """Scalar bistable nonlinearity u(1-u)(u-alpha); requires 0 < alpha < 1."""
    if not (0.0 < alpha < 1.0):
        raise ModelParameterError(f"nagumo requires 0 < alpha < 1, got alpha={alpha}")

    def f(u):
        x = u[..., 0]
        return (x * (1.0 - x) * (x - alpha))[..., None]

    def df(u):
        x = u[..., 0]
        return (-3.0 * x * x + 2.0 * (1.0 + alpha) * x - alpha)[..., None, None]

    return ReactionModel("nagumo", 1, f, df, {"alpha": alpha})


_FACTORIES = {
    "rgl": (real_ginzburg_landau, ()),
    "brusselator": (brusselator, ("A", "B")),
    "nagumo": (nagumo, ("alpha",)),
}


def make_model(model_id, params=None):
    """Instantiate a built-in model by id string with keyword parameters."""
    key = model_id.lower()
    if key not in _FACTORIES:
        raise ModelParameterError(
            f"unknown model id {model_id!r}; known: {sorted(_FACTORIES)}")
    factory, names = _FACTORIES[key]
    params = dict(params or {})
    missing = [p for p in names if p not in params]
    if missing:
        raise ModelParameterError(f"model {model_id!r} requires parameters {missing}")
    extra = set(params) - set(names)
    if extra:
        raise ModelParameterError(f"model {model_id!r} does not take parameters {sorted(extra)}")
    return factory(*[params[p] for p in names])

