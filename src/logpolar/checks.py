"""Self-checks: path equivalence, algebraic identities, gradient probes.

These drive the ``check`` CLI subcommand and the acceptance suite. The
two forward paths under comparison stay independent implementations; the
helpers here only orchestrate running both and measuring disagreement.
Every check runs through one loop, ``_sweep``: a case's value is the
largest of its errors, taken with ``np.max`` so that a NaN error stays NaN
and fails the check.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DegenerateGeometryWarning, LpscConfig, build_mask
from .lpsc import (
    LpscWeights,
    lpsc_backward,
    lpsc_forward_fast,
    lpsc_forward_reference,
)

__all__ = [
    "CheckResult",
    "sweep_configs",
    "equivalence_sweep",
    "sum_mean_identity_sweep",
    "gradient_checks",
]

EQUIVALENCE_TOL = 1e-10
IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-4
_SWEEP_SHAPE = (16, 3, 4)  # H = W, C_in, C_out of the sweeps' inputs and weights

FULL_SWEEP = {
    "radii": (2, 3, 5),
    "levels_r": (1, 2, 3),
    "levels_theta": (4, 6, 8),
    "growth": (2.0, 3.0),
    "modes": ("mean", "sum"),
    "center": (True, False),
    "strides": (1, 2),
}

QUICK_SWEEP = {
    "radii": (2, 3),
    "levels_r": (1, 2),
    "levels_theta": (4, 6),
    "growth": (2.0,),
    "modes": ("mean", "sum"),
    "center": (True, False),
    "strides": (1, 2),
}


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{self.name}: max_rel={self.value:.3e} (tol {self.threshold:.0e}) {status}"


def _rel_error(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def sweep_configs(full: bool = True):
    """All kernel configurations of the standard comparison sweep.

    Degenerate-geometry warnings are silenced: the sweep intentionally
    visits configurations with empty outer shells.
    """
    grid = FULL_SWEEP if full else QUICK_SWEEP
    axes = ("radii", "levels_r", "levels_theta", "growth", "modes", "center", "strides")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        return [
            LpscConfig(kernel_size=2 * r + 1, levels_r=lr, levels_theta=lt, growth=g, stride=s,
                       padding=r, pooling_mode=mode, center_conv=center)
            for r, lr, lt, g, mode, center, s in itertools.product(*(grid[a] for a in axes))
        ]


def _config_name(config: LpscConfig) -> str:
    return (
        f"size{config.kernel_size} lr{config.levels_r} lt{config.levels_theta} "
        f"g{config.growth:g} {config.pooling_mode} "
        f"{'center' if config.center_conv else 'nocenter'} s{config.stride[0]}"
    )


def _random_weights(config, cin, cout, rng) -> LpscWeights:
    return LpscWeights(
        center=rng.normal(size=(cin, cout)),
        regions=rng.normal(size=(config.levels_r, config.levels_theta, cin, cout)),
        bias=rng.normal(size=cout),
    )


def _sweep(group, cases, threshold, measure):
    """One CheckResult per (name, seed, config) case: the largest of the
    errors that ``measure(config, rng)`` returns, its generator seeded with
    the case's seed. ``np.max`` keeps a NaN, so a NaN error fails."""
    return [
        CheckResult(f"{group} {name}", float(np.max(measure(config, np.random.default_rng(seed)))),
                    threshold)
        for name, seed, config in cases
    ]


def equivalence_sweep(seed=0, full=True):
    """Fast path versus reference path over the standard sweep: 10 random
    inputs per configuration in the full sweep, 2 in the quick one."""
    hw, cin, cout = _SWEEP_SHAPE
    inputs = 10 if full else 2

    def measure(config, rng):
        weights = _random_weights(config, cin, cout, rng)
        errors = []
        for _ in range(inputs):
            x = rng.normal(size=(1, hw, hw, cin))
            fast = lpsc_forward_fast(x, config, weights)
            errors.append(_rel_error(fast, lpsc_forward_reference(x, config, weights)))
        return errors

    cases = [(_config_name(c), seed + idx, c) for idx, c in enumerate(sweep_configs(full))]
    return _sweep("equivalence", cases, EQUIVALENCE_TOL, measure)


def sum_mean_identity_sweep(seed=0, full=True):
    """Sum-mode forward with weights w == mean-mode with weights w * N, on 2
    random inputs per mean-mode configuration of the sweep."""
    hw, cin, cout = _SWEEP_SHAPE

    def measure(config, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeometryWarning)
            sum_cfg = replace(config, pooling_mode="sum")
        weights = _random_weights(config, cin, cout, rng)
        populations = np.maximum(build_mask(config).counts, 1)[:, :, None, None]
        scaled = LpscWeights(weights.center, weights.regions * populations, weights.bias)
        errors = []
        for _ in range(2):
            x = rng.normal(size=(1, hw, hw, cin))
            got = lpsc_forward_fast(x, sum_cfg, weights)
            errors.append(_rel_error(got, lpsc_forward_fast(x, config, scaled)))
        return errors

    cases = [(_config_name(c), seed + 7000 + idx, c)
             for idx, c in enumerate(sweep_configs(full)) if c.pooling_mode == "mean"]
    return _sweep("sum=mean*N", cases, IDENTITY_TOL, measure)


def _finite_difference(f, x, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def gradient_checks(seed=0):
    """Finite-difference probes of the operator backward in every mode."""
    hw, cin, cout = 8, 2, 2

    def measure(config, rng):
        x = rng.uniform(0.1, 1.0, size=(1, hw, hw, cin))
        weights = _random_weights(config, cin, cout, rng)
        probe = rng.normal(size=lpsc_forward_fast(x, config, weights).shape)
        gx, gw = lpsc_backward(x, config, weights, probe)
        fx = _finite_difference(
            lambda v: float(np.sum(lpsc_forward_fast(v, config, weights) * probe)), x
        )
        fregions = _finite_difference(
            lambda v: float(np.sum(
                lpsc_forward_fast(x, config, LpscWeights(weights.center, v, weights.bias)) * probe
            )),
            weights.regions,
        )
        return [_rel_error(gx, fx), _rel_error(gw.regions, fregions)]

    pairs = itertools.product(("mean", "sum", "max"), (True, False))
    cases = [
        (f"{mode} {'center' if center else 'nocenter'}", seed + idx,
         LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, stride=2, padding=2,
                    pooling_mode=mode, center_conv=center))
        for idx, (mode, center) in enumerate(pairs)
    ]
    return _sweep("gradient", cases, GRADIENT_TOL, measure)
