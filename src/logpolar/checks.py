"""Self-checks: path equivalence, algebraic identities, gradient probes.

These drive the ``check`` CLI subcommand and the acceptance suite. The
two forward paths under comparison stay independent implementations; the
helpers here only orchestrate running both and measuring disagreement.
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


def equivalence_sweep(seed=0, full=True, inputs_per_config=10):
    """Fast path versus reference path over the standard sweep."""
    hw, cin, cout = _SWEEP_SHAPE
    results = []
    for idx, config in enumerate(sweep_configs(full)):
        rng = np.random.default_rng(seed + idx)
        weights = _random_weights(config, cin, cout, rng)
        worst = 0.0
        for _ in range(inputs_per_config):
            x = rng.normal(size=(hw, hw, cin))
            fast = lpsc_forward_fast(x, config, weights)
            ref = lpsc_forward_reference(x, config, weights)
            worst = max(worst, _rel_error(fast, ref))
        results.append(
            CheckResult(name=f"equivalence {_config_name(config)}", value=worst, threshold=EQUIVALENCE_TOL)
        )
    return results


def sum_mean_identity_sweep(seed=0, full=True, inputs_per_config=2):
    """Sum-mode forward with weights w == mean-mode with weights w * N."""
    hw, cin, cout = _SWEEP_SHAPE
    results = []
    seen = set()
    for idx, config in enumerate(sweep_configs(full)):
        key = (config.kernel_size, config.levels_r, config.levels_theta, config.growth,
               config.center_conv, config.stride)
        if key in seen:  # collapse the mode axis; the identity spans it
            continue
        seen.add(key)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeometryWarning)
            mean_cfg = replace(config, pooling_mode="mean")
            sum_cfg = replace(config, pooling_mode="sum")
        rng = np.random.default_rng(seed + 7000 + idx)
        weights = _random_weights(config, cin, cout, rng)
        mask = build_mask(mean_cfg)
        populations = np.maximum(mask.counts, 1)[:, :, None, None]
        scaled = LpscWeights(
            center=weights.center.copy(),
            regions=weights.regions * populations,
            bias=weights.bias.copy(),
        )
        worst = 0.0
        for _ in range(inputs_per_config):
            x = rng.normal(size=(hw, hw, cin))
            got = lpsc_forward_fast(x, sum_cfg, weights)
            want = lpsc_forward_fast(x, mean_cfg, scaled)
            worst = max(worst, _rel_error(got, want))
        results.append(
            CheckResult(
                name=f"sum=mean*N {_config_name(config)}", value=worst, threshold=IDENTITY_TOL
            )
        )
    return results


def _finite_difference(f, x, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


def gradient_checks(seed=0):
    """Finite-difference probes of the operator backward in every mode."""
    hw, cin, cout = 8, 2, 2
    results = []
    pairs = itertools.product(("mean", "sum", "max"), (True, False))
    for idx, (mode, center) in enumerate(pairs):
        config = LpscConfig(
            kernel_size=5,
            levels_r=2,
            levels_theta=6,
            growth=2,
            stride=2,
            padding=2,
            pooling_mode=mode,
            center_conv=center,
        )
        rng = np.random.default_rng(seed + idx)
        x = rng.uniform(0.1, 1.0, size=(hw, hw, cin))
        weights = _random_weights(config, cin, cout, rng)
        out = lpsc_forward_fast(x, config, weights)
        probe = rng.normal(size=out.shape)
        gx, gw = lpsc_backward(x, config, weights, probe)

        fx = _finite_difference(
            lambda v: float(np.sum(lpsc_forward_fast(v, config, weights) * probe)), x
        )
        fregions = _finite_difference(
            lambda v: float(
                np.sum(
                    lpsc_forward_fast(x, config, LpscWeights(weights.center, v, weights.bias))
                    * probe
                )
            ),
            weights.regions,
        )
        worst = max(_rel_error(gx, fx), _rel_error(gw.regions, fregions))
        name = f"gradient {mode} {'center' if center else 'nocenter'}"
        results.append(CheckResult(name=name, value=worst, threshold=GRADIENT_TOL))
    return results
