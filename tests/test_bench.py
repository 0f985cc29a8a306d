"""Smoke run of the benchmark: every workload, traced, passes its output gate.

The traced run rebinds library names from outside the library, so a
renamed or removed name fails here rather than in a timed run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["edges-train", "wide-kernel-train", "baselines-infer"])
def test_traced_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # a training step pools each LPSC input once: the backward reuses the
    # forward's pooled tensor
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["lpsc.pool_calls"] == (0 if workload == "baselines-infer" else 1)
    # the traced names stay on their paths: the LPSC block convolution runs
    # through lpsc's conv2d_raw and conv2d_raw_backward, the baselines' three
    # convolutions through their own conv2d_raw, and neither through the other's
    lpsc_spans = metrics["lpsc.block_conv_ms"], metrics["lpsc.block_conv_bwd_ms"]
    if workload == "baselines-infer":
        assert lpsc_spans == (0, 0) and metrics["conv.fwd_calls"] == 3
    else:
        assert min(lpsc_spans) > 0 and metrics["conv.fwd_calls"] == 0
