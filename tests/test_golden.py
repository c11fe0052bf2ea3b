"""Golden-output gate: small fixed SISO and MIMO configs against pinned values.

The pinned files and the comparison live in perfbench/ (golden/*.json.gz and
check.golden_problems): every dB figure and curve row to 1e-9 dB, symbol
error counts, convergence iterations and divergence counts exactly, and the
config echo character for character.  Both are read here, never written.
"""

import importlib.util
from pathlib import Path

import pytest

from quatlink import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (mode, runs, symbols, workers) of the smoke workloads in perfbench/run.py;
# smoke-siso is nine 8-run slices, through the pool.
SMOKE = {
    "smoke-siso": ("siso", 72, 60, 2),
    "smoke-mimo": ("mimo", 4, 200, 1),
}


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", PERFBENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_outputs_match_golden(name, tmp_path):
    check = _load_check()
    mode, runs, symbols, workers = SMOKE[name]
    out_dir = tmp_path / "out"
    argv = [
        "run", "--mode", mode, "--taps", "4", "--eq-len", "15", "--snr-db", "20.0",
        "--snr-ref", "receiver", "--runs", str(runs), "--symbols", str(symbols),
        "--mu", "0.01", "--delay", "7", "--seed", "0", "--normalize-channel", "on",
        "--workers", str(workers), "--out", str(out_dir),
    ]  # fmt: skip
    assert cli.main(argv) == 0
    problems = check.golden_problems(check.read_outputs(out_dir), check.load_golden(name))
    assert problems == []
