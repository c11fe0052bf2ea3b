"""The benchmark's trace mode, run in-process on a tiny SISO experiment.

`perfbench/run.py --trace 1` installs perfbench/tracer.py's wrappers before
calling `quatlink.cli.main`.  Here the tracer is loaded by path and
installed the same way, after monkeypatch has saved every attribute it
replaces and the harness's process pool, so the untraced functions are back
in place when the test ends.
"""

import importlib
import importlib.util
from pathlib import Path

from quatlink import cli, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ARGV = ["run", "--runs", "3", "--symbols", "200", "--seed", "4"]
OUTPUTS = ("learning_curve.csv", "summary.txt")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_keeps_its_outputs_and_nests_the_noise(tmp_path, monkeypatch):
    assert cli.main(ARGV + ["--out", str(tmp_path / "plain")]) == 0
    tracing = _load_tracer()
    for module_name, attribute, _, _ in tracing.BINDINGS:
        module = importlib.import_module(f"quatlink.{module_name}")
        monkeypatch.setattr(module, attribute, getattr(module, attribute))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert cli.main(ARGV + ["--out", str(tmp_path / "traced")]) == 0

    for name in OUTPUTS:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    names = [span[0] for span in tracer.spans]
    noise = [span for span in tracer.spans if span[0] == "channel.noise"]
    assert names.count("channel.apply_mimo") == 1  # one filter slice holds all three runs
    assert len(noise) == 3  # one noise draw per run
    assert all(tracer.spans[parent][0] == "channel.apply_mimo" for _, _, _, parent in noise)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["harness.chunks"] == 1 and metrics["channel.busy_s"] > 0.0
    # the Wiener stage solves and scores its one slice in C: one solve call, and no dot_left
    assert names.count("wiener.solve") == 1 and names.count("linalg.dot_left") == 0
