"""Tests of the benchmark itself, on the small internal workloads.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.  The file is
not named test_*.py so that the package's pytest run does not collect it.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import run
import tracer

SMOKE = ("smoke-siso", "smoke-mimo")


def bench(*args: str, cwd: Path | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout


def bench_in_process(*args: str) -> tuple[int, dict]:
    """run.main in this interpreter, so a test can patch what it reads."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


def test_every_metric_printed_with_its_unit():
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in SMOKE:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, stdout = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
            result = json.loads(stdout.strip().splitlines()[-1])
            assert code == 0, stdout
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
            assert list(result["metrics"]) == [m["name"] for m in declared]
            for metric in declared:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
                printed = [line for line in stdout.splitlines() if line.startswith(f"{metric['name']} = ")]
                assert len(printed) == 1 and printed[0].endswith(" " + metric["unit"]), metric
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())


def test_other_seed_passes_on_byte_identity():
    for workload in SMOKE:
        code, result = bench_in_process("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
        assert code == 0 and result["correct"] and result["failed"] == 0, result


def test_perturbed_golden_value_fails():
    def perturb_db(golden):
        key = next(k for k in golden["summary"] if "_db" in k)
        golden["summary"][key] = repr(float(golden["summary"][key]) + 1e-8)

    def perturb_count(golden):
        key = next(k for k in golden["summary"] if k.startswith("convergence_iteration"))
        golden["summary"][key] = str(int(golden["summary"][key]) + 1)

    def perturb_ser(golden):
        key = next(k for k in golden["summary"] if k.startswith("ser"))
        summary = golden["summary"]
        decisions = int(summary["num_runs"]) * (int(summary["symbols_per_run"]) - int(summary["symbols_per_run"]) // 2)
        summary[key] = repr(float(summary[key]) + 1.0 / decisions)

    def perturb_curve(golden):
        curve = next(iter(golden["curves"].values()))
        curve[len(curve) // 2] += 2e-9

    for perturb in (perturb_db, perturb_count, perturb_ser, perturb_curve):
        for workload in SMOKE:

            def load(name, original=check.load_golden):
                golden = original(name)
                perturb(golden)
                return golden

            with patched(check, "load_golden", load):
                code, result = bench_in_process("--workload", workload, "--seconds", "1", "--trace", "0")
            assert code != 0 and not result["correct"], (perturb.__name__, workload)
            assert result["failed"] / result["attempted"] > 0


def _flip(data: bytes, position: int) -> bytes:
    digit = data[position : position + 1]
    assert digit.isdigit()
    return data[:position] + (b"1" if digit != b"1" else b"2") + data[position + 1 :]


def test_perturbed_csv_byte_fails():
    def first_decimal(data):
        # first digit after the decimal point of the first data row
        return data.index(b".", data.index(b"\n")) + 1

    def last_digit(data):
        # last digit of the first data row: below the dB tolerance, caught by byte identity
        return data.index(b"\n", data.index(b"\n") + 1) - 1

    for where, seed, every_experiment in ((first_decimal, "0", True), (last_digit, "0", False), (last_digit, "5", False)):
        for workload in SMOKE:
            calls = []

            def read(out_dir, original=check.read_outputs):
                outputs = original(out_dir)
                calls.append(out_dir)
                if every_experiment or len(calls) == 2:
                    name = next(n for n in outputs if n.endswith(".csv"))
                    outputs[name] = _flip(outputs[name], where(outputs[name]))
                return outputs

            with patched(check, "read_outputs", read):
                code, result = bench_in_process("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0")
            assert code != 0 and result["failed"] > 0, (where.__name__, seed, workload, result)


def test_exact_counter_mismatch_fails():
    calls = []

    def metrics(spans, counts, original=tracer.layer_metrics):
        calls.append(1)
        values = original(spans, counts)
        if len(calls) == 2:
            values["quat.mul.calls"] += 1
        return values

    with patched(tracer, "layer_metrics", metrics):
        code, result = bench_in_process("--workload", "smoke-mimo", "--seconds", "1", "--trace", "1")
    assert code != 0 and result["failed"] == 1 and not result["correct"], result


def test_layer_metrics_do_not_double_count_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["harness.run_experiment", 1.0, 9.0, 0],
        ["channel.apply_mimo", 1.0, 4.0, 1],
        ["channel.convolve", 1.5, 3.5, 2],
        ["quat.mul", 2.0, 3.0, 3],
        ["wiener.solve", 5.0, 8.0, 1],
        ["linalg.solve", 5.5, 7.5, 5],
        ["quat.mul", 6.0, 7.0, 6],
    ]
    m = tracer.layer_metrics(spans, {})
    assert m["channel.busy_s"] == 3.0 and m["channel.self_s"] == 2.0
    assert m["channel.convolve.busy_s"] == 2.0
    assert m["quat.mul.busy_s"] == 2.0 and m["quat.mul.calls"] == 2
    assert m["wiener.busy_s"] == 3.0 and m["wiener.self_s"] == 1.0
    assert m["linalg.solve.busy_s"] == 2.0 and m["linalg.self_s"] == 1.0
    assert m["harness.self_s"] == 2.0 and m["harness.child_coverage"] == 0.75
    assert m["cli.busy_s"] == 10.0 and m["cli.self_s"] == 2.0


def test_fails_without_the_package():
    bare = Path.cwd() / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = bench("--workload", "siso-ref", "--seed", "0", "--seconds", "20", "--trace", "0", cwd=bare)
        assert code != 0 and '"correct"' not in stdout, stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()


def main() -> int:
    failures = 0
    for name, test in [(n, f) for n, f in globals().items() if n.startswith("test_")]:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
