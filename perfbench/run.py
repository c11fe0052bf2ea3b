"""quatlink benchmark: seeded Monte Carlo experiments, timed end to end.

    python3 perfbench/run.py --workload siso-ref --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Each experiment is one
`quatlink run` invocation, made through `quatlink.cli.main` in a fresh
interpreter (child.py) with the package taken from `src/`.  Experiments
repeat, one at a time, for about `--seconds` seconds (at least
MIN_EXPERIMENTS), and every one is checked for correctness (check.py).

--trace 0 prints the end-to-end metrics, medians over the experiments:
  symbols_per_s  runs x streams x symbols per run, over the time from the
                 entry to cli.main until every output file is written
  setup_s        fresh interpreter to the start of run_experiment: imports,
                 argument parsing and config validation
  peak_rss_mb    peak resident memory of the experiment and its pool workers
--trace 1 makes one untraced and two traced experiments and prints the
per-layer metrics of tracer.py; the exact counters must agree between the
two traced experiments.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  failed/attempted is the
failed fraction: an experiment fails on a nonzero exit, a traceback or a
miss in the correctness gate.  The exit code is 0 only when nothing failed.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_SEED = 0
MIN_EXPERIMENTS = 3
# the whole invocation must end within 180 s
DEADLINE_S = 170.0
# one BLAS thread per process: siso-w2 runs two workers on a 2-core box
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    mode: str
    runs: int
    symbols: int
    workers: int

    @property
    def streams(self) -> int:
        return 2 if self.mode == "mimo" else 1

    def quatlink_args(self, seed: int, workers: int, out_dir: Path) -> list[str]:
        """Every config field spelled out, so a change of defaults cannot change the workload."""
        return [
            "run", "--mode", self.mode, "--taps", "4", "--eq-len", "15", "--snr-db", "20.0",
            "--snr-ref", "receiver", "--runs", str(self.runs), "--symbols", str(self.symbols),
            "--mu", "0.01", "--delay", "7", "--seed", str(seed), "--normalize-channel", "on",
            "--workers", str(workers), "--out", str(out_dir),
        ]  # fmt: skip


# The reference configs (200 runs x 5000 symbols) cut to whole 64-run chunks
# of a few seconds, so that a run holds several experiments: siso-ref is one
# chunk, mimo-ref one 128-lane kernel batch, and siso-w2 two chunks, one per
# worker, each the same work as siso-ref's.  Reasons are in BENCHMARK.json.
WORKLOADS = {
    "siso-ref": Workload("siso", 64, 5000, 1),
    "mimo-ref": Workload("mimo", 64, 5000, 1),
    "siso-short": Workload("siso", 256, 400, 1),
    "siso-w2": Workload("siso", 128, 5000, 2),
    # not in BENCHMARK.json: small configs for selftest.py (smoke-siso has two chunks)
    "smoke-siso": Workload("siso", 72, 60, 2),
    "smoke-mimo": Workload("mimo", 4, 200, 1),
}


@dataclass
class Experiment:
    ok: bool
    problems: list
    outputs: dict
    report: dict
    spawned: float

    @property
    def seconds(self) -> float:
        return self.report["marks"]["end"] - self.report["marks"]["main"]

    @property
    def setup_s(self) -> float:
        return self.report["marks"]["run_experiment"] - self.spawned


def _child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    env.pop("QUATLINK_SEED", None)
    return env


def _run_child(args: list[str], root: Path, deadline: float) -> tuple[int, str]:
    """Run a child interpreter in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )  # fmt: skip
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, "timed out"
    return proc.returncode, stderr


def run_experiment(workload: Workload, seed: int, workers: int, trace: bool, work: Path,
                   root: Path, deadline: float) -> Experiment:
    """One experiment in a fresh interpreter; outputs read back, not yet checked."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    args = [str(BENCH_DIR / "child.py"), str(report_path), "1" if trace else "0", "--"]
    args += workload.quatlink_args(seed, workers, out_dir)
    spawned = time.perf_counter()
    code, stderr = _run_child(args, root, deadline)
    if code != 0:
        return Experiment(False, [f"exit code {code}: {stderr.strip()[-2000:]}"], {}, {}, spawned)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if not Path(report["module"]).resolve().is_relative_to(root / "src"):
        return Experiment(False, [f"quatlink imported from {report['module']}, not from src/"], {}, report, spawned)
    try:
        outputs = check.read_outputs(out_dir)
    except OSError as exc:
        return Experiment(False, [f"missing output: {exc}"], {}, report, spawned)
    return Experiment(True, [], outputs, report, spawned)


class Gate:
    """Checks each experiment of one benchmark invocation and counts failures."""

    def __init__(self, workload_name: str, seed: int):
        self.golden = check.load_golden(workload_name)
        self.seed = seed
        self.first = None  # outputs of the first experiment, for byte identity
        self.attempted = 0
        self.failed = 0

    def admit(self, experiment: Experiment, label: str) -> None:
        self.attempted += 1
        problems = list(experiment.problems)
        if experiment.ok:
            if self.seed == GOLDEN_SEED:
                problems += check.golden_problems(experiment.outputs, self.golden)
            else:
                problems += check.layout_problems(experiment.outputs, self.golden, self.seed)
            if self.first is None:
                self.first = experiment.outputs
            else:
                problems += check.identity_problems(experiment.outputs, self.first, "the first experiment")
        experiment.ok = not problems
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


def _environment(root: Path, seed: int, deadline: float) -> dict:
    """Versions and settings the numbers depend on; also imports (and byte-compiles) the package."""
    probe = (
        "import json, platform, numpy, quatlink; cfg = numpy.show_config(mode='dicts');"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {});"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': f\"{blas.get('name', '?')} {blas.get('version', '?')}\", 'quatlink': quatlink.__file__}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env=_child_env(root), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import quatlink from src/: {proc.stderr.strip()[-2000:]}")
    env = json.loads(proc.stdout)
    env.update(nproc=os.cpu_count(), threads=",".join(f"{k}={v}" for k, v in THREAD_ENV.items()),
               commit=_commit(root), seed=seed, machine=platform.machine())  # fmt: skip
    return env


def _commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git; 'unknown' elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_name = ref[len("ref: ") :]
    loose = root / ".git" / ref_name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref_name):
                return line.split(" ", 1)[0]
    return "unknown"


def measure(workload: Workload, seed: int, seconds: float, gate: Gate, work: Path, root: Path,
            deadline: float) -> dict:
    """End-to-end metrics: medians over repeated untraced experiments."""
    if workload.workers > 1:
        # untimed --workers 1 reference: the pool must not change a byte
        reference = run_experiment(workload, seed, 1, False, work, root, deadline)
        gate.admit(reference, "workers=1 reference")
    symbols = workload.runs * workload.streams * workload.symbols
    timed = []
    started = time.perf_counter()
    while True:
        experiment = run_experiment(workload, seed, workload.workers, False, work, root, deadline)
        gate.admit(experiment, f"experiment {len(timed) + 1}")
        if experiment.ok:
            timed.append(experiment)
            print(f"experiment {len(timed)}: {experiment.seconds:.3f} s, {symbols / experiment.seconds:.1f} symbols/s,"
                  f" setup {experiment.setup_s:.4f} s, peak rss {experiment.report['peak_rss_mb']:.1f} MB")
        if not timed and gate.failed >= MIN_EXPERIMENTS:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(e.seconds + e.setup_s for e in timed) if timed else 0.0
        # start another only if it is expected to end nearer to `seconds` than this one did
        if len(timed) >= MIN_EXPERIMENTS and elapsed + typical / 2 > seconds:
            break
        if time.perf_counter() + 2 * typical > deadline:
            break
    if not timed:
        return {}
    return {
        "symbols_per_s": statistics.median(symbols / e.seconds for e in timed),
        "setup_s": statistics.median(e.setup_s for e in timed),
        "peak_rss_mb": statistics.median(e.report["peak_rss_mb"] for e in timed),
    }


def measure_layers(workload: Workload, seed: int, gate: Gate, work: Path, root: Path, deadline: float) -> dict:
    """Per-layer metrics from two traced experiments, plus the tracing overhead."""
    plain = run_experiment(workload, seed, workload.workers, False, work, root, deadline)
    gate.admit(plain, "untraced experiment")
    traced = []
    for index in range(2):
        experiment = run_experiment(workload, seed, workload.workers, True, work, root, deadline)
        gate.admit(experiment, f"traced experiment {index + 1}")
        if experiment.ok:
            traced.append(tracer.layer_metrics(experiment.report["spans"], experiment.report["counts"]))
    if not plain.ok or len(traced) != 2:
        return {}
    mismatched = [name for name in tracer.EXACT_COUNTERS if traced[0][name] != traced[1][name]]
    if mismatched:
        gate.failed += 1
        print(f"FAILED exact counters differ between traced runs: {', '.join(mismatched)}", file=sys.stderr)
    metrics = {name: statistics.mean((value, traced[1][name])) for name, value in traced[0].items()}
    metrics["trace.overhead_s"] = metrics["cli.busy_s"] - plain.seconds
    return metrics


def _declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED, help="master seed of every experiment")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to keep starting experiments")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd().resolve()
    if not (root / "src" / "quatlink" / "cli.py").is_file():
        print("run from the root of a quatlink source checkout: src/quatlink is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = _declared_metrics(bool(args.trace))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = _environment(root, args.seed, deadline)
        print(f"perfbench {args.workload}: {workload}, trace={args.trace}, seconds={args.seconds:g}")
        print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
        gate = Gate(args.workload, args.seed)
        if args.trace:
            metrics = measure_layers(workload, args.seed, gate, work, root, deadline)
        else:
            metrics = measure(workload, args.seed, args.seconds, gate, work, root, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another invocation's work
            work.parent.rmdir()

    result = {}
    for spec in declared:
        value = metrics.get(spec["name"], 0.0)
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
    print(f"failed_fraction = {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:g} experiments")
    correct = gate.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
