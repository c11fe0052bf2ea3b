"""Correctness gate for one experiment's output directory.

At the golden seed the outputs are compared with values pinned from the
package (golden/<name>.json.gz): every dB figure, summary and learning
curve alike, to 1e-9 dB; symbol-error counts, convergence iterations and
divergence counts exactly; the config echo character for character.  At
any seed, repeats of one workload, and a `--workers 2` run against its
`--workers 1` reference, must produce byte-identical CSV and summary files,
and the files must have the golden layout: the same summary keys, header
and curve lengths, and finite values.
"""

import gzip
import json
import math
from pathlib import Path

DB_TOLERANCE = 1e-9
CSV_HEADER = "iteration,mse_db"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    """Deterministic outputs by file name: the learning-curve CSVs and summary.txt."""
    names = sorted(p.name for p in out_dir.glob("learning_curve*.csv")) + ["summary.txt"]
    return {name: (out_dir / name).read_bytes() for name in names}


def parse_summary(data: bytes) -> dict[str, str]:
    return dict(line.split("=", 1) for line in data.decode("utf-8").splitlines())


def parse_curve(data: bytes) -> list[float]:
    """mse_db column of a learning-curve CSV; rejects a bad header or iteration column."""
    lines = data.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    values = []
    for expected, line in enumerate(lines[1:-1]):
        iteration, value = line.split(",")
        if int(iteration) != expected:
            raise ValueError(f"row {expected} has iteration {iteration}")
        values.append(float(value))
    return values


def load_golden(name: str) -> dict:
    with gzip.open(GOLDEN_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as stream:
        return json.load(stream)


def make_golden(outputs: dict[str, bytes]) -> dict:
    return {
        "summary": parse_summary(outputs["summary.txt"]),
        "curves": {name: parse_curve(data) for name, data in outputs.items() if name.endswith(".csv")},
    }


def _symbol_errors(summary: dict[str, str], ser_key: str) -> int:
    """Error count behind an SER: decisions are the last half of every surviving run."""
    runs = int(summary["num_runs"])
    symbols = int(summary["symbols_per_run"])
    diverged_key = "runs_diverged" + ser_key[len("ser") :]
    decisions = (runs - int(summary[diverged_key])) * (symbols - symbols // 2)
    count = float(summary[ser_key]) * decisions
    if abs(count - round(count)) > 1e-6:
        raise ValueError(f"{ser_key}={summary[ser_key]} is not a whole number of errors in {decisions}")
    return round(count)


def _is_config(key: str) -> bool:
    return not ("_db" in key or key.startswith(("ser", "convergence_iteration", "runs_diverged")))


def layout_problems(outputs: dict[str, bytes], golden: dict, seed: int) -> list[str]:
    """Differences from the golden file set, keys, lengths and config echo
    (apart from the seed); values must be finite."""
    problems = []
    if sorted(outputs) != sorted(list(golden["curves"]) + ["summary.txt"]):
        return [f"output files {sorted(outputs)} differ from the golden set"]
    try:
        summary = parse_summary(outputs["summary.txt"])
        curves = {name: parse_curve(outputs[name]) for name in golden["curves"]}
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    if sorted(summary) != sorted(golden["summary"]):
        problems.append("summary keys differ from the golden keys")
    for name, values in curves.items():
        if len(values) != len(golden["curves"][name]):
            problems.append(f"{name}: {len(values)} rows, golden has {len(golden['curves'][name])}")
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{name}: non-finite value")
    for key, value in summary.items():
        if "_db" in key and not math.isfinite(float(value)):
            problems.append(f"summary {key}={value} is not finite")
        expected = str(seed) if key == "master_seed" else golden["summary"].get(key)
        if _is_config(key) and value != expected:
            problems.append(f"config echo {key}={value}, expected {expected}")
    return problems


def golden_problems(outputs: dict[str, bytes], golden: dict) -> list[str]:
    """Differences from the pinned values at the golden seed (layout checked first)."""
    problems = layout_problems(outputs, golden, int(golden["summary"]["master_seed"]))
    if problems:
        return problems
    summary = parse_summary(outputs["summary.txt"])
    for key, pinned in golden["summary"].items():
        value = summary[key]
        if "_db" in key:
            if not abs(float(value) - float(pinned)) <= DB_TOLERANCE:
                problems.append(f"summary {key}={value}, pinned {pinned}")
        elif key.startswith("ser"):
            try:
                errors, pinned_errors = _symbol_errors(summary, key), _symbol_errors(golden["summary"], key)
            except ValueError as exc:
                problems.append(str(exc))
                continue
            if errors != pinned_errors:
                problems.append(f"{key}: {errors} symbol errors, pinned {pinned_errors}")
        elif value != pinned:
            problems.append(f"summary {key}={value}, pinned {pinned}")
    for name, pinned in golden["curves"].items():
        values = parse_curve(outputs[name])
        worst = max(abs(a - b) for a, b in zip(values, pinned))
        if not worst <= DB_TOLERANCE:
            problems.append(f"{name}: differs from the pinned curve by up to {worst:.3e} dB")
    return problems


def identity_problems(outputs: dict[str, bytes], reference: dict[str, bytes], what: str) -> list[str]:
    """Names of files whose bytes differ from a reference run's."""
    if sorted(outputs) != sorted(reference):
        return [f"file set differs from {what}"]
    return [f"{name} differs from {what}" for name in outputs if outputs[name] != reference[name]]
