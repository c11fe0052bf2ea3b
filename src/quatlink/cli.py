"""Command-line front end.

`quatlink run` parses a configuration (flags override config-file values,
which override defaults), runs the experiment, and writes three files into
the output directory:

* ``learning_curve.csv`` (or ``learning_curve_streamK.csv`` per stream in
  MIMO mode, the suffix that also names the summary metrics): header
  ``iteration,mse_db``, one row per post-warm-up iteration.
* ``summary.txt``: flat ``key=value`` metrics followed by a config echo.
* ``manifest.txt``: artifact version, timestamp, output file names, and the
  same config echo.

The config echo uses exactly the config-file syntax, so an emitted summary
or manifest can be fed back through the same parser to recover the identical
configuration.  Identical configurations (including the master seed) produce
byte-identical CSV and summary files; only the manifest carries a timestamp.
"""

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ExperimentFailedError
from .harness import (
    ExperimentConfig,
    MODE_MIMO,
    MODE_SISO,
    SNR_REF_RECEIVER,
    SNR_REF_TRANSMITTER,
    run_experiment,
    summarize,
)

SEED_ENV_VAR = "QUATLINK_SEED"
DEFAULT_OUT_DIR = "quatlink_out"

_DEFAULTS = ExperimentConfig()

# One row per config field, in the config echo order: field, CLI flag (None
# for file-only fields), value type (a tuple lists the allowed strings),
# metavar, and help text, whose {} is filled with the default.
_FIELDS = (
    ("mode", "--mode", (MODE_SISO, MODE_MIMO), None, "experiment layout (default: {})"),
    ("num_channel_taps", "--taps", int, "N", "channel tap count (default: {})"),
    ("equalizer_length", "--eq-len", int, "L", "equalizer length (default: {})"),
    ("snr_db", "--snr-db", float, "X", "SNR in dB, 'inf' disables noise (default: {})"),
    ("snr_reference_point", "--snr-ref", (SNR_REF_RECEIVER, SNR_REF_TRANSMITTER), None,
     "where the SNR is referenced (default: {})"),
    ("num_runs", "--runs", int, "N", "Monte Carlo runs (default: {})"),
    ("symbols_per_run", "--symbols", int, "N", "symbols per run (default: {})"),
    ("step_size", "--mu", float, "X", "QLMS step size (default: {})"),
    ("delay", "--delay", int, "D", "equalization delay in symbols (default: {})"),
    ("master_seed", "--seed", int, "S", f"master seed; falls back to ${SEED_ENV_VAR}, then {{}}"),
    ("normalize_channel", "--normalize-channel", bool, None, "rescale channels to exactly unit energy (default: {})"),
    ("mimo_tx", None, int, None, None),
    ("mimo_rx", None, int, None, None),
)
_TYPES = {field: kind for field, _, kind, _, _ in _FIELDS}
_FLAGS = {field: flag for field, flag, _, _, _ in _FIELDS}


@dataclass(frozen=True)
class CliInvocation:
    config: ExperimentConfig
    out_dir: Path
    workers: int


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_field(name: str, raw: str):
    raw, kind = raw.strip(), _TYPES[name]
    if kind is bool:
        if raw not in ("on", "off"):
            raise ValueError(f"{name}: expected 'on' or 'off', got {raw!r}")
        return raw == "on"
    if isinstance(kind, tuple):
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def config_to_lines(config: ExperimentConfig) -> list[str]:
    """Config echo: one key=value line per field, in declaration order."""
    return [f"{name}={_format_value(getattr(config, name))}" for name in _TYPES]


def parse_kv_lines(text: str) -> dict[str, str]:
    """Parse flat key=value text; blank lines and '#' comments are skipped."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def config_values_from_mapping(mapping: dict[str, str], ignore_unknown: bool = False) -> dict:
    """Typed config fields found in a key=value mapping.

    With ignore_unknown=False any key that is not a config field is an error;
    with True extra keys (summary metrics, manifest metadata) are skipped.
    """
    values = {}
    unknown = []
    for key, raw in mapping.items():
        if key in _TYPES:
            values[key] = _parse_field(key, raw)
        else:
            unknown.append(key)
    if unknown and not ignore_unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="quatlink",
        description="Quaternion-valued link simulations: adaptive equalization and MIMO separation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run an experiment and write CSV/summary/manifest files")
    for field, flag, kind, metavar, text in _FIELDS:
        if flag is None:
            continue
        choices = ("on", "off") if kind is bool else kind if isinstance(kind, tuple) else None
        run.add_argument(
            flag,
            dest=field,
            type=None if choices else kind,
            choices=choices,
            metavar=metavar,
            help=text.format(_format_value(getattr(_DEFAULTS, field))),
        )
    run.add_argument("--out", metavar="DIR", help=f"output directory (default: {DEFAULT_OUT_DIR})")
    run.add_argument("--config", metavar="PATH", help="key=value config file; flags override it")
    run.add_argument("--workers", type=int, metavar="N", help="worker processes for the Monte Carlo runs (default: 1)")
    return parser, run


def parse_args(argv) -> CliInvocation:
    """Resolve argv into a validated invocation; exits with a usage error on bad input."""
    parser, run_parser = build_parser()
    ns = parser.parse_args(list(argv))

    values: dict = {}
    if ns.config is not None:
        try:
            text = Path(ns.config).read_text(encoding="utf-8")
        except OSError as exc:
            run_parser.error(f"--config: cannot read {ns.config}: {exc}")
        try:
            values.update(config_values_from_mapping(parse_kv_lines(text)))
        except ValueError as exc:
            run_parser.error(f"--config: {exc}")

    for field, kind in _TYPES.items():
        value = getattr(ns, field, None)
        if value is not None:
            values[field] = _parse_field(field, value) if kind is bool else value

    if "master_seed" not in values and SEED_ENV_VAR in os.environ:
        try:
            values["master_seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            run_parser.error(f"${SEED_ENV_VAR}: expected an integer, got {os.environ[SEED_ENV_VAR]!r}")

    config = dataclasses.replace(_DEFAULTS, **values)
    try:
        config.validate()
    except ValueError as exc:
        message = str(exc)
        field = message.split(":", 1)[0]
        flag = _FLAGS.get(field)
        run_parser.error(message if flag is None else message.replace(field, flag, 1))

    workers = 1 if ns.workers is None else ns.workers
    if workers < 1:
        run_parser.error("--workers: must be at least 1")
    return CliInvocation(config=config, out_dir=Path(ns.out or DEFAULT_OUT_DIR), workers=workers)


def emit_learning_curve_csv(curve, path: Path) -> None:
    """Write `iteration,mse_db` rows for a LearningCurve; LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("iteration,mse_db\n")
        for iteration, value in enumerate(curve.mse_per_iteration):
            stream.write(f"{iteration},{_format_value(float(value))}\n")


def _stream_suffixes(config: ExperimentConfig) -> list[str]:
    """Per-stream name suffixes, keyed on the mode: none for SISO's one stream,
    ``_streamK`` for each MIMO stream, even when it is the only one."""
    if config.mode == MODE_MIMO:
        return [f"_stream{s}" for s in range(config.mimo_tx)]
    return [""]


def _summary_lines(result, config: ExperimentConfig) -> list[str]:
    lines = [f"runs_diverged={result.runs_diverged}"] if config.mode == MODE_MIMO else []
    for suffix, record in zip(_stream_suffixes(config), summarize(result), strict=True):
        lines.append(f"steady_state_db{suffix}={_format_value(record.steady_state_db)}")
        lines.append(f"convergence_iteration{suffix}={record.convergence_iteration}")
        lines.append(f"ser{suffix}={_format_value(record.symbol_error_rate)}")
        if record.wiener_mse_db is not None:
            lines.append(f"wiener_mse_db{suffix}={_format_value(record.wiener_mse_db)}")
        lines.append(f"runs_diverged{suffix}={record.runs_diverged}")
    return lines + config_to_lines(config)


def emit_summary(result, config: ExperimentConfig, path: Path) -> None:
    """Flat key=value record: metrics first, then the config echo."""
    path.write_text("\n".join(_summary_lines(result, config)) + "\n", encoding="utf-8")


def emit_manifest(config: ExperimentConfig, output_names: list[str], path: Path) -> None:
    lines = [
        "artifact=quatlink",
        f"version={__version__}",
        f"created_utc={datetime.now(timezone.utc).isoformat(timespec='seconds')}",
    ]
    lines += [f"output{index}={name}" for index, name in enumerate(output_names)]
    lines += config_to_lines(config)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_outputs(result, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    curve_names = [f"learning_curve{suffix}.csv" for suffix in _stream_suffixes(config)]
    for name, curve in zip(curve_names, result.curves):
        emit_learning_curve_csv(curve, out_dir / name)
        written.append(out_dir / name)
    emit_summary(result, config, out_dir / "summary.txt")
    written.append(out_dir / "summary.txt")
    emit_manifest(config, curve_names + ["summary.txt"], out_dir / "manifest.txt")
    written.append(out_dir / "manifest.txt")
    return written


def main(argv=None) -> int:
    invocation = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        result = run_experiment(invocation.config, workers=invocation.workers)
    except ExperimentFailedError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    try:
        written = write_outputs(result, invocation.config, invocation.out_dir)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    suffixes = _stream_suffixes(invocation.config)
    steady = ", ".join(f"{x[1:]} {c.steady_state_db:.2f} dB".lstrip() for x, c in zip(suffixes, result.curves))
    print(f"steady state: {steady}")
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
