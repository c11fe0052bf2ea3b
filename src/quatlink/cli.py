"""Command-line front end.

`quatlink run` resolves a configuration, runs the experiment, and writes
its outputs into the output directory through `write_outputs`, every file
UTF-8 text with LF line endings on every platform:

* ``learning_curve.csv`` (or ``learning_curve_streamK.csv`` per stream in
  MIMO mode, the suffix that also names the summary metrics): header
  ``iteration,mse_db``, one row per post-warm-up iteration.
* ``summary.txt``: flat ``key=value`` metrics followed by a config echo.
* ``manifest.txt``: artifact version, timestamp, output file names, and the
  same config echo.

Each config value arrives as text from one source: a flag, a line of the
``--config`` file or ``$QUATLINK_SEED``, in that order of precedence over the
`ExperimentConfig` defaults.  The text is converted by the field's type as
`ExperimentConfig` declares it, the whole config is checked by
`ExperimentConfig.validate`, and a bad value is a usage error named by its
source: ``--runs: ...``, ``--config: num_runs: ...`` or ``$QUATLINK_SEED: ...``.

The config echo uses exactly the config-file syntax.  A summary or manifest
also carries metric and metadata keys, which ``--config`` rejects; keeping
only the lines whose keys are `ExperimentConfig` fields and passing them to
`config_values_from_mapping` recovers the identical configuration.
Identical configurations (including the master seed) produce byte-identical
CSV and summary files; only the manifest carries a timestamp.
"""

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ExperimentFailedError, KernelBuildError
from .harness import ExperimentConfig, MODE_MIMO, run_experiment, summarize

SEED_ENV_VAR = "QUATLINK_SEED"
DEFAULT_OUT_DIR = "quatlink_out"

_DEFAULTS = ExperimentConfig()
# Each field's type, in declaration order (the config echo order); every one
# is str, int, float or bool, the types `_parse_field` converts.
_TYPES = {field.name: field.type for field in dataclasses.fields(ExperimentConfig)}

# One row per flagged field: field, CLI flag, metavar, and help text, whose {}
# is filled with the default.  The remaining fields are set from a file only.
_FIELDS = (
    ("mode", "--mode", "{siso,mimo}", "experiment layout (default: {})"),
    ("num_channel_taps", "--taps", "N", "channel tap count (default: {})"),
    ("equalizer_length", "--eq-len", "L", "equalizer length (default: {})"),
    ("snr_db", "--snr-db", "X", "SNR in dB, 'inf' disables noise (default: {})"),
    ("snr_reference_point", "--snr-ref", "{receiver,transmitter}", "where the SNR is referenced (default: {})"),
    ("num_runs", "--runs", "N", "Monte Carlo runs (default: {})"),
    ("symbols_per_run", "--symbols", "N", "symbols per run (default: {})"),
    ("step_size", "--mu", "X", "QLMS step size (default: {})"),
    ("delay", "--delay", "D", "equalization delay in symbols (default: {})"),
    ("master_seed", "--seed", "S", f"master seed; falls back to ${SEED_ENV_VAR}, then {{}}"),
    ("normalize_channel", "--normalize-channel", "{on,off}", "rescale channels to exactly unit energy (default: {})"),
)


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
    """Convert one field's text by its declared type; ValueError names the field."""
    raw, kind = raw.strip(), _TYPES[name]
    if kind is bool and raw not in ("on", "off"):
        raise ValueError(f"{name}: expected 'on' or 'off', got {raw!r}")
    try:
        return raw == "on" if kind is bool else kind(raw)
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


def config_values_from_mapping(mapping: dict[str, str]) -> dict:
    """Typed config fields of a key=value mapping; a key that is not a field is an error."""
    unknown = sorted(key for key in mapping if key not in _TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _parse_field(key, raw) for key, raw in mapping.items()}


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="quatlink",
        description="Quaternion-valued link simulations: adaptive equalization and MIMO separation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run an experiment and write CSV/summary/manifest files")
    for field, flag, metavar, text in _FIELDS:
        run.add_argument(flag, dest=field, metavar=metavar, help=text.format(_format_value(getattr(_DEFAULTS, field))))
    run.add_argument("--out", metavar="DIR", help=f"output directory (default: {DEFAULT_OUT_DIR})")
    run.add_argument("--config", metavar="PATH", help="key=value config file; flags override it")
    run.add_argument("--workers", type=int, metavar="N", help="worker processes for the Monte Carlo runs (default: 1)")
    return parser, run


def _attach_negative_numbers(argv) -> list[str]:
    """argv with each ``FLAG -NUMBER`` pair written ``FLAG=-NUMBER``.

    argparse takes a word that starts with '-' for an option unless it is a
    plain negative integer or decimal, so ``--snr-db -1e1`` and ``--mu -inf``
    would lose their value; attached, they parse as ``--snr-db=-1e1`` does.
    """
    flags = {flag for _, flag, _, _ in _FIELDS} | {"--workers"}
    words: list[str] = []
    for word in argv:
        if words and words[-1] in flags and word.startswith("-"):
            try:
                float(word)
            except ValueError:
                pass
            else:
                words[-1] = f"{words[-1]}={word}"
                continue
        words.append(word)
    return words


def parse_args(argv) -> CliInvocation:
    """Resolve argv into a validated invocation; exits with a usage error on bad input."""
    parser, run_parser = build_parser()
    ns = parser.parse_args(_attach_negative_numbers(argv))

    values: dict = {}
    if ns.config is not None:
        try:
            text = Path(ns.config).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            run_parser.error(f"--config: cannot read {ns.config}: {exc}")
        try:
            values = config_values_from_mapping(parse_kv_lines(text))
        except ValueError as exc:
            run_parser.error(f"--config: {exc}")
    # The label that a bad value's error is reported under, per field.
    sources = {field: f"--config: {field}" for field in values}
    texts = {}
    if "master_seed" not in values and SEED_ENV_VAR in os.environ:
        texts["master_seed"] = (f"${SEED_ENV_VAR}", os.environ[SEED_ENV_VAR])
    texts.update((field, (flag, getattr(ns, field))) for field, flag, _, _ in _FIELDS if getattr(ns, field) is not None)

    try:
        for field, (source, raw) in texts.items():
            sources[field] = source
            values[field] = _parse_field(field, raw)
        config = dataclasses.replace(_DEFAULTS, **values)
        config.validate()
    except ValueError as exc:
        field, _, detail = str(exc).partition(": ")
        run_parser.error(f"{sources.get(field, field)}: {detail}")

    workers = 1 if ns.workers is None else ns.workers
    if workers < 1:
        run_parser.error("--workers: must be at least 1")
    return CliInvocation(config=config, out_dir=Path(ns.out or DEFAULT_OUT_DIR), workers=workers)


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


def write_outputs(result, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Write the learning-curve CSVs, ``summary.txt`` and ``manifest.txt`` into
    `out_dir`, and return their paths in that order.

    Each file is built as its lines and written UTF-8 with LF line endings.
    The manifest's ``outputN=`` lines name the curve files and the summary.
    """
    files = {}
    for suffix, curve in zip(_stream_suffixes(config), result.curves, strict=True):
        rows = [f"{i},{_format_value(float(v))}" for i, v in enumerate(curve.mse_per_iteration)]
        files[f"learning_curve{suffix}.csv"] = ["iteration,mse_db"] + rows
    files["summary.txt"] = _summary_lines(result, config)
    manifest = [
        "artifact=quatlink",
        f"version={__version__}",
        f"created_utc={datetime.now(timezone.utc).isoformat(timespec='seconds')}",
    ]
    manifest += [f"output{index}={name}" for index, name in enumerate(files)]
    files["manifest.txt"] = manifest + config_to_lines(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as stream:
            stream.write("\n".join(lines) + "\n")
    return [out_dir / name for name in files]


def main(argv=None) -> int:
    invocation = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        result = run_experiment(invocation.config, workers=invocation.workers)
    except ExperimentFailedError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    except KernelBuildError as exc:
        print(f"cannot build quatlink's C kernels: {exc}", file=sys.stderr)
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
