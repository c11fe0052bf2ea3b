"""Tests for the command-line front end and its file formats."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatlink import cli, harness
from quatlink.harness import ExperimentConfig, LearningCurve


def parse(*argv):
    return cli.parse_args(["run", *argv])


def recover_config(text):
    """The README recipe: keep the keys that are config fields, then convert them."""
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    mapping = {key: value for key, value in cli.parse_kv_lines(text).items() if key in fields}
    return ExperimentConfig(**cli.config_values_from_mapping(mapping))


class TestParseArgs:
    def test_bare_run_gives_defaults(self):
        invocation = parse()
        assert invocation.config == ExperimentConfig()
        assert invocation.workers == 1
        assert invocation.out_dir.name == cli.DEFAULT_OUT_DIR

    def test_mode_and_seed(self):
        invocation = parse("--mode", "siso", "--seed", "42")
        assert invocation.config == ExperimentConfig(mode="siso", master_seed=42)

    def test_reference_configuration_flags(self):
        invocation = parse("--snr-db", "20", "--runs", "200", "--eq-len", "15", "--taps", "4")
        config = invocation.config
        assert (config.snr_db, config.num_runs, config.equalizer_length, config.num_channel_taps) == (
            20.0,
            200,
            15,
            4,
        )

    def test_all_documented_flags(self):
        invocation = parse(
            "--mode", "mimo",
            "--taps", "3",
            "--eq-len", "9",
            "--snr-db", "25.5",
            "--snr-ref", "transmitter",
            "--runs", "7",
            "--symbols", "900",
            "--mu", "0.02",
            "--delay", "4",
            "--seed", "99",
            "--normalize-channel", "off",
            "--out", "results",
            "--workers", "2",
        )
        assert invocation.config == ExperimentConfig(
            mode="mimo",
            num_channel_taps=3,
            equalizer_length=9,
            snr_db=25.5,
            snr_reference_point="transmitter",
            num_runs=7,
            symbols_per_run=900,
            step_size=0.02,
            delay=4,
            master_seed=99,
            normalize_channel=False,
        )
        assert invocation.workers == 2
        assert invocation.out_dir.name == "results"

    def test_infinite_snr_accepted(self):
        assert parse("--snr-db", "inf").config.snr_db == np.inf

    def test_zero_equalizer_length_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse("--eq-len", "0")
        assert excinfo.value.code == 2
        assert "--eq-len" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--runs", "abc", "--runs: invalid literal for int()"),
            ("--mu", "inf", "--mu: must be positive and finite"),
            ("--snr-ref", "midpoint", "--snr-ref: must be 'receiver' or 'transmitter'"),
            ("--normalize-channel", "yes", "--normalize-channel: expected 'on' or 'off', got 'yes'"),
            ("--mu", "-1e-3", "--mu: must be positive and finite, got -0.001"),
            ("--snr-db", "-inf", "--snr-db: too low for a finite noise variance, got -inf"),
        ],
        ids=["runs", "mu", "snr-ref", "normalize-channel", "mu-negative-exponent", "snr-db-minus-inf"],
    )
    def test_bad_flag_value_is_usage_error_naming_the_flag(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse(flag, value)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e1", "-1E+1", "-10", "-10.0"])
    def test_negative_value_as_its_own_word(self, value):
        """A negative number in any float form parses as in --snr-db=VALUE, though
        argparse reads a word such as '-1e1' as an option."""
        assert parse("--snr-db", value, "--runs", "3").config == parse(f"--snr-db={value}", "--runs", "3").config
        assert parse("--snr-db", value).config.snr_db == -10.0

    def test_choice_flags_are_stripped(self):
        assert parse("--mode", " mimo ", "--normalize-channel", "off ").config == ExperimentConfig(
            mode="mimo", normalize_channel=False
        )

    def test_error_in_a_field_no_source_set_names_the_field(self, capsys):
        """--symbols 5 leaves the default delay 7 out of range; no --delay was given to blame."""
        with pytest.raises(SystemExit) as excinfo:
            parse("--symbols", "5")
        assert excinfo.value.code == 2
        assert "error: delay: must satisfy 0 <= delay < symbols_per_run, got 7" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse("--bogus", "1")

    def test_bad_choice_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse("--mode", "triplex")
        assert excinfo.value.code == 2
        assert "--mode: must be 'siso' or 'mimo', got 'triplex'" in capsys.readouterr().err

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.parse_args([])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            parse("--workers", "0")

    def test_help_lists_every_flag(self):
        _, run_parser = cli.build_parser()
        text = run_parser.format_help()
        for flag in (
            "--mode", "--taps", "--eq-len", "--snr-db", "--snr-ref", "--runs", "--symbols",
            "--mu", "--delay", "--seed", "--normalize-channel", "--out", "--config", "--workers",
        ):
            assert flag in text
        assert "default: 15" in text  # equalizer length default is advertised


class TestConfigFile:
    def test_flags_override_config_file_over_defaults(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("num_runs=5\nmaster_seed=9\nsnr_db=12.5\n", encoding="utf-8")
        invocation = parse("--config", str(path), "--runs", "7")
        assert invocation.config.num_runs == 7  # flag wins
        assert invocation.config.master_seed == 9  # file wins over default
        assert invocation.config.snr_db == 12.5

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("bogus_knob=1\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            parse("--config", str(path))

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            parse("--config", str(tmp_path / "absent.cfg"))

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_bytes(b"\xff\xfen\x00u\x00m\x00")
        with pytest.raises(SystemExit) as excinfo:
            parse("--config", str(path))
        assert excinfo.value.code == 2
        assert f"--config: cannot read {path}: " in capsys.readouterr().err

    def test_config_file_with_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("num_runs=5\n", encoding="utf-8-sig")
        assert parse("--config", str(path)).config.num_runs == 5

    def test_comments_and_blanks_ignored(self):
        mapping = cli.parse_kv_lines("# comment\n\nmode=mimo\n")
        assert mapping == {"mode": "mimo"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_kv_lines("justakey\n")

    @pytest.mark.parametrize("line,field", [("num_runs=2.5", "num_runs"), ("snr_db=abc", "snr_db")])
    def test_unparsable_value_names_its_field(self, line, field, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            parse("--config", str(path))
        assert excinfo.value.code == 2
        assert f"--config: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("equalizer_length=0", "--config: equalizer_length: must be at least 1"),
            ("mode=triplex", "--config: mode: must be 'siso' or 'mimo'"),
            ("step_size=inf", "--config: step_size: must be positive and finite"),
        ],
        ids=["equalizer_length", "mode", "step_size"],
    )
    def test_bad_file_value_is_blamed_on_the_file(self, line, message, tmp_path, capsys):
        """A value read from the file is reported under --config and its key, never a flag."""
        path = tmp_path / "experiment.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            parse("--config", str(path))
        assert excinfo.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_flag_overriding_a_bad_file_value_is_blamed(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text("equalizer_length=9\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            parse("--config", str(path), "--eq-len", "0")
        assert "--eq-len: must be at least 1, got 0" in capsys.readouterr().err

    def test_mimo_dimensions_settable_from_file(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("mode=mimo\nmimo_tx=2\nmimo_rx=2\n", encoding="utf-8")
        assert parse("--config", str(path)).config.mode == "mimo"


class TestSeedEnvironmentFallback:
    def test_env_seed_used_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert parse().config.master_seed == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert parse("--seed", "5").config.master_seed == 5

    def test_config_file_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        path = tmp_path / "experiment.cfg"
        path.write_text("master_seed=77\n", encoding="utf-8")
        assert parse("--config", str(path)).config.master_seed == 77

    def test_garbage_env_seed_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        with pytest.raises(SystemExit) as excinfo:
            parse()
        assert excinfo.value.code == 2
        assert f"${cli.SEED_ENV_VAR}: " in capsys.readouterr().err

    def test_garbage_env_seed_ignored_when_overridden(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        assert parse("--seed", "5").config.master_seed == 5


class TestConfigEcho:
    def test_round_trip_through_mapping(self):
        config = ExperimentConfig(mode="mimo", snr_db=np.inf, master_seed=17, normalize_channel=False)
        lines = cli.config_to_lines(config)
        recovered = ExperimentConfig(**cli.config_values_from_mapping(cli.parse_kv_lines("\n".join(lines))))
        assert recovered == config

    def test_echo_covers_every_field_in_declaration_order(self):
        names = [line.split("=", 1)[0] for line in cli.config_to_lines(ExperimentConfig())]
        assert names == [field.name for field in dataclasses.fields(ExperimentConfig)]

    def test_unknown_keys_rejected(self):
        text = "steady_state_db=-11.5\nmode=siso\nnum_runs=4\nversion=0.1.0\n"
        with pytest.raises(ValueError, match="unknown config keys: steady_state_db, version"):
            cli.config_values_from_mapping(cli.parse_kv_lines(text))

    def test_every_field_type_is_parsable(self):
        """`_parse_field` converts str, int, float and bool text; a field of another type
        would reach the CLI unconverted."""
        for field in dataclasses.fields(ExperimentConfig):
            assert field.type in (str, int, float, bool), field.name


class TestEmitters:
    """`write_outputs` on a hand-built one-stream SISO result."""

    @staticmethod
    def write(curve_db, out_dir):
        curve = LearningCurve(np.array(curve_db), curve_db[-1], 0)
        zeros = np.zeros((1, 1))
        result = harness.ExperimentResult((curve,), (0.25,), 0, zeros, zeros, -3.0)
        return cli.write_outputs(result, ExperimentConfig(), out_dir)

    def test_csv_schema(self, tmp_path):
        self.write([-1.0, -2.5, -3.25], tmp_path)
        raw = (tmp_path / "learning_curve.csv").read_bytes()
        assert raw == b"iteration,mse_db\n0,-1.0\n1,-2.5\n2,-3.25\n"

    def test_csv_is_reproducible(self, tmp_path):
        self.write([-1.0, -2.0], tmp_path / "a")
        self.write([-1.0, -2.0], tmp_path / "b")
        a, b = (tmp_path / side / "learning_curve.csv" for side in "ab")
        assert a.read_bytes() == b.read_bytes()

    def test_summary_and_manifest_are_utf8_lf_text(self, tmp_path):
        written = self.write([-1.0, -2.5, -3.25], tmp_path)
        assert written == [tmp_path / name for name in ("learning_curve.csv", "summary.txt", "manifest.txt")]
        for path in written[1:]:
            raw = path.read_bytes()
            raw.decode("utf-8")
            assert b"\r" not in raw
            assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        manifest = cli.parse_kv_lines(written[2].read_text(encoding="utf-8"))
        outputs = {key: value for key, value in manifest.items() if key.startswith("output")}
        assert outputs == {"output0": "learning_curve.csv", "output1": "summary.txt"}


class TestMainEndToEnd:
    ARGS = ["--runs", "4", "--symbols", "600", "--seed", "3"]

    def test_siso_writes_everything(self, tmp_path, capsys):
        assert cli.main(["run", *self.ARGS, "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out"
        assert (out / "learning_curve.csv").exists()
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        for key in ("steady_state_db=", "convergence_iteration=", "ser=", "wiener_mse_db=", "runs_diverged="):
            assert key in summary
        assert "runs_diverged=0" in summary
        config = recover_config(summary)
        assert config == ExperimentConfig(num_runs=4, symbols_per_run=600, master_seed=3)
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert recover_config(manifest) == config
        assert "version=" in manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        cli.main(["run", *self.ARGS, "--out", str(tmp_path / "first")])
        cli.main(["run", *self.ARGS, "--out", str(tmp_path / "second")])
        for name in ("learning_curve.csv", "summary.txt"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()

    def test_mimo_writes_per_stream_files(self, tmp_path):
        assert cli.main(["run", "--mode", "mimo", *self.ARGS, "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out"
        assert (out / "learning_curve_stream0.csv").exists()
        assert (out / "learning_curve_stream1.csv").exists()
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        for key in ("steady_state_db_stream0=", "ser_stream1=", "runs_diverged="):
            assert key in summary

    @pytest.mark.parametrize(
        "mode,grid,streams,keys,steady",
        [
            ("siso", "", [""], ["steady_state_db", "convergence_iteration", "ser", "wiener_mse_db", "runs_diverged"],
             r"-\d+\.\d\d dB"),
            ("mimo", "", ["_stream0", "_stream1"],
             ["runs_diverged"] + [f"{key}_stream{s}" for s in (0, 1)
                                  for key in ("steady_state_db", "convergence_iteration", "ser", "runs_diverged")],
             r"stream0 -\d+\.\d\d dB, stream1 -\d+\.\d\d dB"),
            ("mimo", "mimo_tx=1\nmimo_rx=2\n", ["_stream0"],
             ["runs_diverged", "steady_state_db_stream0", "convergence_iteration_stream0", "ser_stream0",
              "runs_diverged_stream0"],
             r"stream0 -\d+\.\d\d dB"),
        ],
        ids=["siso", "mimo2x2", "mimo1x2"],
    )
    def test_outputs_are_named_per_stream(self, mode, grid, streams, keys, steady, tmp_path, capsys):
        """One naming rule, keyed on the mode: SISO's stream is unsuffixed and every MIMO
        stream is `_streamK`, a one-transmitter grid's only stream included.  It names the
        curve files, the summary metrics (in this order) and the stdout steady-state line."""
        config = tmp_path / "grid.cfg"
        config.write_text(grid, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", "--mode", mode, "--config", str(config), *self.ARGS, "--out", str(out)]) == 0
        names = [f"learning_curve{stream}.csv" for stream in streams]
        assert sorted(path.name for path in out.glob("*.csv")) == names
        manifest = cli.parse_kv_lines((out / "manifest.txt").read_text(encoding="utf-8"))
        assert [value for key, value in manifest.items() if key.startswith("output")] == names + ["summary.txt"]
        summary = cli.parse_kv_lines((out / "summary.txt").read_text(encoding="utf-8"))
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert [key for key in summary if key not in fields] == keys
        assert re.fullmatch(f"steady state: {steady}", capsys.readouterr().out.splitlines()[0])

    def test_python_dash_m_runs(self, tmp_path):
        """`python -m quatlink run ...` runs the experiment, as the `quatlink` command does."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "quatlink", "run", "--runs", "2", "--symbols", "60", "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.txt").exists()

    def test_run_without_a_pool_leaves_multiprocessing_unimported(self, tmp_path):
        """A `--workers 1` run in a fresh interpreter never imports the process pool's
        machinery; `harness.ProcessPoolExecutor` imports it on first use."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["run", "--runs", "2", "--symbols", "60", "--workers", "1", "--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "import quatlink.cli\n"
            f"assert quatlink.cli.main({argv!r}) == 0\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
            "from quatlink import harness\n"
            "assert harness.ProcessPoolExecutor.__module__ == 'concurrent.futures.process'\n"
            "assert 'multiprocessing' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.txt").exists()

    @pytest.mark.parametrize(
        "mode,grid,symbols", [("siso", 1, 5000), ("mimo", 2, 5000), ("mimo", 3, 20000)], ids=["siso", "mimo", "mimo3x3"]
    )
    def test_outputs_do_not_depend_on_blas_threads(self, mode, grid, symbols, tmp_path):
        """The CSVs and summary are the same bytes with one BLAS thread and with two: the FIR,
        Wiener-moment, kernel and SER products on the data path must not round by thread count.
        At 20000 symbols the 3x3 grid's per-tap FIR GEMMs (20000 x 4 x 12 per input stream in data
        generation) are large enough for OpenBLAS to split them over threads."""
        src = str(Path(cli.__file__).resolve().parents[1])
        config = tmp_path / "grid.cfg"
        config.write_text(f"mimo_tx={grid}\nmimo_rx={grid}\n", encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / threads
            argv = [sys.executable, "-m", "quatlink", "run", "--mode", mode, "--runs", "8", "--symbols", str(symbols),
                    "--config", str(config), "--out", str(out)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out)
        names = sorted(path.name for path in outputs[0].glob("learning_curve*.csv")) + ["summary.txt"]
        assert len(names) == (2 if mode == "siso" else grid + 1)
        for name in names:
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name

    def test_unwritable_out_dir_fails_nonzero(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        assert cli.main(["run", *self.ARGS, "--out", str(blocker)]) == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["siso", "mimo"])
    def test_delay_beyond_half_run_scores_the_tail(self, mode, tmp_path):
        """delay > N//2 is valid: SER is scored over t in [delay, N) instead of failing."""
        out = tmp_path / "out"
        argv = ["run", "--mode", mode, "--runs", "2", "--symbols", "20", "--delay", "15", "--out", str(out)]
        assert cli.main(argv) == 0
        summary = cli.parse_kv_lines((out / "summary.txt").read_text(encoding="utf-8"))
        rates = [float(v) for k, v in summary.items() if k.startswith("ser")]
        assert len(rates) == (2 if mode == "mimo" else 1)
        assert all(np.isfinite(rate) for rate in rates)

    def test_experiment_failure_exits_nonzero(self, tmp_path, capsys):
        args = ["run", "--runs", "2", "--symbols", "150", "--mu", "50.0", "--out", str(tmp_path / "out")]
        assert cli.main(args) == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for the address space")
    def test_config_too_large_for_memory_ends_with_one_line(self, tmp_path):
        """An accepted config whose Wiener stage cannot be allocated under the address-space
        limit exits 1 with one line naming the runs, symbols and equalizer length."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["run", "--runs", "1", "--symbols", "4000", "--eq-len", "3000", "--out", str(tmp_path / "out")]
        script = (
            "import resource, sys\n"
            "import quatlink.cli\n"
            "size = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmSize'))\n"
            "limit = size * 1024 + (512 << 20)  # the Wiener moments of one run alone take 1.07 GiB\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            f"sys.exit(quatlink.cli.main({argv!r}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "not enough memory for num_runs=1, symbols_per_run=4000, equalizer_length=3000\n"

    @pytest.mark.parametrize("mode", ["siso", "mimo"])
    def test_failure_names_a_replayable_run(self, mode, tmp_path, capsys):
        """--mu 5 diverges every run; the error names the seed, run, stream and
        iteration of the first divergence, and that run alone diverges there."""
        args = ["run", "--mode", mode, "--mu", "5", "--runs", "3", "--symbols", "200", "--seed", "4"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 1
        found = re.search(r"on stream (\d+); the first was run (\d+) of master_seed (\d+), at iteration (\d+)",
                          capsys.readouterr().err)
        stream, run, seed, iteration = (int(v) for v in found.groups())
        config = parse(*args[1:]).config
        assert seed == config.master_seed
        assert iteration == harness._chunk(config, 0, config.num_runs)["diverged_at"][:, stream].min()
        assert harness._chunk(config, run, run + 1)["diverged_at"][0, stream] == iteration

    @pytest.mark.parametrize("mode", ["siso", "mimo"])
    def test_snr_beyond_float_range_runs_noiseless(self, mode, tmp_path):
        """--snr-db 1e308 overflows the power ratio and must run exactly as inf does."""
        outputs = {}
        for snr in ("1e308", "inf"):
            out = tmp_path / snr
            assert cli.main(["run", "--mode", mode, "--runs", "2", "--symbols", "60", "--snr-db", snr, "--out", str(out)]) == 0
            outputs[snr] = out
        for curve in sorted(outputs["inf"].glob("learning_curve*.csv")):
            assert (outputs["1e308"] / curve.name).read_bytes() == curve.read_bytes()
        summaries = [(outputs[snr] / "summary.txt").read_text(encoding="utf-8").splitlines() for snr in outputs]
        assert [line for line in summaries[0] if not line.startswith("snr_db=")] == [
            line for line in summaries[1] if not line.startswith("snr_db=")
        ]

    def test_noise_near_float_range_runs(self, tmp_path):
        """At -2900 dB the sample autocorrelation's entries pass 1e154, where their
        squares overflow; the Wiener stage must still call it well-conditioned."""
        args = ["run", "--runs", "2", "--symbols", "30", "--snr-db", "-2900", "--mu", "1e-300"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0

    def test_noise_past_the_moments_range_gives_a_nan_wiener_figure(self, tmp_path):
        """At -3075 dB the Wiener stage's sample moments overflow: each run gets a NaN
        Wiener figure, as a dead lane does, and their mean in the summary reads nan."""
        out = tmp_path / "out"
        args = ["run", "--runs", "2", "--symbols", "30", "--snr-db", "-3075", "--mu", "1e-318", "--out", str(out)]
        assert cli.main(args) == 0
        assert cli.parse_kv_lines((out / "summary.txt").read_text(encoding="utf-8"))["wiener_mse_db"] == "nan"

    @pytest.mark.parametrize("snr", ["-1e308", "-inf"])
    @pytest.mark.parametrize("mode", ["siso", "mimo"])
    def test_snr_without_finite_noise_is_usage_error(self, mode, snr, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--mode", mode, f"--snr-db={snr}", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--snr-db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
