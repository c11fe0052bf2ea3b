"""Property test: every config either is rejected by `validate` or runs to an end.

Tiny configs of both modes, with any float SNR and step size, any valid delay,
both SNR reference points and any seed.  A config must raise ValueError from
`ExperimentConfig.validate`, or finish `run_experiment` and `summarize`, or
raise `ExperimentFailedError`; the warning filters of the test run turn any
numpy overflow or invalid-value warning on the way into a failure.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlink import harness
from quatlink.errors import ExperimentFailedError
from quatlink.harness import ExperimentConfig


@st.composite
def configs(draw):
    mode = draw(st.sampled_from([harness.MODE_SISO, harness.MODE_MIMO]))
    symbols = draw(st.integers(1, 40))
    grid = {}
    if mode == harness.MODE_MIMO:
        grid = {"mimo_rx": draw(st.integers(1, 3)), "mimo_tx": draw(st.integers(1, 3))}
    return ExperimentConfig(
        mode=mode,
        num_channel_taps=draw(st.integers(1, 5)),
        equalizer_length=draw(st.integers(1, 8)),
        snr_db=draw(st.floats()),
        snr_reference_point=draw(st.sampled_from([harness.SNR_REF_RECEIVER, harness.SNR_REF_TRANSMITTER])),
        num_runs=draw(st.integers(1, 3)),
        symbols_per_run=symbols,
        step_size=draw(st.floats()),
        delay=draw(st.integers(0, symbols - 1)),
        master_seed=draw(st.integers()),
        normalize_channel=draw(st.booleans()),
        **grid,
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(configs())
# noise near the top of the float range overflows the Wiener stage's sample moments,
# or, with fewer iterations than lags, only the sum of their diagonal in the default ridge
@example(ExperimentConfig(num_runs=2, symbols_per_run=30, snr_db=-3075.0, step_size=1e-318))
@example(ExperimentConfig(num_channel_taps=1, equalizer_length=8, snr_db=-3069.0, num_runs=1, symbols_per_run=8,
                          step_size=1e-318, delay=7))
# the last update leaves finite weights too large for the SER filter
@example(ExperimentConfig(num_channel_taps=1, equalizer_length=1, snr_db=0.0, num_runs=1, symbols_per_run=1,
                          step_size=1.1934580046590876e307, delay=0, master_seed=1, normalize_channel=False))
def test_config_is_rejected_or_runs(config):
    try:
        config.validate()
    except ValueError:
        return
    try:
        result = harness.run_experiment(config)
    except ExperimentFailedError:
        return
    assert len(harness.summarize(result)) == len(result.curves)
