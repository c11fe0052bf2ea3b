"""Quaternion-valued link simulation toolkit.

Quaternion arithmetic and linear algebra, a 16-point 4-D QAM modem,
quaternion FIR channels with calibrated noise, a QLMS adaptive equalizer,
the block Wiener solution, and a seeded Monte Carlo harness with a CLI.
Each public name is imported from the module that defines it, for example
`quatlink.harness.run_experiment`; the package itself holds only the modules.
"""

__version__ = "0.1.0"

from . import adaptive, channel, cli, harness, linalg, modem, quat, wiener
