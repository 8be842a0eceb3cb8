"""Anomaly detection for bounded dynamical systems via latent consistency.

A micro autoencoder maps each 24-channel measurement to an even-width
latent vector read as state/derivative channel pairs. Training adds a
temporal differential consistency penalty tying the central difference of
the state channels to the derivative channels, so a single time step
carries its own dynamics. Detection thresholds the baseline-normalized
latent stream per node and votes across nodes; diagnostics check that the
latent width respects the data's intrinsic dimension and that the encoder
stays injective and full rank.
"""

__version__ = "0.1.0"
