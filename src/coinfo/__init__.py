"""Numerical bounds for distributed mutual-information biclustering.

Exact discrete information measures, region evaluators for the inner and
outer bounds (two-source, multi-source, CEO/information-bottleneck),
seeded samplers and concave envelopes, method-of-types checks, and a
small-blocklength exhaustive code oracle, with a deterministic CLI.
"""

__version__ = "0.8.0"
