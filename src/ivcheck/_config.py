"""The flat `key = value` configuration format.

Standard library only: the command line reads a config file, and refuses a
bad one, before it imports numpy.
"""

from __future__ import annotations

from .errors import IvcheckError

# Documented configuration keys for the flat key=value config format.
CONFIG_KEYS = {
    "grid.count": int,
    "test.alpha_levels": str,  # comma-separated floats
    "npreg.method": str,  # series | local-linear | cell-means
    "npreg.series_order": int,
    "npreg.bandwidth": float,
    "sim.replications": int,
    "sim.multiplier_draws": int,
    "rng.seed": int,
}


def parse_config(path) -> dict:
    """Parse a flat `key = value` config file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IvcheckError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise IvcheckError(f"config line {lineno}: unknown key {key!r}")
            try:
                out[key] = CONFIG_KEYS[key](value)
            except ValueError:
                raise IvcheckError(
                    f"config line {lineno}: bad value {value!r} for {key}"
                ) from None
    return out
