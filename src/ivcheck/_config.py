"""The flat `key = value` configuration format.

Standard library only: the command line reads a config file, and refuses a
bad one, before it imports numpy.
"""

from __future__ import annotations

from .errors import IvcheckError


def _floats(text: str) -> tuple:
    return tuple(map(float, text.split(",")))


# The documented configuration keys: key -> (parser of its value, TestConfig field or None).
CONFIG_KEYS = {
    "grid.count": (int, "grid_count"),
    "test.alpha_levels": (_floats, "alpha_levels"),  # comma-separated
    "npreg.method": (str, "method"),  # series | local-linear | cell-means
    "npreg.series_order": (int, "series_order"),
    "npreg.bandwidth": (float, "bandwidth"),
    "sim.replications": (int, None),
    "sim.multiplier_draws": (int, "mult_draws"),
    "rng.seed": (int, None),
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
                out[key] = CONFIG_KEYS[key][0](value)
            except ValueError:
                raise IvcheckError(
                    f"config line {lineno}: bad value {value!r} for {key}"
                ) from None
    return out
