"""Strict JSON parsing for the CLI tests: stdout must never hold NaN or Infinity."""

import json


def _not_json(constant):
    raise ValueError(f"stdout holds {constant}, which is not JSON")


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_not_json)
