"""Canonical JSON: the one byte encoding behind content addresses,
journal and telemetry lines, and the service's wire protocol.

Kept dependency-free so both :mod:`repro.harness` and :mod:`repro.obs`
import it without importing each other.
"""

import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """``obj`` as JSON with sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
