"""JSON rendering of nutritional labels.

The machine-readable output format: everything a widget shows, exactly
as structured by ``as_dict()``.  The web server and the CLI's
``--format json`` both emit this.
"""

from __future__ import annotations

import json
import math

from repro.errors import LabelError
from repro.label.widgets import NutritionalLabel

__all__ = ["render_json", "label_document", "label_from_json", "json_safe"]

_REQUIRED_KEYS = (
    "dataset",
    "num_items",
    "k",
    "recipe",
    "ingredients",
    "stability",
    "fairness",
    "diversity",
)


def _sanitize(value):
    """Replace non-finite floats: JSON has no NaN/Infinity literal."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def json_safe(value):
    """A strictly-JSON copy of ``value`` (non-finite floats → ``null``).

    The same sanitation :func:`render_json` applies to whole labels,
    exposed for callers serializing label *fragments* — the streaming
    protocol's per-widget event payloads.
    """
    return _sanitize(value)


def label_document(label: NutritionalLabel) -> dict[str, object]:
    """The label as the JSON document :func:`render_json` dumps.

    ``as_dict()`` with non-finite floats (possible in summaries of
    empty slices) replaced by ``None``: callers embedding a label in a
    larger JSON response use this instead of parsing the rendered text.
    """
    return _sanitize(label.as_dict())


def render_json(label: NutritionalLabel, indent: int | None = 2) -> str:
    """Serialize a label to a strict JSON string (:func:`label_document`)."""
    return json.dumps(label_document(label), indent=indent, sort_keys=False)


def label_from_json(payload: str) -> dict[str, object]:
    """Parse and validate a label JSON document.

    Returns the dict form (the same shape ``NutritionalLabel.as_dict``
    produces).  Raises :class:`~repro.errors.LabelError` when required
    sections are missing — the integrity check consumers should run on
    labels they did not generate themselves.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise LabelError(f"invalid label JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LabelError("label JSON must be an object at the top level")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise LabelError(
            f"label JSON is missing section(s): {', '.join(missing)}"
        )
    return data
