"""Dot-notation path access into nested documents.

``get_path(doc, "home.city")`` reads ``doc["home"]["city"]``; list
elements are addressable by numeric segments (``"tags.0"``), matching
MongoDB's field-path semantics closely enough for the middleware.
"""

from __future__ import annotations

from typing import Any

#: Sentinel distinguishing "path absent" from "value is None".
MISSING = object()


def get_path(document: Any, path: str) -> Any:
    """Resolve ``path`` inside ``document``; ``MISSING`` if absent."""
    if "." not in path and isinstance(document, dict):
        return document.get(path, MISSING)
    current = document
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return MISSING
            current = current[segment]
        elif isinstance(current, list) and segment.isdigit():
            index = int(segment)
            if index >= len(current):
                return MISSING
            current = current[index]
        else:
            return MISSING
    return current


def set_path(document: dict, path: str, value: Any) -> None:
    """Write ``value`` at ``path``, creating intermediate dicts."""
    segments = path.split(".")
    current = document
    for segment in segments[:-1]:
        if isinstance(current, list) and segment.isdigit():
            current = current[int(segment)]
            continue
        if not isinstance(current, dict):
            raise TypeError(f"cannot descend into {type(current).__name__} at {segment!r}")
        if segment not in current or not isinstance(current[segment], (dict, list)):
            current[segment] = {}
        current = current[segment]
    last = segments[-1]
    if isinstance(current, list) and last.isdigit():
        current[int(last)] = value
    else:
        current[last] = value


def delete_path(document: dict, path: str) -> bool:
    """Remove the value at ``path``; returns whether anything was removed."""
    segments = path.split(".")
    current = document
    for segment in segments[:-1]:
        if isinstance(current, dict) and segment in current:
            current = current[segment]
        elif isinstance(current, list) and segment.isdigit() and int(segment) < len(current):
            current = current[int(segment)]
        else:
            return False
    last = segments[-1]
    if isinstance(current, dict) and last in current:
        del current[last]
        return True
    return False
