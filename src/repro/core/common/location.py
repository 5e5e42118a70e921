"""The ``location-update`` uplink a phone sends with its latest fix;
the server checks it, because it comes from outside the program."""

import math


def valid_location_update(payload) -> bool:
    """Whether a ``location-update`` payload is well formed: a dict
    with a string ``user_id``, finite real ``lon``, ``lat`` and
    ``timestamp`` (not ``bool``), and a string or absent ``place``."""
    return (isinstance(payload, dict)
            and isinstance(payload.get("user_id"), str)
            and isinstance(payload.get("place"), (str, type(None)))
            and all(isinstance(value, (int, float))
                    and not isinstance(value, bool) and math.isfinite(value)
                    for value in (payload.get("lon"), payload.get("lat"),
                                  payload.get("timestamp"))))
