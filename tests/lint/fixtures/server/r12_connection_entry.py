"""R12: an unsynchronized per-peer tally reachable from the pool's
per-connection entry, outside any ``dispatch_request``."""

from __future__ import annotations

_REQUESTS_BY_PEER: dict[str, int] = {}


def _tally(peer: str) -> None:
    _REQUESTS_BY_PEER[peer] = _REQUESTS_BY_PEER.get(peer, 0) + 1


def serve_connection(peer: str) -> None:
    _tally(peer)
