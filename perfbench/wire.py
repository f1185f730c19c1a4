"""Minimal HTTP/1.1 client over raw sockets for pre-encoded requests.

The serve tier speaks one request per connection (``Connection:
close``), so a round trip is connect, ``sendall`` of bytes encoded
before the timed window, and read to EOF.  Keeping the client this thin
keeps the generator's own cost out of the latencies it reports.
"""

from __future__ import annotations

import socket
from typing import Tuple

HOST = "127.0.0.1"


def roundtrip(port: int, request: bytes, timeout: float = 60.0) -> Tuple[int, bytes]:
    """Send ``request`` and return ``(status, body)``."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(262144)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise ConnectionError(f"truncated response ({len(data)} bytes)")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise ConnectionError(f"malformed status line {head[:80]!r}")
    return int(status_line[1]), body


def get(port: int, path: str, timeout: float = 10.0) -> Tuple[int, bytes]:
    request = (
        f"GET {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    return roundtrip(port, request, timeout)
