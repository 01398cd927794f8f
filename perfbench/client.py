"""A closed-loop client of ``repro.service.protocol.serve_loop``.

The server runs ``serve_loop`` over an ``AdvisorService`` in a thread of
this process, reading and writing JSON lines on two OS pipes; the client
sends one line and waits for the response line before sending the next.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.service.protocol import serve_loop


class ServiceClient:
    """Sends requests to one served ``AdvisorService``; closing the
    client ends the serve loop, which closes the service."""

    def __init__(self, service) -> None:
        server_read, client_write = os.pipe()
        client_read, server_write = os.pipe()
        self._server_files = (
            os.fdopen(server_read, "r"),
            os.fdopen(server_write, "w"),
        )
        self._send = os.fdopen(client_write, "w")
        self._receive = os.fdopen(client_read, "r")
        self._thread = threading.Thread(
            target=serve_loop,
            args=(service, *self._server_files),
            name="perfbench-serve-loop",
        )
        self._thread.start()

    def call(self, message: dict) -> tuple[dict, float]:
        """Send ``message``; return the response and the seconds from
        sending the line to receiving the response line."""
        line = json.dumps(message, separators=(",", ":")) + "\n"
        started = time.perf_counter()
        self._send.write(line)
        self._send.flush()
        reply = self._receive.readline()
        latency = time.perf_counter() - started
        if not reply:
            raise ConnectionError("serve_loop closed the connection")
        return json.loads(reply), latency

    def close(self) -> None:
        self._send.close()
        self._thread.join(timeout=120)
        for stream in (self._receive, *self._server_files):
            stream.close()
        if self._thread.is_alive():
            raise RuntimeError("serve_loop did not stop within 120 s")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
