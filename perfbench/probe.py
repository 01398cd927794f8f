"""Set-up probe: one fresh process, timed from ``import repro`` until the
first request could be sent.

Reads ``{"mode": "advisor" | "service", "schema": <Schema.build spec>,
"templates": [[sql, frequency], ...]}`` on stdin and prints the seconds.
``advisor`` builds an ``IndexAdvisor``; ``service`` builds an
``AdvisorService``, starts ``serve_loop`` on a pipe pair and registers
the templates through the protocol.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import repro
    from repro.workload.schema import Schema

    schema = Schema.build(job["schema"])
    if job["mode"] == "advisor":
        repro.IndexAdvisor(schema)
        print(time.perf_counter() - started)
        return 0

    from client import ServiceClient

    with ServiceClient(repro.AdvisorService(schema)) as client:
        reply = client.call(
            {"op": "register", "workload": "w", "queries": job["templates"]}
        )[0]
        elapsed = time.perf_counter() - started
    if not reply.get("ok"):
        print(f"register failed: {reply}", file=sys.stderr)
        return 1
    print(elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
