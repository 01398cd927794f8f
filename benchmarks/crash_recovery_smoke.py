"""CI smoke test: kill -9 the serve daemon, restart, stay warm.

Drives the real ``python -m repro serve`` subprocess over its
JSON-lines stdio protocol:

1. boot a daemon with ``--snapshot-dir``, run one recommendation
   (populates the what-if cache), take an explicit snapshot;
2. fire another recommendation and immediately ``SIGKILL`` the daemon
   mid-request — no drain, no atexit, nothing graceful;
3. restart the daemon on the same snapshot directory and repeat the
   recommendation.

The restarted request must be served warm: the ``warm`` flag set and
zero backend what-if calls, straight from the restored snapshot.  Exits
0 on success, 1 with a diagnosis on stderr otherwise.  This file is
deliberately not named ``bench_*``/``test_*`` — it is a standalone
script for the CI crash-recovery job, not a collected test.

Usage::

    PYTHONPATH=src python benchmarks/crash_recovery_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SERVE_ARGS = [
    sys.executable,
    "-m",
    "repro",
    "serve",
    "--workload",
    "tpcc",
    "--max-concurrency",
    "1",
    "--queue-depth",
    "2",
]
RECOMMEND = {
    "op": "recommend",
    "workload": "tpcc",
    "budget_share": 0.3,
}
DEADLINE_S = 120.0


def _fail(message: str) -> None:
    print(f"crash_recovery_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _start(snapshot_dir: str, stderr_log) -> subprocess.Popen:
    environment = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    environment["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(root / "src"),
            environment.get("PYTHONPATH", ""),
        )
        if part
    )
    return subprocess.Popen(
        SERVE_ARGS + ["--snapshot-dir", snapshot_dir],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=stderr_log,
        cwd=str(root),
        env=environment,
        text=True,
    )


def _request(process: subprocess.Popen, message: dict) -> dict:
    process.stdin.write(json.dumps(message) + "\n")
    process.stdin.flush()
    started = time.monotonic()
    while True:
        line = process.stdout.readline()
        if not line:
            _fail(
                "daemon closed stdout while a response was pending "
                f"(sent {message})"
            )
        if time.monotonic() - started > DEADLINE_S:
            _fail(f"no response to {message} within {DEADLINE_S}s")
        response = json.loads(line)
        if response.get("op") == "event":
            continue
        return response


def main() -> int:
    with tempfile.TemporaryDirectory() as snapshot_dir, \
            tempfile.TemporaryFile(mode="w+") as stderr_log:
        # --- phase 1: populate residency, snapshot, then kill -9 -----
        daemon = _start(snapshot_dir, stderr_log)
        try:
            first = _request(daemon, {"id": 1, **RECOMMEND})
            if not first.get("ok"):
                _fail(f"cold recommendation failed: {first}")
            snapshot = _request(daemon, {"id": 2, "op": "snapshot"})
            if not snapshot.get("ok"):
                _fail(f"snapshot op failed: {snapshot}")
            # Fire a request and SIGKILL mid-flight — the crash the
            # snapshot exists to survive.
            daemon.stdin.write(json.dumps({"id": 3, **RECOMMEND}) + "\n")
            daemon.stdin.flush()
        finally:
            daemon.kill()
            daemon.wait(timeout=30)
        if daemon.returncode == 0:
            _fail("SIGKILLed daemon reported a clean exit")

        # --- phase 2: restart on the same directory, expect warmth ---
        daemon = _start(snapshot_dir, stderr_log)
        try:
            warm = _request(daemon, {"id": 4, **RECOMMEND})
            if not warm.get("ok"):
                _fail(f"post-restart recommendation failed: {warm}")
            gauges = warm.get("gauges", {})
            backend_calls = gauges.get("whatif.calls")
            if not warm.get("warm"):
                _fail(f"post-restart response not warm: {warm}")
            if backend_calls != 0:
                _fail(
                    "post-restart request hit the cost backend "
                    f"{backend_calls} time(s); snapshot restore "
                    "should have made it unnecessary"
                )
            goodbye = _request(daemon, {"id": 5, "op": "shutdown"})
            if not goodbye.get("ok"):
                _fail(f"shutdown op failed: {goodbye}")
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    daemon.kill()
                    daemon.wait(timeout=30)
        stderr_log.seek(0)
        log = stderr_log.read()
        if "restored snapshot #" not in log:
            _fail(
                "restarted daemon never reported a snapshot restore; "
                f"stderr was:\n{log}"
            )
    print("crash_recovery_smoke: OK (warm, backend_calls=0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
