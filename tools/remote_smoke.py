#!/usr/bin/env python
"""CI smoke for the remote worker transport: CLI workers, CLI coordinator.

Exercises the full operational path, exactly as docs/OPERATIONS.md describes
it, with nothing mocked:

1. generate a shared HMAC key file;
2. launch two ``python -m repro.cli worker --listen 127.0.0.1:0`` processes
   and parse their ``worker listening on HOST:PORT`` lines;
3. run seeded scenarios twice — on the serial reference executor and on
   ``--executor pinned-worker/sealed-tcp-remote --workers
   host:port,host:port`` — and require the printed digests to be byte-identical;
4. shut the workers down and fail on any worker-side protocol errors.

Exit status is non-zero on any digest mismatch, timeout, or worker failure.
Run from the repository root:

    python tools/remote_smoke.py [scenario ...]
"""

from __future__ import annotations

import os
import re
import secrets
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SCENARIOS = ["churn-mild", "kitchen-sink"]
LISTEN_PATTERN = re.compile(r"worker listening on ([^\s:]+:\d+)")
DIGEST_PATTERN = re.compile(r"digest\s+([0-9a-f]{64})")
WORKER_STARTUP_SECONDS = 30.0
RUN_TIMEOUT_SECONDS = 300.0


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """The subprocess environment: src/ on PYTHONPATH for uninstalled trees."""
    env = dict(os.environ)
    src = str(repo_root() / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def start_worker(key_path: Path, max_sessions: int) -> tuple[subprocess.Popen, str]:
    """Launch one CLI worker on a free port; returns (process, host:port)."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--listen", "127.0.0.1:0",
            "--key-file", str(key_path),
            "--max-sessions", str(max_sessions),
        ],
        cwd=repo_root(),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + WORKER_STARTUP_SECONDS
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = LISTEN_PATTERN.search(line)
        if match:
            return process, match.group(1)
    process.kill()
    raise SystemExit(f"worker did not announce its address (last line: {line!r})")


def run_digest(arguments: list[str]) -> str:
    """Run one ``simulate --scenario`` invocation and return its digest."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=repo_root(),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_SECONDS,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"simulate failed ({' '.join(arguments)}):\n{completed.stdout}"
            f"{completed.stderr}"
        )
    match = DIGEST_PATTERN.search(completed.stdout)
    if not match:
        raise SystemExit(f"no digest in simulate output:\n{completed.stdout}")
    return match.group(1)


def main(argv: list[str]) -> int:
    scenarios = argv or DEFAULT_SCENARIOS
    key_path = repo_root() / "tools" / ".remote_smoke.keys"
    key_path.write_text(secrets.token_hex(32) + "\n")
    workers: list[subprocess.Popen] = []
    failures = 0
    try:
        addresses = []
        for _ in range(2):
            process, address = start_worker(key_path, max_sessions=len(scenarios))
            workers.append(process)
            addresses.append(address)
        print(f"workers up at {', '.join(addresses)}")
        for scenario in scenarios:
            serial = run_digest(["simulate", "--scenario", scenario])
            remote = run_digest(
                [
                    "simulate", "--scenario", scenario,
                    "--executor", "pinned-worker/sealed-tcp-remote",
                    "--workers", ",".join(addresses),
                    "--key-file", str(key_path),
                ]
            )
            status = "OK" if remote == serial else "MISMATCH"
            if remote != serial:
                failures += 1
            print(f"{scenario:<16} serial={serial[:16]}… remote={remote[:16]}… {status}")
        # With --max-sessions the workers exit on their own once every
        # scenario's coordinator session has ended.
        for process in workers:
            try:
                output, _ = process.communicate(timeout=WORKER_STARTUP_SECONDS)
            except subprocess.TimeoutExpired:
                process.kill()
                output, _ = process.communicate()
                failures += 1
                print(f"FAIL: worker did not exit after {len(scenarios)} sessions")
            if process.returncode != 0:
                failures += 1
                print(f"FAIL: worker exited with {process.returncode}:\n{output}")
            elif "0 failed, 0 rejected" not in output:
                failures += 1
                print(f"FAIL: worker reported protocol failures:\n{output}")
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
        key_path.unlink(missing_ok=True)
    if failures:
        print(f"FAIL: {failures} remote smoke failure(s)", file=sys.stderr)
        return 1
    print(f"OK: {len(scenarios)} scenario(s) byte-identical over remote workers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
