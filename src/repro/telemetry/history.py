"""Run provenance: the commit a benchmark record was measured at."""

from __future__ import annotations

import subprocess


def git_sha(cwd=None) -> str:
    """The current commit's short sha, or ``"unknown"`` outside a git
    checkout (records stay writable from exported tarballs)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except Exception:
        return "unknown"
