"""Tests for :mod:`repro.telemetry.history`: the commit sha that
benchmark records carry as provenance."""

import pathlib
import re

from repro.telemetry.history import git_sha


def test_git_sha_names_the_checkout_commit(tmp_path):
    repo = pathlib.Path(__file__).resolve().parents[2]
    sha = git_sha(cwd=repo)
    # A git checkout yields a short hex sha; an exported tarball
    # (no .git) degrades to "unknown" instead of raising.
    assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{4,40}", sha)
    assert git_sha(cwd=tmp_path) == "unknown"
