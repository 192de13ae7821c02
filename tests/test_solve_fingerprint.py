"""Smoke test of tools/solve_fingerprint.py on a few requests."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("solve_fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_digest_per_kind_repeats_and_follows_the_traffic():
    tool = load_tool()
    first = tool.fingerprints(4, 1)
    assert list(first) == ["desk", "lifted", "clt", "sweep"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in first.values())
    assert tool.fingerprints(4, 1) == first
    # one more desk request is more desk traffic, and only that
    more = tool.fingerprints(5, 1)
    assert more["desk"] != first["desk"]
    assert {k: more[k] for k in ("lifted", "clt", "sweep")} == {
        k: first[k] for k in ("lifted", "clt", "sweep")}
