"""The JSON reports against the ones recorded in perfbench/golden.

Every catalog report, and each isometry report at the rank bound it was
recorded with, is compared field by field over the recorded fields (the
schema only grows, so fields beyond them are ignored).  The recorded file
is read, never written.
"""

import gzip
import json
from pathlib import Path

import pytest

from voaplus.cli import main

GOLDEN = (Path(__file__).resolve().parent.parent
          / "perfbench" / "golden" / "reports.json.gz")

with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def assert_recorded(got, want, path):
    """Every field of want is in got, equal and of the same JSON type."""
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        for key, value in want.items():
            assert key in got, "%s.%s is missing" % (path, key)
            assert_recorded(got[key], value, "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_recorded(g, w, "%s[%d]" % (path, i))
    else:
        assert got == want and type(got) is type(want), (path, got, want)


def _report(capsys, verb, spec):
    assert main([verb, spec, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("spec", sorted(RECORDED["catalog"]))
def test_catalog_report_matches_recorded(spec, capsys, monkeypatch):
    monkeypatch.delenv("VOAPLUS_RANK_BOUND", raising=False)
    want = RECORDED["catalog"][spec]
    verb = "odd" if want["kind"] == "odd_report" else "analyze"
    assert_recorded(_report(capsys, verb, spec), want, spec)


@pytest.mark.parametrize("spec", sorted(RECORDED["isometry"]))
def test_isometry_report_matches_recorded(spec, capsys, monkeypatch):
    want = RECORDED["isometry"][spec]
    monkeypatch.setenv("VOAPLUS_RANK_BOUND", str(want["lattice"]["rank"]))
    assert_recorded(_report(capsys, "analyze", spec), want, spec)
