"""Reports are byte-identical to the committed golden files.

``tests/golden/rebuild.py`` made the files at jobs 1; this test reruns the same
four experiments at jobs 2.  A change that moves any report byte fails here,
whether or not it meant to: one that means to rebuilds the files in the same
commit, so the diff shows what moved.
"""

from pathlib import Path

from golden.rebuild import RUNS, write_reports

GOLDEN = Path(__file__).resolve().parent / "golden"


def _files(root):
    return sorted(p.relative_to(root) for name in RUNS for p in (root / name).iterdir())


def _first_difference(expected: bytes, actual: bytes) -> str:
    """The first line at which two files differ, with its number."""
    old, new = expected.splitlines(), actual.splitlines()
    for number, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    return f"line {min(len(old), len(new)) + 1}: one file ends ({len(old)} vs {len(new)} lines)"


def test_reports_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "reports"
    write_reports(out, jobs=2)
    assert _files(out) == _files(GOLDEN)
    for path in _files(GOLDEN):
        expected, actual = (GOLDEN / path).read_bytes(), (out / path).read_bytes()
        assert actual == expected, f"{path} differs at {_first_difference(expected, actual)}"
