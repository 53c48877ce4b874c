"""Every line of the package, its tests and its demos fits in 100 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_line_is_over_100_characters():
    files = [
        path for pattern in ("src/scalemix/*.py", "tests/*.py", "demos/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    long = [
        f"{path.relative_to(ROOT)}:{lineno} ({len(line)})"
        for path in files
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert files and long == []
