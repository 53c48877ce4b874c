"""Every line of the package and of its tests fits in 100 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_line_is_over_100_characters():
    files = sorted(ROOT.glob("src/scalemix/*.py")) + sorted(ROOT.glob("tests/*.py"))
    long = [
        f"{path.relative_to(ROOT)}:{lineno} ({len(line)})"
        for path in files
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert files and long == []
