"""The `>>>` examples in README.md run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result == (0, 10)  # (failed, attempted)
