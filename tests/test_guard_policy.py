"""The guard policy lives in one module: only ``errors.check_guard`` raises."""

from pathlib import Path

import apolar


def test_guard_exceeded_is_raised_only_in_errors_py():
    package = Path(apolar.__file__).parent
    raisers = sorted(
        path.name
        for path in package.glob("*.py")
        if "raise GuardExceeded" in path.read_text()
    )
    assert raisers == ["errors.py"]
