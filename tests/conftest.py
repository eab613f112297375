import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from helpers import COVID  # noqa: E402

# CI's hostile-input job runs tests/test_hostile_input.py, and then the two
# drawn tests of test_integration.py's TestIntegrateDatasetWrapper, with
# --hypothesis-profile=hostile-input; tier-1 keeps hypothesis' default profile.
settings.register_profile("hostile-input", max_examples=2000, deadline=None)


@pytest.fixture
def covid_purpose() -> Path:
    return COVID / "purpose.json"


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, past output capture."""
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is None or not acceptance.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(acceptance.RESULTS):
        label, status = acceptance.RESULTS[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {status}")
