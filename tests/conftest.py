"""One precision for the whole suite: every test runs at mp.dps = 30.

The fixture sets mpmath's mp context only; iv keeps its own precision.  A
module that drives the CLI (test_cli, test_api) nests its own 15-digit
fixture inside this one, as a user's process runs at mpmath's default.
Values a module forms at import, before any fixture runs, are formed at 30
digits there explicitly, so no module's precision depends on which others
pytest imported.
"""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def _suite_precision():
    with mp.workdps(30):
        yield
