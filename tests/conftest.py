import sys

import pytest
from hypothesis import settings

# Fixed examples and no time limit, so every run checks the same cases.
settings.register_profile("ghzcert", derandomize=True, deadline=None, database=None)
settings.load_profile("ghzcert")


@pytest.fixture
def int_digit_limit():
    """Sets the interpreter's int/str conversion limit; restored afterwards."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
