import math

import pytest

from chflow.checks import BoundCheck


def test_keeps_the_largest_ratio():
    check = BoundCheck("bound")
    for measured, allowed in ((0.1, 1.0), (0.6, 2.0), (0.2, 1.0)):
        check.update(measured, allowed)
    assert (check.measured, check.allowed, check.ratio, check.passed) == (0.6, 2.0, 0.3, True)


@pytest.mark.parametrize("samples", [
    [(math.nan, 1.0), (0.1, 1.0)],              # NaN as the first sample
    [(0.1, 1.0), (math.nan, 1.0), (0.9, 1.0)],  # NaN as a later sample
    [(0.1, 1.0), (0.5, math.nan), (0.9, 1.0)],  # NaN as the allowed value
], ids=["first", "later", "allowed"])
def test_nan_sample_sticks_and_fails(samples):
    check = BoundCheck("bound")
    for measured, allowed in samples:
        check.update(measured, allowed)
    nan_sample = next(s for s in samples if math.isnan(s[0]) or math.isnan(s[1]))
    assert repr((check.measured, check.allowed)) == repr(nan_sample)
    assert not check.passed
