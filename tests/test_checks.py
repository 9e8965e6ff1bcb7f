import math
import random

import pytest

from chflow import checks, operators
from chflow.checks import BoundCheck, operator_bound_suite
from chflow.fields import Grid


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
    assert check.passed is False


def test_operator_suite_builds_one_scan_plan_per_sample(monkeypatch):
    # phi, phi2 and their combination share the scan plan along each sample's eta
    real, plans = operators._scan_plan, []

    def counting(*args):
        plans.append(1)
        return real(*args)

    monkeypatch.setattr(checks, "_scan_plan", counting)
    monkeypatch.setattr(operators, "_scan_plan", counting)
    report = operator_bound_suite(Grid.from_interval(-20.0, 20.0, 128), 3, random.Random(0))
    assert len(plans) == 3
    # passed is a Python bool even where the suite measures numpy floats
    assert all(type(check.passed) is bool and check.passed for check in report)
