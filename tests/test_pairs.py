"""The verdict that tools/pairs.py gives paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# ten parent runs with quartiles 44.225 and 44.675: an IQR of 0.45
PARENT = [44.0, 44.1, 44.2, 44.3, 44.4, 44.5, 44.6, 44.7, 44.8, 44.9]


def _shifted(by, flip=()):
    """PARENT shifted by `by`, but moved the other way at the indices in
    flip."""
    return [p - by if i in flip else p + by for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("change, expect", [
    # lower in every pair, the median by 1.0 > 0.45
    (_shifted(-1.0), "gain"),
    # lower in 9 of 10 pairs, the median still lower by more than the IQR
    (_shifted(-1.0, flip={0}), "gain"),
    # lower in 8 of 10: too few pairs
    (_shifted(-1.0, flip={0, 9}), "unresolved"),
    # lower in every pair by 0.3, no more than the parent's IQR
    (_shifted(-0.3), "unresolved"),
    # the same rules with the change higher
    (_shifted(1.0), "loss"),
    (_shifted(1.0, flip={4}), "loss"),
    (_shifted(1.0, flip={4, 5}), "unresolved"),
    (_shifted(0.3), "unresolved"),
    # ties count for neither side
    (PARENT, "unresolved"),
    ([p - 1.0 if i else p for i, p in enumerate(PARENT)], "gain"),
    ([p - 1.0 if i > 1 else p for i, p in enumerate(PARENT)], "unresolved"),
])
def test_verdict_of_paired_runs(change, expect):
    assert pairs.verdict(PARENT, change) == expect


def test_nine_tenths_rounds_up():
    # of 11 pairs, 9 lower is not nine tenths; 10 is
    parent = PARENT + [45.0]
    change = [p - 1.0 for p in parent]
    change[0] += 2.0
    change[1] += 2.0
    assert pairs.verdict(parent, change) == "unresolved"
    change[1] -= 2.0
    assert pairs.verdict(parent, change) == "gain"
