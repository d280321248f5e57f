"""Wilson score intervals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import format_rate, wilson_interval
from repro.errors import ReproError


class TestWilson:
    def test_known_value(self):
        """8/10 at 95%: the textbook Wilson interval ~ [0.49, 0.94]."""
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.49, abs=0.01)
        assert high == pytest.approx(0.94, abs=0.015)

    def test_z_is_the_standard_normal_quantile(self):
        """z = Phi^-1(0.975) = 1.959964...; the interval agrees with a
        closed-form evaluation to within float rounding."""
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4901624715366418, rel=1e-14)
        assert high == pytest.approx(0.9433178485456248, rel=1e-14)

    def test_zero_successes_not_degenerate(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert high > 0.0  # can't conclude p = 0 from 10 trials

    def test_all_successes_not_degenerate(self):
        low, high = wilson_interval(10, 10)
        assert high == 1.0
        assert low < 1.0

    def test_more_trials_tighter(self):
        low10, high10 = wilson_interval(5, 10)
        low100, high100 = wilson_interval(50, 100)
        assert (high100 - low100) < (high10 - low10)

    def test_higher_confidence_wider(self):
        i90 = wilson_interval(5, 10, confidence=0.90)
        i99 = wilson_interval(5, 10, confidence=0.99)
        assert (i99[1] - i99[0]) > (i90[1] - i90[0])

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=500))
    @settings(max_examples=50)
    def test_interval_contains_point_estimate(self, trials, successes):
        successes = min(successes, trials)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            wilson_interval(1, 0)
        with pytest.raises(ReproError):
            wilson_interval(11, 10)
        with pytest.raises(ReproError):
            wilson_interval(1, 10, confidence=1.5)

    def test_format(self):
        text = format_rate(8, 10)
        assert text.startswith("0.80 [")
        assert text.endswith("]")

