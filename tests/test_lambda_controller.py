import numpy as np
import pytest

from sparsefolio.lambda_controller import (
    LambdaSchedule,
    initial_lambda,
    maybe_adjust,
)


class TestInitialLambda:
    def test_reference_values(self):
        assert initial_lambda(100, 10) == pytest.approx(0.001)
        assert initial_lambda(2, 2) == 0.25
        assert initial_lambda(200, 10) == 5e-4

    def test_multiplicative_structure(self):
        for m in (10, 50, 80):
            for n in (3, 7):
                assert initial_lambda(2 * m, n) == pytest.approx(
                    initial_lambda(m, n) / 2)
                assert initial_lambda(m, 2 * n) == pytest.approx(
                    initial_lambda(m, n) / 2)

    @pytest.mark.parametrize("m,n", [(1, 10), (10, 1), (0, 0)])
    def test_invalid_counts(self, m, n):
        with pytest.raises(ValueError):
            initial_lambda(m, n)


class TestLambdaSchedule:
    def test_fixed_constructor(self):
        s = LambdaSchedule.fixed(0.01)
        assert s.sn is None
        assert s.lambda_current == 0.01

    def test_fixed_allows_zero(self):
        assert LambdaSchedule.fixed(0.0).lambda_current == 0.0

    def test_adaptive_constructor(self):
        s = LambdaSchedule.adaptive(0.001, sn=2)
        assert s.sn == 2
        assert s.lambda_current == 0.001

    def test_adaptive_requires_positive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            LambdaSchedule.adaptive(0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LambdaSchedule.fixed(-0.1)


class TestMaybeAdjust:
    def test_proportional_escalation(self):
        s = LambdaSchedule.adaptive(0.001, sn=2)
        out = maybe_adjust(s, 5)
        assert out.lambda_current == pytest.approx(0.0025)
        assert out.sn == 2

    def test_boundary_is_strict(self):
        s = LambdaSchedule.adaptive(0.001, sn=2)
        assert maybe_adjust(s, 2) is s

    def test_zero_sn_clamps_denominator(self):
        s = LambdaSchedule.adaptive(0.001, sn=0)
        out = maybe_adjust(s, 3)
        assert out.lambda_current == pytest.approx(0.003)

    def test_single_short_with_zero_sn_doubles_lambda(self):
        # sm=1, sn=0 gives sm/max(sn, 1) = 1; the floor of 2 still moves it
        s = LambdaSchedule.adaptive(0.001, sn=0)
        out = maybe_adjust(s, 1)
        assert out.lambda_current == 0.002

    def test_factor_is_at_least_two(self):
        s = LambdaSchedule.adaptive(0.001, sn=4)
        assert maybe_adjust(s, 5).lambda_current == 0.002
        assert maybe_adjust(s, 12).lambda_current == pytest.approx(0.003)

    def test_non_adaptive_mode_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            maybe_adjust(LambdaSchedule.fixed(0.01), 3)

    def test_lambda_never_decreases(self):
        rng = np.random.default_rng(0)
        s = LambdaSchedule.adaptive(0.001, sn=1)
        previous = s.lambda_current
        for _ in range(100):
            s = maybe_adjust(s, int(rng.integers(0, 6)))
            assert s.lambda_current >= previous
            previous = s.lambda_current
