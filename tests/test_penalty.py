import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsefolio.penalty as penalty
from sparsefolio.admm_engine import IterateState
from sparsefolio.model import PortfolioProblem
from sparsefolio.penalty import (
    EPS_CORR,
    ETA,
    FREEZE_AFTER,
    MU_RB,
    NBAR,
    PENALTY_KINDS,
    REFACTOR_RATIO,
    RHO_MAX,
    RHO_MIN,
    TAU_MAX,
    PenaltyConfig,
    PenaltyState,
    _side_scalar,
    compute_ybar,
    initial_rho,
    rb_update,
    spectral_rho,
    tau_update,
)

V = np.array


def zero_state(dim=2):
    zero = np.zeros(dim)
    return IterateState(x=zero, z=zero, y=zero, rho=1.0, lam=0.0, k=1,
                        ybar=zero)


def state_from_deltas(d_ybar, d_y, d_psi, d_phi, r_norm=1.0, d_norm=1.0,
                      rho=1.0):
    """Against an all-zero previous state the state fields ARE the differences."""
    return IterateState(x=V(d_psi, dtype=float),
                        z=-V(d_phi, dtype=float),
                        y=V(d_y, dtype=float),
                        ybar=V(d_ybar, dtype=float),
                        r_norm=r_norm, d_norm=d_norm, rho=rho, lam=0.0, k=3)


@st.composite
def finite_iterate_pairs(draw):
    """Two iterates of one size (1 to 4) with every entry finite."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    dim = draw(st.integers(1, 4))

    def iterate():
        x, z, y, ybar = (V(draw(st.lists(finite, min_size=dim, max_size=dim)))
                         for _ in range(4))
        return IterateState(x=x, z=z, y=y, ybar=ybar, rho=draw(finite), lam=0.0,
                            k=1, r_norm=abs(draw(finite)), d_norm=abs(draw(finite)))

    return iterate(), iterate()


class TestPenaltyConfig:
    def test_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.kind == "fixed"
        assert cfg.rho0 is None
        assert cfg.q == 1.0

    def test_safeguard_constants(self):
        assert (ETA, MU_RB, EPS_CORR) == (2.0, 10.0, 0.2)
        assert (RHO_MIN, RHO_MAX) == (1e-8, 1e8)
        assert NBAR == 2
        assert FREEZE_AFTER == 1000
        assert TAU_MAX == 1e12
        assert REFACTOR_RATIO == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"kind": "newton"},
        {"rho0": -1.0},
        {"rho0": 1e-9},
        {"rho0": 1e9},
        {"rho0": RHO_MIN},
        {"rho0": RHO_MAX},
        {"rho0": math.nan},
        {"rho0": math.inf},
        {"q": 0.0},
        {"q": -1.0},
        {"q": math.nan},
        {"q": math.inf},
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            PenaltyConfig(**kwargs)

    def test_all_kinds_accepted(self):
        for kind in PENALTY_KINDS:
            assert PenaltyConfig(kind=kind).kind == kind


def spectrum_matrix(seed, n, spread, scale):
    """A symmetric C with eigenvalues scale * 10**(spread * t) for n values
    t in [0, 1], the two ends included; returns C and its extreme
    eigenvalues as drawn."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
    eigenvalues = 10.0 ** (spread * t)
    C = (q * eigenvalues) @ q.T
    return scale * 0.5 * (C + C.T), scale, scale * 10.0 ** spread


class TestInitialRho:
    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    def test_spectral_rules_start_at_one(self, kind):
        assert initial_rho(PenaltyConfig(kind=kind), np.diag([1e-6, 1e-2])) == 1.0

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_explicit_rho0_is_kept(self, kind):
        cfg = PenaltyConfig(kind=kind, rho0=2.5)
        assert initial_rho(cfg, np.diag([1e-6, 1e-2])) == 2.5

    @pytest.mark.parametrize("kind", ["fixed", "rb"])
    def test_geometric_mean_of_the_extreme_eigenvalues(self, kind):
        C = np.diag([1e-6, 3e-4, 1e-2])
        assert initial_rho(PenaltyConfig(kind=kind), C) == pytest.approx(1e-4)

    def test_clipped_to_the_rho_range(self):
        assert initial_rho(PenaltyConfig(), 1e-20 * np.eye(2)) == RHO_MIN
        assert initial_rho(PenaltyConfig(), 1e20 * np.eye(2)) == RHO_MAX

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["fixed", "rb"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           spread=st.floats(0.0, 6.0), log_scale=st.integers(-150, 150),
           log_factor=st.integers(-20, 20))
    @example(kind="fixed", seed=0, n=3, spread=6.0, log_scale=-150,
             log_factor=20)
    @example(kind="fixed", seed=0, n=3, spread=6.0, log_scale=150,
             log_factor=-20)
    def test_positive_definite_in_range_and_scale_equivariant(
            self, kind, seed, n, spread, log_scale, log_factor):
        # the condition number is at most 1e6, so the computed extreme
        # eigenvalues, and the start from them, are good to about 1e-9
        cfg = PenaltyConfig(kind=kind)
        C, low, high = spectrum_matrix(seed, n, spread, 10.0 ** log_scale)
        rho = initial_rho(cfg, C)
        assert type(rho) is float and RHO_MIN <= rho <= RHO_MAX
        exact = math.sqrt(low) * math.sqrt(high)
        if RHO_MIN < exact < RHO_MAX:
            assert rho == pytest.approx(exact, rel=1e-8)
        factor = 10.0 ** log_factor
        scaled = initial_rho(cfg, factor * C)
        assert type(scaled) is float and RHO_MIN <= scaled <= RHO_MAX
        if RHO_MIN < rho < RHO_MAX and RHO_MIN < scaled < RHO_MAX:
            assert scaled == pytest.approx(factor * rho, rel=1e-8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["fixed", "rb"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           rank=st.integers(1, 5), log_ridge=st.floats(-20.0, -8.0),
           log_scale=st.integers(-150, 150))
    # eigvalsh puts the smallest eigenvalue of this C at -4.1e-17
    @example(kind="fixed", seed=0, n=6, rank=5, log_ridge=-17.0, log_scale=0)
    def test_nearly_singular_covariance_in_range(
            self, kind, seed, n, rank, log_ridge, log_scale):
        # a rank-deficient Gram matrix plus a ridge of 1e-20 to 1e-8, kept
        # where PortfolioProblem's Cholesky test accepts it
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, min(rank, n - 1)))
        C = 10.0 ** log_scale * (B @ B.T + 10.0 ** log_ridge * np.eye(n))
        C = 0.5 * (C + C.T)
        try:
            PortfolioProblem(C, np.arange(n, dtype=float), 1.0)
        except ValueError:
            assume(False)
        rho = initial_rho(PenaltyConfig(kind=kind), C)
        assert type(rho) is float and RHO_MIN <= rho <= RHO_MAX

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rho0=st.one_of(st.none(), st.floats()))
    @example(rho0=math.nan)
    @example(rho0=math.inf)
    @example(rho0=RHO_MIN)
    @example(rho0=RHO_MAX)
    def test_config_accepts_none_and_open_range_only(self, rho0):
        if rho0 is None or RHO_MIN < rho0 < RHO_MAX:
            assert PenaltyConfig(rho0=rho0).rho0 is rho0
        else:
            with pytest.raises(ValueError):
                PenaltyConfig(rho0=rho0)


class TestRbUpdate:
    def test_primal_dominant_raises_rho(self):
        assert rb_update(1.0, 5.0, 0.4) == 2.0

    def test_dual_dominant_lowers_rho(self):
        assert rb_update(1.0, 0.4, 5.0) == 0.5

    def test_balanced_unchanged(self):
        assert rb_update(1.0, 1.0, 1.0) == 1.0

    def test_threshold_is_strict(self):
        assert rb_update(1.0, 10.0, 1.0) == 1.0
        assert rb_update(1.0, 1.0, 10.0) == 1.0

    def test_clipped_to_bounds(self):
        # one step of ETA from inside the range lands beyond each bound
        assert rb_update(0.75 * RHO_MAX, 100.0, 1.0) == RHO_MAX
        assert rb_update(1.5 * RHO_MIN, 1.0, 100.0) == RHO_MIN
        assert rb_update(RHO_MAX, 100.0, 1.0) == RHO_MAX
        assert rb_update(RHO_MIN, 1.0, 100.0) == RHO_MIN

    def test_monotone_in_primal_dual_ratio(self, rng):
        # a larger r/d ratio never produces a smaller rho
        ratios = np.sort(rng.uniform(0.01, 100.0, size=50))
        rhos = [rb_update(1.0, r, 1.0) for r in ratios]
        assert all(a <= b for a, b in zip(rhos, rhos[1:]))


class TestComputeYbar:
    def test_hand_value(self):
        out = compute_ybar(V([0.0, 0.0]), 2.0, V([1.0, 0.0]), V([0.0, 0.0]))
        np.testing.assert_array_equal(out, [-2.0, 0.0])

    def test_consensus_fixed_point(self, rng):
        y = rng.standard_normal(4)
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(compute_ybar(y, 3.0, x, x), y)

    def test_superposition(self, rng):
        y1, y2 = rng.standard_normal((2, 4))
        x, z = rng.standard_normal((2, 4))
        lhs = compute_ybar(y1 + y2, 1.7, x, z)
        rhs = compute_ybar(y1, 1.7, x, z) + compute_ybar(y2, 1.7, np.zeros(4),
                                                         np.zeros(4))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def gated_pairs(rng, dim, draws):
    """Random difference pairs whose correlation clears EPS_CORR, with bb1
    and bb2 computed here as references independent of _side_scalar."""
    for _ in range(draws):
        d = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        inner = d @ g
        if inner / math.sqrt((d @ d) * (g @ g)) > EPS_CORR:
            yield d, g, inner / (d @ d), (g @ g) / inner


class TestBbScalars:
    """bb1 = <d, g>/||d||^2 is _side_scalar at tau=0 and bb2 = ||g||^2/<d, g>
    its limit as tau grows; a side failing the gate gives None."""

    def test_hand_values(self):
        d, g = V([1.0, 1.0]), V([2.0, 0.0])  # correlation 1/sqrt(2)
        assert _side_scalar(d, g, 0.0) == pytest.approx(1.0)
        assert _side_scalar(d, g, TAU_MAX) == pytest.approx(2.0)

    def test_collinear(self):
        d, g = V([1.0, 0.0]), V([2.0, 0.0])
        assert _side_scalar(d, g, 0.0) == pytest.approx(2.0)
        assert _side_scalar(d, g, TAU_MAX) == pytest.approx(2.0)

    def test_orthogonal_reports_safeguard_signals(self):
        for tau in (None, 0.0, 1.0):
            assert _side_scalar(V([1.0, 0.0]), V([0.0, 1.0]), tau) is None

    def test_zero_vector_rejected(self):
        for tau in (None, 1.0):
            assert _side_scalar(V([0.0, 0.0]), V([1.0, 0.0]), tau) is None
            assert _side_scalar(V([1.0, 0.0]), V([0.0, 0.0]), tau) is None

    def test_bb1_never_exceeds_bb2_under_positive_curvature(self, rng):
        for d, g, bb1, bb2 in gated_pairs(rng, 6, 200):
            assert bb1 <= bb2 * (1 + 1e-12)
            assert _side_scalar(d, g, 0.0) == pytest.approx(bb1, rel=1e-14)


class TestTauUpdate:
    def test_linear_exponent(self):
        assert tau_update(4.0, 1.0, 1.0) == 4.0

    def test_square_root_exponent(self):
        assert tau_update(4.0, 1.0, 0.5) == 2.0

    def test_balanced_residuals(self, rng):
        for q in rng.uniform(0.1, 5.0, size=10):
            assert tau_update(0.37, 0.37, float(q)) == pytest.approx(1.0)

    def test_zero_dual_returns_cap(self):
        assert tau_update(1.0, 0.0, 1.0) == TAU_MAX

    def test_capped_at_tau_max(self):
        # (1e7)^2 = 1e14 exceeds the cap; just below it passes through
        assert tau_update(1e7, 1.0, 2.0) == TAU_MAX
        assert tau_update(9.9e5, 1.0, 2.0) == pytest.approx(9.801e11)

    def test_overflowing_power_returns_cap(self):
        # 10.0 ** 1000.0 raises OverflowError instead of giving inf
        assert tau_update(10.0, 1.0, 1000.0) == TAU_MAX

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(0.0, sys.float_info.max),
           d=st.floats(0.0, sys.float_info.max),
           q=st.floats(0.0, sys.float_info.max, exclude_min=True))
    @example(r=10.0, d=1.0, q=1000.0)
    @example(r=0.0, d=0.0, q=1.0)
    @example(r=sys.float_info.max, d=5e-324, q=1.0)
    def test_bounded_and_bitwise_the_power(self, r, d, q):
        tau = tau_update(r, d, q)
        assert 0.0 <= tau <= TAU_MAX
        try:
            power = (r / d) ** q
        except (ZeroDivisionError, OverflowError):
            return
        if power < TAU_MAX:  # finite and under the cap
            assert tau.hex() == power.hex()


class TestRbbScalar:
    def test_hand_value(self):
        assert _side_scalar(V([1.0, 1.0]), V([2.0, 0.0]), 1.0) == pytest.approx(1.5)

    def test_tau_zero_is_bb1(self, rng):
        for d, g, bb1, _ in gated_pairs(rng, 5, 20):
            assert _side_scalar(d, g, 0.0) == pytest.approx(bb1, rel=1e-14)

    def test_large_tau_approaches_bb2(self, rng):
        for d, g, _, bb2 in gated_pairs(rng, 5, 20):
            assert _side_scalar(d, g, 1e12) == pytest.approx(bb2, rel=1e-6)

    def test_nonpositive_curvature_rejected(self):
        for tau in (None, 1.0):
            assert _side_scalar(V([1.0, 0.0]), V([-1.0, 0.0]), tau) is None

    def test_interpolates_monotonically(self, rng):
        taus = [0.0, 0.1, 1.0, 10.0, 1e6, 1e12]
        for d, g, bb1, bb2 in gated_pairs(rng, 4, 50):
            values = [_side_scalar(d, g, t) for t in taus]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            assert all(bb1 - 1e-12 <= v <= bb2 + 1e-12 for v in values)

    def test_overflowing_denominator_is_rescaled(self):
        # at scale 1e153 the denominator 2e306 + 1e3 * 2e306 overflows; the
        # scalar does not, and matches the unscaled one
        d, g = V([1.0, 1.0]), V([2.0, 0.0])
        out = _side_scalar(1e153 * d, 1e153 * g, 1e3)
        assert out == pytest.approx((2.0 + 4e3) / (2.0 + 2e3), rel=1e-15)
        assert out == pytest.approx(_side_scalar(d, g, 1e3), rel=1e-15)


class TestHybridScalar:
    def test_separated_scalars_take_long_minus_half_short(self):
        # bb1=1, bb2=2: long step 1, short step 0.5; 2*0.5 is not > 1, so
        # the step is 1 - 0.25 and the scalar its reciprocal
        out = _side_scalar(V([1.0, 1.0]), V([2.0, 0.0]), None)
        assert out == pytest.approx(4.0 / 3.0)

    def test_close_scalars_take_short_step(self):
        # bb1 = bb2 = 2
        out = _side_scalar(V([1.0, 0.0]), V([2.0, 0.0]), None)
        assert out == pytest.approx(2.0)

    def test_underflowing_scalars_give_zero(self):
        # bb1 = bb2 = 1e-315: both steps overflow, and so does the hybrid's
        assert _side_scalar(V([1e154, 0.0]), V([1e-161, 0.0]), None) == 0.0

    def test_overflowing_scalars_give_inf(self):
        # bb1 = bb2 = 1e310: both steps are zero, and so is the hybrid's
        assert _side_scalar(V([1e-160, 0.0]), V([1e150, 0.0]), None) == math.inf


class TestSpectralRho:
    def test_beta_only_branch(self):
        # alpha side orthogonal (corr 0), beta side collinear with scalar 4
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[0.0, 1.0], d_y=[1.0, 0.0],
                                 d_psi=[4.0, 0.0], d_phi=[4.0, 0.0])
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == pytest.approx(0.25)

    def test_alpha_only_branch(self):
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[0.0, 1.0],
                                 d_psi=[4.0, 0.0], d_phi=[4.0, 0.0])
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == pytest.approx(0.25)

    def test_both_sides_branch(self):
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[2.0, 0.0],
                                 d_psi=[4.0, 0.0], d_phi=[8.0, 0.0])
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == pytest.approx(0.25)

    def test_neither_side_keeps_rho(self):
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[0.0, 1.0], d_y=[0.0, 1.0],
                                 d_psi=[4.0, 0.0], d_phi=[4.0, 0.0],
                                 rho=0.7)
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == 0.7

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    @pytest.mark.parametrize("kind, accepted", [("bb", 0.9799999999999998),
                                                ("rbb", 0.07692307692307693)])
    def test_correlation_gate_is_strict(self, side, kind, accepted):
        # <d, g> = 1 and ||d|| ||g|| = 5, so the correlation is exactly
        # EPS_CORR in floating point; one ulp more in g[0] clears the gate
        cfg = PenaltyConfig(kind=kind)
        zero = [0.0] * 4

        def rho_with(g0):
            dual, grad = [1.0, 0.0, 0.0, 0.0], [g0, 4.0, 2.0, 2.0]
            if side == "alpha":
                snap = state_from_deltas(dual, zero, grad, zero, rho=0.7)
            else:
                snap = state_from_deltas(zero, dual, zero, grad, rho=0.7)
            return spectral_rho(zero_state(dim=4), snap, cfg)

        assert 1.0 / (1.0 * math.sqrt(25.0)) == EPS_CORR
        assert rho_with(1.0) == 0.7
        assert rho_with(float(np.nextafter(1.0, 2.0))) == accepted

    def test_zero_differences_keep_rho(self):
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[0.0, 0.0], d_y=[0.0, 0.0],
                                 d_psi=[0.0, 0.0], d_phi=[0.0, 0.0],
                                 rho=1.3)
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == 1.3

    def test_result_clipped(self):
        # collinear sides with curvature scalars 1e10 and 1e-10 drive the
        # unclipped rho to 1e-10 and 1e10, beyond each end of the range
        cfg = PenaltyConfig(kind="bb")
        low = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[1.0, 0.0],
                                d_psi=[1e10, 0.0], d_phi=[1e10, 0.0])
        assert spectral_rho(zero_state(), low, cfg) == RHO_MIN
        high = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[1.0, 0.0],
                                 d_psi=[1e-10, 0.0], d_phi=[1e-10, 0.0])
        assert spectral_rho(zero_state(), high, cfg) == RHO_MAX

    def test_memory_rolls_forward(self):
        pen = PenaltyState(PenaltyConfig(kind="bb"))
        pen.update(zero_state())
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[2.0, 0.0],
                                 d_psi=[4.0, 0.0], d_phi=[8.0, 0.0], rho=2.0)
        assert pen.update(snap) == pytest.approx(0.25)
        assert pen.prev is snap

    def test_wrong_kind_rejected(self):
        cfg = PenaltyConfig(kind="rb")
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[1.0, 0.0],
                                 d_psi=[1.0, 0.0], d_phi=[1.0, 0.0])
        with pytest.raises(ValueError, match="kind"):
            spectral_rho(zero_state(), snap, cfg)

    def test_rbb_uses_residual_ratio_tau(self):
        cfg = PenaltyConfig(kind="rbb")
        snap = state_from_deltas(d_ybar=[1.0, 1.0], d_y=[1.0, 1.0],
                                 d_psi=[2.0, 0.0], d_phi=[2.0, 0.0],
                                 r_norm=4.0, d_norm=1.0)
        rho = spectral_rho(zero_state(), snap, cfg)
        # both sides are (1,1) vs (2,0): rbb with tau=4 gives (2+16)/(2+8)
        assert rho == pytest.approx(1.0 / 1.8)

    def test_scale_invariance(self, rng):
        cfg = PenaltyConfig(kind="rbb")
        base = state_from_deltas(d_ybar=rng.standard_normal(5),
                                 d_y=rng.standard_normal(5),
                                 d_psi=rng.standard_normal(5),
                                 d_phi=rng.standard_normal(5),
                                 r_norm=0.9, d_norm=0.4)
        rho_base = spectral_rho(zero_state(dim=5), base, cfg)
        for s in (1e-3, 1e3):
            scaled = IterateState(x=s * base.x, z=s * base.z,
                                  y=s * base.y, ybar=s * base.ybar,
                                  r_norm=s * base.r_norm,
                                  d_norm=s * base.d_norm, rho=base.rho,
                                  lam=0.0, k=base.k)
            rho_scaled = spectral_rho(zero_state(dim=5), scaled, cfg)
            assert abs(rho_scaled - rho_base) <= 1e-12 * abs(rho_base)

    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    @pytest.mark.parametrize("deltas", [
        # bb's two steps both overflow, and their hybrid would be inf - inf
        ([1e154, 0.0], [0.0, 0.0], [1e-161, 0.0], [0.0, 0.0]),
        # alpha = beta = 1e-200, whose product underflows to zero
        ([1e100, 0.0], [1e100, 0.0], [1e-100, 0.0], [1e-100, 0.0]),
    ])
    def test_underflowing_curvature_gives_rho_max(self, kind, deltas):
        snap = state_from_deltas(*deltas)
        assert spectral_rho(zero_state(), snap, PenaltyConfig(kind=kind)) == RHO_MAX

    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    def test_overflowing_curvature_gives_rho_min(self, kind):
        snap = state_from_deltas([1e-160, 0.0], [0.0, 0.0], [1e150, 0.0], [0.0, 0.0])
        assert spectral_rho(zero_state(), snap, PenaltyConfig(kind=kind)) == RHO_MIN

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["bb", "rbb"]), pair=finite_iterate_pairs())
    @example(kind="bb", pair=(zero_state(), state_from_deltas(
        [1e154, 0.0], [0.0, 0.0], [1e-161, 0.0], [0.0, 0.0])))
    @example(kind="bb", pair=(zero_state(), state_from_deltas(
        [1e100, 0.0], [1e100, 0.0], [1e-100, 0.0], [1e-100, 0.0])))
    @example(kind="rbb", pair=(zero_state(), state_from_deltas(
        [1e100, 0.0], [1e100, 0.0], [1e-100, 0.0], [1e-100, 0.0])))
    def test_finite_input_gives_rho_in_range(self, kind, pair):
        # silent, under the suite's warnings-as-errors: a difference or a
        # squared norm that overflows, or an inner product that turns NaN,
        # makes the gate reject that side
        rho = spectral_rho(*pair, PenaltyConfig(kind=kind))
        assert type(rho) is float and RHO_MIN <= rho <= RHO_MAX


class TestPenaltyState:
    def test_fixed_has_no_due_iteration(self):
        state = PenaltyState(PenaltyConfig(kind="fixed"))
        assert list(state.due) == []
        assert not state.reads_ybar

    @pytest.mark.parametrize("kind", ["rb", "bb", "rbb"])
    def test_due_every_nbar_th_iteration_through_the_horizon(self, kind):
        state = PenaltyState(PenaltyConfig(kind=kind))
        assert list(state.due) == list(range(1, FREEZE_AFTER + 1, NBAR))
        assert state.reads_ybar == (kind != "rb")

    def test_rb_delegates(self):
        state = PenaltyState(PenaltyConfig(kind="rb"))
        snap = state_from_deltas([1, 0], [1, 0], [1, 0], [1, 0],
                                 r_norm=5.0, d_norm=0.4, rho=1.0)
        assert state.update(snap) == 2.0

    def test_spectral_first_visit_seeds_memory(self):
        state = PenaltyState(PenaltyConfig(kind="bb"))
        snap = state_from_deltas([1, 0], [2, 0], [4, 0], [8, 0], rho=1.0)
        assert state.prev is None
        assert state.update(snap) == 1.0
        assert state.prev is snap

    def test_spectral_second_visit_updates(self):
        state = PenaltyState(PenaltyConfig(kind="bb"))
        zero = state_from_deltas([0, 0], [0, 0], [0, 0], [0, 0], rho=1.0)
        state.update(zero)
        snap = state_from_deltas([1, 0], [2, 0], [4, 0], [8, 0], rho=2.0)
        assert state.update(snap) == pytest.approx(0.25)


class TestRefactorRatio:
    """A spectral proposal strictly within a factor REFACTOR_RATIO of the
    current rho keeps the current rho; rb is exempt."""

    @staticmethod
    def second_visit(monkeypatch, kind, rho, proposal):
        # the proposal stands in for spectral_rho's (clipped) result
        monkeypatch.setattr(penalty, "spectral_rho", lambda *args: proposal)
        pen = PenaltyState(PenaltyConfig(kind=kind))
        pen.update(zero_state())
        snap = state_from_deltas([1, 0], [2, 0], [4, 0], [8, 0], rho=rho)
        return pen, snap, pen.update(snap)

    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    @pytest.mark.parametrize("rho", [1.0, 0.3, 7e-5])
    def test_factor_of_ratio_moves_and_just_inside_does_not(self, monkeypatch,
                                                            kind, rho):
        for edge, inward in ((rho * REFACTOR_RATIO, 0.0),
                             (rho / REFACTOR_RATIO, math.inf)):
            assert self.second_visit(monkeypatch, kind, rho, edge)[2] == edge
            inside = float(np.nextafter(edge, inward))
            assert self.second_visit(monkeypatch, kind, rho, inside)[2] == rho

    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    def test_declined_update_still_advances_memory(self, monkeypatch, kind):
        pen, snap, rho = self.second_visit(monkeypatch, kind, 1.0, 2.0)
        assert rho == 1.0
        assert pen.prev is snap

    @pytest.mark.parametrize("kind", ["bb", "rbb"])
    @pytest.mark.parametrize("scale, bound, rho, expected", [
        (1e9, RHO_MIN, 3 * RHO_MIN, 3 * RHO_MIN),
        (1e9, RHO_MIN, 10 * RHO_MIN, RHO_MIN),
        (1e-9, RHO_MAX, RHO_MAX / 3, RHO_MAX / 3),
        (1e-9, RHO_MAX, RHO_MAX / 10, RHO_MAX),
    ], ids=["min-declined", "min-moves", "max-declined", "max-moves"])
    def test_clipped_proposal_follows_the_rule(self, kind, scale, bound, rho,
                                               expected):
        # curvature of scale on both sides proposes rho = 1/scale, which the
        # clip takes to the bound; the rule compares the clipped value
        cfg = PenaltyConfig(kind=kind)
        snap = state_from_deltas([1, 0], [1, 0], [scale, 0], [scale, 0], rho=rho)
        assert spectral_rho(zero_state(), snap, cfg) == bound
        pen = PenaltyState(cfg)
        pen.update(zero_state())
        assert pen.update(snap) == expected

    def test_rb_ignores_the_rule(self):
        assert ETA < REFACTOR_RATIO
        pen = PenaltyState(PenaltyConfig(kind="rb"))
        for r_norm, d_norm, expected in ((5.0, 0.4, 0.6), (0.4, 5.0, 0.15)):
            snap = state_from_deltas([1, 0], [1, 0], [1, 0], [1, 0],
                                     r_norm=r_norm, d_norm=d_norm, rho=0.3)
            assert pen.update(snap) == expected
