import math

import numpy as np
import pytest

from sparsefolio.admm_engine import IterateState
from sparsefolio.penalty import (
    PENALTY_KINDS,
    TAU_MAX_DEFAULT,
    BbScalars,
    PenaltyConfig,
    PenaltyState,
    _hybrid_scalar,
    bb_scalars,
    compute_ybar,
    rb_update,
    rbb_scalar,
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


class TestPenaltyConfig:
    def test_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.kind == "fixed"
        assert cfg.rho0 == 1.0
        assert cfg.eta == 2.0
        assert cfg.mu_rb == 10.0
        assert cfg.eps_corr == 0.2
        assert cfg.q == 1.0
        assert cfg.nbar == 2
        assert cfg.rho_min == 1e-8
        assert cfg.rho_max == 1e8
        assert cfg.freeze_after == 1000
        assert cfg.tau_max == 1e12

    @pytest.mark.parametrize("kwargs", [
        {"kind": "newton"},
        {"rho0": -1.0},
        {"rho0": 1e-9},
        {"rho0": 1e9},
        {"eta": 1.0},
        {"mu_rb": 0.5},
        {"eps_corr": 0.0},
        {"eps_corr": 1.0},
        {"q": 0.0},
        {"nbar": 0},
        {"freeze_after": -1},
        {"tau_max": 0.0},
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            PenaltyConfig(**kwargs)

    def test_all_kinds_accepted(self):
        for kind in PENALTY_KINDS:
            assert PenaltyConfig(kind=kind).kind == kind


class TestRbUpdate:
    def test_primal_dominant_raises_rho(self):
        cfg = PenaltyConfig(kind="rb")
        assert rb_update(1.0, 5.0, 0.4, cfg) == 2.0

    def test_dual_dominant_lowers_rho(self):
        cfg = PenaltyConfig(kind="rb")
        assert rb_update(1.0, 0.4, 5.0, cfg) == 0.5

    def test_balanced_unchanged(self):
        cfg = PenaltyConfig(kind="rb")
        assert rb_update(1.0, 1.0, 1.0, cfg) == 1.0

    def test_threshold_is_strict(self):
        cfg = PenaltyConfig(kind="rb")
        assert rb_update(1.0, 10.0, 1.0, cfg) == 1.0
        assert rb_update(1.0, 1.0, 10.0, cfg) == 1.0

    def test_clipped_to_bounds(self):
        cfg = PenaltyConfig(kind="rb", rho0=1.0, rho_min=0.5, rho_max=2.0,
                            eta=4.0)
        assert rb_update(1.0, 100.0, 1.0, cfg) == 2.0
        assert rb_update(1.0, 1.0, 100.0, cfg) == 0.5

    def test_monotone_in_primal_dual_ratio(self, rng):
        # a larger r/d ratio never produces a smaller rho
        cfg = PenaltyConfig(kind="rb")
        ratios = np.sort(rng.uniform(0.01, 100.0, size=50))
        rhos = [rb_update(1.0, r, 1.0, cfg) for r in ratios]
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


class TestBbScalars:
    def test_hand_values(self):
        out = bb_scalars(V([1.0, 1.0]), V([2.0, 0.0]))
        assert out.bb1 == pytest.approx(1.0)
        assert out.bb2 == pytest.approx(2.0)
        assert out.corr == pytest.approx(1 / math.sqrt(2))

    def test_collinear(self):
        out = bb_scalars(V([1.0, 0.0]), V([2.0, 0.0]))
        assert out.bb1 == pytest.approx(2.0)
        assert out.bb2 == pytest.approx(2.0)
        assert out.corr == pytest.approx(1.0)

    def test_orthogonal_reports_safeguard_signals(self):
        out = bb_scalars(V([1.0, 0.0]), V([0.0, 1.0]))
        assert out.bb1 == 0.0
        assert out.bb2 == math.inf
        assert out.corr == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            bb_scalars(V([0.0, 0.0]), V([1.0, 0.0]))

    def test_bb1_never_exceeds_bb2_under_positive_curvature(self, rng):
        for _ in range(200):
            d = rng.standard_normal(6)
            g = rng.standard_normal(6)
            if d @ g <= 1e-12:
                continue
            out = bb_scalars(d, g)
            assert out.bb1 <= out.bb2 * (1 + 1e-12)


class TestTauUpdate:
    def test_linear_exponent(self):
        assert tau_update(4.0, 1.0, 1.0) == 4.0

    def test_square_root_exponent(self):
        assert tau_update(4.0, 1.0, 0.5) == 2.0

    def test_balanced_residuals(self, rng):
        for q in rng.uniform(0.1, 5.0, size=10):
            assert tau_update(0.37, 0.37, float(q)) == pytest.approx(1.0)

    def test_zero_dual_returns_cap(self):
        assert tau_update(1.0, 0.0, 1.0) == TAU_MAX_DEFAULT
        assert tau_update(1.0, 0.0, 1.0, tau_max=7.0) == 7.0

    def test_capped_at_tau_max(self):
        assert tau_update(1e20, 1.0, 2.0) == TAU_MAX_DEFAULT


class TestRbbScalar:
    def test_hand_value(self):
        assert rbb_scalar(V([1.0, 1.0]), V([2.0, 0.0]), 1.0) == pytest.approx(1.5)

    def test_tau_zero_is_bb1(self, rng):
        for _ in range(20):
            d = rng.standard_normal(5)
            g = rng.standard_normal(5)
            if d @ g <= 1e-9:
                continue
            ref = bb_scalars(d, g)
            assert rbb_scalar(d, g, 0.0) == pytest.approx(ref.bb1, rel=1e-14)

    def test_large_tau_approaches_bb2(self, rng):
        for _ in range(20):
            d = rng.standard_normal(5)
            g = rng.standard_normal(5)
            if d @ g <= 1e-9:
                continue
            ref = bb_scalars(d, g)
            assert rbb_scalar(d, g, 1e12) == pytest.approx(ref.bb2, rel=1e-6)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(ValueError, match="curvature"):
            rbb_scalar(V([1.0, 0.0]), V([-1.0, 0.0]), 1.0)

    def test_interpolates_monotonically(self, rng):
        taus = [0.0, 0.1, 1.0, 10.0, 1e6, 1e12]
        for _ in range(50):
            d = rng.standard_normal(4)
            g = rng.standard_normal(4)
            if d @ g <= 1e-9:
                continue
            ref = bb_scalars(d, g)
            values = [rbb_scalar(d, g, t) for t in taus]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            assert all(ref.bb1 - 1e-12 <= v <= ref.bb2 + 1e-12 for v in values)


class TestHybridScalar:
    def test_separated_scalars_take_long_minus_half_short(self):
        # bb1=1, bb2=2: long step 1, short step 0.5; 2*0.5 is not > 1, so
        # the step is 1 - 0.25 and the scalar its reciprocal
        out = _hybrid_scalar(BbScalars(bb1=1.0, bb2=2.0, corr=0.7))
        assert out == pytest.approx(4.0 / 3.0)

    def test_close_scalars_take_short_step(self):
        out = _hybrid_scalar(BbScalars(bb1=2.0, bb2=2.0, corr=1.0))
        assert out == pytest.approx(2.0)


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

    def test_zero_differences_keep_rho(self):
        cfg = PenaltyConfig(kind="bb")
        snap = state_from_deltas(d_ybar=[0.0, 0.0], d_y=[0.0, 0.0],
                                 d_psi=[0.0, 0.0], d_phi=[0.0, 0.0],
                                 rho=1.3)
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == 1.3

    def test_result_clipped(self):
        cfg = PenaltyConfig(kind="bb", rho0=1.0, rho_min=0.3, rho_max=3.0)
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[2.0, 0.0],
                                 d_psi=[4.0, 0.0], d_phi=[8.0, 0.0])
        rho = spectral_rho(zero_state(), snap, cfg)
        assert rho == 0.3

    def test_memory_rolls_forward(self):
        pen = PenaltyState(PenaltyConfig(kind="bb"))
        pen.update(zero_state())
        snap = state_from_deltas(d_ybar=[1.0, 0.0], d_y=[2.0, 0.0],
                                 d_psi=[4.0, 0.0], d_phi=[8.0, 0.0])
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


class TestPenaltyState:
    def test_fixed_returns_current_rho(self):
        state = PenaltyState(PenaltyConfig(kind="fixed"))
        snap = state_from_deltas([1, 0], [1, 0], [1, 0], [1, 0], rho=2.5)
        assert state.update(snap) == 2.5

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
        snap = state_from_deltas([1, 0], [2, 0], [4, 0], [8, 0], rho=1.0)
        assert state.update(snap) == pytest.approx(0.25)
