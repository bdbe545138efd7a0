"""Noise calibration, privatization, utility gate, budget decay."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor.config import build_experiment, config_from_dict
from fedmentor.dp import (
    DEFAULT_BUDGETS,
    BudgetConfig,
    NoiseCalibration,
    apply_utility_gate,
    decay_budgets,
    noise_scales,
    privatize,
)
from fedmentor.linalg import Rng
from fedmentor.lora import AdapterSet, serialize
from oracles import reference_band, reference_privatize, reference_std, zero_adapters

EPS = {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}
NAN, INF = float("nan"), float("inf")


def zero_set(n_layers: int, d: int, k: int, r: int) -> AdapterSet:
    return zero_adapters([(r, d, k)] * n_layers)


def static_noise(sigma: float) -> tuple[float, NoiseCalibration, float]:
    """The eps, calibration and gate multiplier a static_noise run starts with."""
    cfg = config_from_dict(
        {"data": {"scale": 0.01}, "strategy": {"kind": "static_noise", "sigma": sigma}}
    )
    server = build_experiment(cfg).server
    return server.budgets["IRF"], server.calibration, server.scale_multiplier


@st.composite
def adapter_sets(draw) -> AdapterSet:
    """One to seven layers of random shapes; entries include -0.0 and exact zeros."""
    factors = []
    for _ in range(draw(st.integers(1, 7))):
        d, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        r = draw(st.integers(1, min(d, k)))
        entries = st.sampled_from([-0.0, 0.0]) | st.floats(-3.0, 3.0, allow_subnormal=False)
        a = draw(st.lists(entries, min_size=r * k, max_size=r * k))
        b = draw(st.lists(entries, min_size=d * r, max_size=d * r))
        factors.append((np.reshape(a, (r, k)), np.reshape(b, (d, r))))
    return AdapterSet.from_factors(factors)


class TestNoiseStd:
    """A matrix's std: its ``noise_scales`` entry times the multiplier, over eps."""

    def test_early_a_with_strict_budget(self):
        # 0.01 * 1.2 / 0.5; segment 1 is layer 0's A
        assert noise_scales(NoiseCalibration(), 3)[1] / 0.5 == pytest.approx(0.024, abs=1e-15)

    def test_late_b_with_loose_budget(self):
        # 0.005 * 0.8 / 2.0; segment 4 is layer 2's B
        assert noise_scales(NoiseCalibration(), 3)[4] / 2.0 == pytest.approx(0.002, abs=1e-15)

    def test_zero_multiplier_kills_noise(self):
        s = AdapterSet(((2, 4, 3),) * 3, Rng(3).standard_normal(42))
        out = privatize(s, 0.7, NoiseCalibration(), 0.0, Rng(4))
        assert serialize(out) == serialize(s)

    def test_nonpositive_eps_rejected(self):
        for bad in (0.0, -1.0, NAN, INF):
            with pytest.raises(ValueError, match="eps must be finite and > 0"):
                privatize(zero_set(3, 4, 4, 2), bad, NoiseCalibration(), 1.0, Rng(0))

    def test_strictly_decreasing_in_eps(self):
        cal = NoiseCalibration()
        noise = [
            np.abs(privatize(zero_set(3, 4, 4, 2), e, cal, 1.0, Rng(5)).vec)
            for e in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all((a > b).all() for a, b in zip(noise, noise[1:]))

    def test_std_times_eps_constant(self):
        cal = NoiseCalibration()
        scaled = [
            privatize(zero_set(3, 4, 4, 2), e, cal, 1.0, Rng(6)).vec * e for e in (0.3, 0.9, 2.7)
        ]
        for v in scaled[1:]:
            np.testing.assert_allclose(v, scaled[0], rtol=1e-12, atol=0)

    def test_depth_and_kind_ordering(self):
        scales = noise_scales(NoiseCalibration(), 3)
        a, b = scales[1::2], scales[0::2]
        assert a[0] > a[1] > a[2]
        assert (a > b).all()

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3, 4, 5, 7, 12])
    def test_scales_match_the_reference_bitwise(self, n_layers):
        cal = NoiseCalibration(early=0.03, middle=0.7, late=1.1, multiplier_a=1.3, multiplier_b=0.6)
        expected = [
            reference_std(cal, reference_band(i, n_layers), kind, 0.9, 0.8)
            for i in range(n_layers)
            for kind in ("B", "A")
        ]
        stds = noise_scales(cal, n_layers) * 0.8 / 0.9
        assert stds.dtype == np.float64
        assert stds.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestCalibrationValidation:
    def test_gate_factor_bounds(self):
        with pytest.raises(ValueError, match="gate_factor"):
            NoiseCalibration(gate_factor=0.0)
        with pytest.raises(ValueError, match="gate_factor"):
            NoiseCalibration(gate_factor=1.0)

    def test_negative_multiplier_rejected(self):
        for name in ("early", "middle", "late", "multiplier_a", "multiplier_b"):
            for bad in (-0.1, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
                    NoiseCalibration(**{name: bad})
            NoiseCalibration(**{name: 0.0})

    def test_clip_norm_must_be_positive(self):
        with pytest.raises(ValueError, match="clip_norm"):
            NoiseCalibration(clip_norm=0.0)

    @pytest.mark.parametrize("bad", ["0.1", True])
    @pytest.mark.parametrize(
        "name",
        ["early", "middle", "late", "multiplier_a", "multiplier_b", "gate_factor",
         "nominal_delta", "clip_norm"],
    )
    def test_non_number_is_named_as_the_config_walk_names_it(self, name, bad):
        with pytest.raises(TypeError) as info:
            NoiseCalibration(**{name: bad})
        assert str(info.value) == f"{name}: expected float, got {bad!r}"

    def test_nominal_delta_in_open_unit_interval(self):
        for bad in (-0.5, 0.0, 1.0, 2.0, NAN, INF):
            with pytest.raises(ValueError, match=r"^nominal_delta must be in \(0, 1\)"):
                NoiseCalibration(nominal_delta=bad)
        NoiseCalibration(nominal_delta=0.999)


class TestPrivatize:
    def test_zero_multiplier_is_identity(self):
        s = zero_set(3, 6, 5, 2)
        out = privatize(s, EPS["IRF"], NoiseCalibration(), 0.0, Rng(1))
        assert out == s

    def test_empirical_std_matches_formula(self):
        # One early layer in a 3-layer set; 500x200 = 1e5 entries per matrix.
        s = zero_set(3, 500, 200, 200)
        out = privatize(s, EPS["IRF"], NoiseCalibration(), 1.0, Rng(99))
        a_noise, _ = out.factors()[0]  # early layer, kind A
        assert abs(a_noise.std() - 0.024) / 0.024 < 0.02

    def test_same_seed_identical_output(self):
        s = zero_set(2, 8, 8, 2)
        one = privatize(s, EPS["Dreaddit"], NoiseCalibration(), 1.0, Rng(5, "p"))
        two = privatize(s, EPS["Dreaddit"], NoiseCalibration(), 1.0, Rng(5, "p"))
        assert one == two

    def test_input_set_unmodified(self):
        s = zero_set(2, 8, 8, 2)
        privatize(s, EPS["MultiWD"], NoiseCalibration(), 1.0, Rng(6))
        assert s == zero_set(2, 8, 8, 2)

    def test_shapes_preserved(self):
        s = zero_set(3, 7, 4, 2)
        out = privatize(s, EPS["IRF"], NoiseCalibration(), 1.0, Rng(2))
        assert s.conformable_with(out)

    def test_clipping_bounds_frobenius_norm(self):
        big = AdapterSet.from_factors([(np.full((2, 4), 10.0), np.full((4, 2), 10.0))] * 2)
        cal = NoiseCalibration(clip_norm=1.0)
        out = privatize(big, EPS["IRF"], cal, 0.0, Rng(3))
        for a, b in out.factors():
            assert np.sqrt((a**2).sum()) <= 1.0 + 1e-12
            assert np.sqrt((b**2).sum()) <= 1.0 + 1e-12

    def test_static_noise_ignores_position_and_kind(self):
        s = zero_set(3, 300, 300, 100)
        out = privatize(s, *static_noise(0.008), Rng(11))
        for a, b in out.factors():  # early, middle, late all get the same sigma
            assert abs(a.std() - 0.008) / 0.008 < 0.02
            assert abs(b.std() - 0.008) / 0.008 < 0.02

    def test_static_noise_zero_sigma_identity(self):
        s = zero_set(2, 5, 5, 2)
        assert privatize(s, *static_noise(0.0), Rng(1)) == s

    def test_zero_std_layers_keep_their_bits(self):
        # Early layer at base scale 0: its -0.0 entries must not become +0.0.
        s = AdapterSet.from_factors([(np.full((2, 3), -0.0), np.full((4, 2), -0.0))] * 3)
        cal = NoiseCalibration(early=0.0)
        out = privatize(s, EPS["IRF"], cal, 1.0, Rng(4))
        early = slice(0, 14)
        assert out.vec[early].tobytes() == s.vec[early].tobytes()
        assert (out.vec[14:] != 0.0).all()

    @settings(max_examples=80, deadline=None)
    @given(
        s=adapter_sets(),
        eps=st.floats(0.05, 5.0),
        clip_norm=st.none() | st.floats(0.01, 5.0),
        zero_band=st.none() | st.sampled_from(["early", "middle", "late"]),
        scale_multiplier=st.sampled_from([1.0, 0.8, 0.0]),
        static=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_matrix_reference_bitwise_property(
        self, s, eps, clip_norm, zero_band, scale_multiplier, static, seed
    ):
        n_layers = len(s.shapes)
        if static:
            out = privatize(s, *static_noise(eps / 100), Rng(seed, "p"))
            ref = reference_privatize(s, lambda li, kind: eps / 100, None, Rng(seed, "p"))
        else:
            zeroed = {} if zero_band is None else {zero_band: 0.0}
            cal = NoiseCalibration(**zeroed, clip_norm=clip_norm)
            out = privatize(s, eps, cal, scale_multiplier, Rng(seed, "p"))
            ref = reference_privatize(
                s,
                lambda li, kind: reference_std(
                    cal, reference_band(li, n_layers), kind, eps, scale_multiplier
                ),
                clip_norm,
                Rng(seed, "p"),
            )
        assert serialize(out) == serialize(ref)


class TestUtilityGate:
    def test_below_threshold_triggers(self):
        mult, triggered = apply_utility_gate(1.0, 0.8, {"acc": 0.70}, {"acc": 0.75})
        assert triggered
        assert mult == pytest.approx(0.8, abs=0)

    def test_boundary_is_strict(self):
        mult, triggered = apply_utility_gate(1.0, 0.8, {"acc": 0.75}, {"acc": 0.75})
        assert not triggered
        assert mult == 1.0

    def test_two_triggers_compose(self):
        mult = 1.0
        mult, _ = apply_utility_gate(mult, 0.8, {"acc": 0.1}, {"acc": 0.5})
        mult, _ = apply_utility_gate(mult, 0.8, {"acc": 0.1}, {"acc": 0.5})
        assert mult == pytest.approx(0.64, abs=1e-15)

    def test_missing_metric_rejected(self):
        with pytest.raises(KeyError):
            apply_utility_gate(1.0, 0.8, {"acc": 0.9}, {"other": 0.5})

    def test_single_application_even_if_all_fail(self):
        mult, triggered = apply_utility_gate(1.0, 0.8, {"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0})
        assert triggered
        assert mult == 0.8

    def test_multiplier_is_power_of_gate_factor(self):
        mult = 1.0
        fires = 0
        for i in range(10):
            utilities = {"acc": 0.4 if i % 3 == 0 else 0.9}
            mult, triggered = apply_utility_gate(mult, 0.8, utilities, {"acc": 0.5})
            fires += int(triggered)
        assert mult == pytest.approx(0.8**fires, rel=1e-12)


class TestBudgets:
    def test_defaults_match_protocol(self):
        assert DEFAULT_BUDGETS == {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}
        schedule = BudgetConfig()
        assert schedule.entries == DEFAULT_BUDGETS
        assert schedule.entries is not DEFAULT_BUDGETS
        assert (schedule.decay_rate, schedule.floor, schedule.decay_mode) == (
            0.1, 0.05, "multiplicative",
        )

    def test_single_decay_step(self):
        budgets = decay_budgets(BudgetConfig(EPS), EPS)
        assert budgets["Dreaddit"] == pytest.approx(1.8, abs=1e-15)

    def test_eight_rounds_iterated_oracle(self):
        schedule = BudgetConfig(EPS)
        budgets = dict(EPS)
        expected = 2.0
        for _ in range(8):
            budgets = decay_budgets(schedule, budgets)
            expected = expected - 0.1 * expected
        assert budgets["Dreaddit"] == pytest.approx(expected, abs=0)
        assert budgets["Dreaddit"] == pytest.approx(2.0 * 0.9**8, rel=1e-12)

    def test_floor_clamps_and_freezes(self):
        schedule = BudgetConfig({"d": 0.051}, floor=0.05)
        budgets = decay_budgets(schedule, schedule.entries)
        assert budgets["d"] == 0.05
        budgets = decay_budgets(schedule, budgets)
        assert budgets["d"] == 0.05

    def test_linear_mode_subtracts_initial_slice(self):
        schedule = BudgetConfig({"d": 2.0}, decay_mode="linear")
        budgets = decay_budgets(schedule, schedule.entries)
        assert budgets["d"] == pytest.approx(1.8, abs=1e-15)
        budgets = decay_budgets(schedule, budgets)
        # 2.0 - 2*0.2, not 1.8*0.9
        assert budgets["d"] == pytest.approx(1.6, abs=1e-15)

    def test_linear_slice_is_read_from_the_schedule_entries(self):
        # The current budget is 1.0, but the slice is 0.1 of the starting 4.0.
        schedule = BudgetConfig({"d": 4.0}, decay_mode="linear")
        assert decay_budgets(schedule, {"d": 1.0}) == {"d": pytest.approx(0.6, abs=1e-15)}

    def test_decay_leaves_its_inputs_alone(self):
        schedule = BudgetConfig(EPS)
        budgets = dict(EPS)
        decay_budgets(schedule, budgets)
        assert budgets == EPS == schedule.entries

    def test_monotone_and_positive_forever(self):
        schedule = BudgetConfig(EPS)
        budgets = dict(schedule.entries)
        for _ in range(200):
            decayed = decay_budgets(schedule, budgets)
            for domain, eps in decayed.items():
                assert 0.0 < eps <= budgets[domain]
            budgets = decayed

    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=4),
        decay_rate=st.floats(0.0, 0.99),
        floor=st.floats(1e-3, 10.0),
        mode=st.sampled_from(["multiplicative", "linear"]),
    )
    def test_decay_never_increases_nor_crosses_floor_property(self, eps, decay_rate, floor, mode):
        # A budget that starts below the floor freezes there; any other never drops below it.
        schedule = BudgetConfig({f"d{i}": e for i, e in enumerate(eps)}, decay_rate, floor, mode)
        budgets = dict(schedule.entries)
        for _ in range(30):
            decayed = decay_budgets(schedule, budgets)
            for domain, before in budgets.items():
                assert min(before, floor) <= decayed[domain] <= before
                start = schedule.entries[domain]
                assert min(start, floor) <= decayed[domain] <= start
            budgets = decayed

    def test_uniform_table(self):
        # A uniform schedule (one eps for every domain) keeps the domains equal in both modes.
        for mode in ("multiplicative", "linear"):
            schedule = BudgetConfig({"a": 1.0, "b": 1.0}, decay_mode=mode)
            budgets = dict(schedule.entries)
            for _ in range(12):
                budgets = decay_budgets(schedule, budgets)
                assert budgets["a"] == budgets["b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetConfig({"d": 0.0})
        with pytest.raises(ValueError):
            BudgetConfig({"d": 1.0}, decay_rate=1.0)
        with pytest.raises(ValueError):
            BudgetConfig({"d": 1.0}, floor=0.0)
        with pytest.raises(ValueError):
            BudgetConfig({"d": 1.0}, decay_mode="bogus")

    @pytest.mark.parametrize(
        "field, kwargs",
        [("entries", {"entries": {"d": bad}}) for bad in (NAN, INF, -INF, 0.0, -0.5)]
        + [("floor", {"floor": bad}) for bad in (NAN, INF, -INF, 0.0, -0.5)]
        + [("decay_rate", {"decay_rate": bad}) for bad in (NAN, INF, -0.1, 1.0)]
        + [("decay_mode", {"decay_mode": "exponential"})],
    )
    def test_rejects_bad_value_by_field_name(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            BudgetConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"entries": {"IRF": "1"}}, "entries.IRF: expected float, got '1'"),
            ({"entries": {"IRF": 1.0, "d": None}}, "entries.d: expected float, got None"),
            ({"decay_rate": "0.1"}, "decay_rate: expected float, got '0.1'"),
            ({"floor": True}, "floor: expected float, got True"),
        ],
    )
    def test_non_number_is_named_as_the_config_walk_names_it(self, kwargs, message):
        with pytest.raises(TypeError) as info:
            BudgetConfig(**kwargs)
        assert str(info.value) == message

    def test_entries_are_copied(self):
        entries = {"d": 1.0}
        schedule = BudgetConfig(entries)
        entries["d"] = 2.0
        assert schedule.entries == {"d": 1.0}
