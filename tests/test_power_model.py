import json
import random

import pytest

from ltenergy.power_model import (
    DutyCycleSpec,
    PowerProfile,
    default_profile,
    load_profile,
    mean_power,
    profile_from_dict,
    profile_to_dict,
)


class TestMeanPower:
    def test_short_drx(self):
        assert mean_power(DutyCycleSpec(788, 41, 100, 61)) == pytest.approx(
            359.07, abs=1e-9)

    def test_long_drx(self):
        # 163.234375 exactly before  rounding
        assert mean_power(DutyCycleSpec(788, 45, 320, 61)) == pytest.approx(
            163.234375, abs=1e-12)

    def test_idle(self):
        assert mean_power(DutyCycleSpec(570, 32, 1280, 0)) == pytest.approx(
            14.25, abs=1e-12)

    def test_wake_equals_sleep_power(self):
        rng = random.Random(7)
        for _ in range(200):
            power = rng.uniform(0, 2000)
            period = rng.uniform(1, 5000)
            wake = rng.uniform(0, period)
            spec = DutyCycleSpec(power, wake, period, power)
            assert mean_power(spec) == pytest.approx(power, rel=1e-12)

    def test_scale_invariance(self):
        rng = random.Random(8)
        for _ in range(200):
            spec = DutyCycleSpec(788, 41, 100, 61)
            factor = rng.uniform(0.01, 100)
            scaled = DutyCycleSpec(788, 41 * factor, 100 * factor, 61)
            assert mean_power(scaled) == pytest.approx(
                mean_power(spec), rel=1e-12)

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError, match="period must be positive"):
            DutyCycleSpec(788, 0, 0, 61)

    def test_bad_wake_duration_rejected(self):
        with pytest.raises(ValueError):
            DutyCycleSpec(788, 101, 100, 61)
        with pytest.raises(ValueError):
            DutyCycleSpec(788, -1, 100, 61)


class TestDefaultProfile:
    def test_powers(self):
        p = default_profile()
        assert p.p_tx == 1200
        assert p.p_rx == 1000
        assert p.p_cr == 1000
        assert p.p_short == 359.07
        assert p.p_long == 163.23
        assert p.p_idle == 14.25
        assert p.p_prom == 1200

    def test_timers(self):
        p = default_profile()
        assert p.t_cr == 200
        assert p.t_short == 400
        assert p.t_long == 11000
        assert p.t_prom == 200

    def test_duty_cycles_consistent(self):
        p = default_profile()
        assert abs(mean_power(p.short_drx) - p.p_short) <= 0.01
        assert abs(mean_power(p.long_drx) - p.p_long) <= 0.01
        assert abs(mean_power(p.idle) - p.p_idle) <= 0.01


class TestProfileValidation:
    def test_bad_power_ordering(self):
        data = profile_to_dict(default_profile())
        data["p_idle"] = 500.0
        del data["idle"]
        with pytest.raises(ValueError, match="ordered"):
            profile_from_dict(data)

    def test_zero_timer(self):
        data = profile_to_dict(default_profile())
        data["t_cr"] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            profile_from_dict(data)

    def test_duty_cycle_mismatch(self):
        data = profile_to_dict(default_profile())
        data["p_short"] = 400.0
        with pytest.raises(ValueError, match="disagrees"):
            profile_from_dict(data)

    def test_missing_duty_cycle_warns(self, tmp_path):
        """The warning names the caller's line on every path that builds a
        profile, not a line of the library or of ``collections``."""
        data = profile_to_dict(default_profile())
        del data["short_drx"]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        builds = [
            lambda: PowerProfile(**{**default_profile()._asdict(),
                                    "short_drx": None}),
            lambda: default_profile()._replace(short_drx=None),
            lambda: profile_from_dict(data),
            lambda: load_profile(str(path)),
        ]
        for build in builds:
            with pytest.warns(UserWarning, match="short_drx") as record:
                profile = build()
            assert profile.short_drx is None
            assert [(w.filename, w.lineno) for w in record] == [
                (__file__, build.__code__.co_firstlineno)]

    @pytest.mark.parametrize("name", ["p_tx", "p_rx", "p_prom", "p_idle"])
    def test_negative_power_rejected(self, name):
        data = profile_to_dict(default_profile())
        data[name] = -5.0
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            profile_from_dict(data)

    @pytest.mark.parametrize("name", [
        "p_tx", "p_rx", "p_prom", "p_cr", "t_cr", "t_short", "t_long",
        "t_prom",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalar_rejected(self, name, value):
        data = profile_to_dict(default_profile())
        data[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            profile_from_dict(data)

    def test_non_finite_duty_cycle_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DutyCycleSpec(float("nan"), 41, 100, 61)

    def test_duty_cycle_beyond_float_range_rejected(self):
        """An int that no float holds is named, not an ``OverflowError``."""
        with pytest.raises(ValueError, match=(
                "^duty-cycle wake_power is too large for a float$")):
            DutyCycleSpec(10 ** 400, 1, 2, 0)

    def test_duty_cycle_missing_key_rejected(self):
        data = profile_to_dict(default_profile())
        del data["long_drx"]["period"]
        with pytest.raises(ValueError, match="long_drx must be an object"):
            profile_from_dict(data)

    def test_unknown_field_rejected(self):
        data = profile_to_dict(default_profile())
        data["p_wifi"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            profile_from_dict(data)

    @pytest.mark.parametrize("block", [None, "idle"])
    def test_boolean_field_rejected(self, block):
        data = profile_to_dict(default_profile())
        field = "period" if block else "p_tx"
        (data[block] if block else data)[field] = True
        name = f"{block}.{field}" if block else field
        with pytest.raises(ValueError, match=(
                f"profile field {name} must be a number, got True")):
            profile_from_dict(data)

    def test_duty_cycle_extra_key_rejected(self):
        data = profile_to_dict(default_profile())
        data["idle"]["perod"] = 1280.0
        with pytest.raises(ValueError, match="idle must be an object"):
            profile_from_dict(data)

    def test_to_dict_leaves_absent_duty_cycles_out(self):
        data = profile_to_dict(default_profile())
        del data["long_drx"]
        with pytest.warns(UserWarning, match="long_drx"):
            profile = profile_from_dict(data)
        assert profile_to_dict(profile) == data
        assert list(data) == [name for name in PowerProfile._fields
                              if name != "long_drx"]

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile_to_dict(default_profile())))
        assert load_profile(str(path)) == default_profile()

