import random

import pytest

from ltenergy import (
    ConnectionlessScenario,
    PeriodOverrunError,
    PhaseTiming,
    compare,
    cycle_energy,
    default_profile,
    idle_gap_energy,
    phase_timing,
    timing_from_phases,
    transfer_time,
)
from ltenergy.analytic import energy_ratio
from _goldens import (
    CLOUD_FAVORABLE,
    GOLDEN_ROWS,
    reference_scenarios,
)

PROFILE = default_profile()


class TestScenarioValidation:
    @pytest.mark.parametrize("name", [
        "t_i", "t_elab", "rtt", "b_tx", "b_rx", "uplink_bps", "downlink_bps",
    ])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_rejected(self, name, value):
        edge, _ = reference_scenarios(750, 50)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            edge._replace(**{name: value})


class TestTransferTime:
    def test_uplink_reference(self):
        assert transfer_time(16000, 1e6) == pytest.approx(128.0)

    def test_downlink_reference(self):
        assert transfer_time(16000, 0.8e6) == pytest.approx(160.0)

    def test_zero_bytes(self):
        assert transfer_time(0, 123456.0) == 0.0

    def test_bad_bitrate(self):
        with pytest.raises(ValueError):
            transfer_time(100, 0)


class TestIdleGapEnergy:
    def test_within_cr(self):
        assert idle_gap_energy(190, PROFILE) == pytest.approx(190.0, abs=1e-9)

    def test_short_drx_segments(self):
        # oracle: 200 ms of CR plus the residue in SHORT DRX
        assert idle_gap_energy(300, PROFILE) == pytest.approx(
            (200 * 1000 + 100 * 359.07) / 1000, abs=1e-9)
        assert idle_gap_energy(272, PROFILE) == pytest.approx(
            (200 * 1000 + 72 * 359.07) / 1000, abs=1e-9)

    def test_zero_gap(self):
        assert idle_gap_energy(0, PROFILE) == 0.0

    def test_deep_idle(self):
        # oracle: explicit sum over the four decay segments
        expected = (200 * 1000 + 400 * 359.07 + 11000 * 163.23
                    + 8400 * 14.25) / 1000
        assert expected == pytest.approx(2258.858, abs=1e-9)
        assert idle_gap_energy(20000, PROFILE) == pytest.approx(
            expected, abs=1e-9)

    def test_negative_gap(self):
        with pytest.raises(ValueError):
            idle_gap_energy(-0.001, PROFILE)

    def test_breakpoint_continuity(self):
        # at each breakpoint the closing segment and the opening segment
        # give the same value
        p = PROFILE
        at_cr = p.t_cr * p.p_cr / 1000
        assert abs(idle_gap_energy(p.t_cr, p) - at_cr) < 1e-9

        at_short = (p.t_cr * p.p_cr + p.t_short * p.p_short) / 1000
        assert abs(idle_gap_energy(p.t_cr + p.t_short, p) - at_short) < 1e-9

        at_long = (p.t_cr * p.p_cr + p.t_short * p.p_short
                   + p.t_long * p.p_long) / 1000
        assert abs(idle_gap_energy(p.idle_entry_ms, p) - at_long) < 1e-9

    def test_strictly_increasing(self):
        rng = random.Random(11)
        for _ in range(2000):
            a = rng.uniform(0, 30000)
            b = rng.uniform(0, 30000)
            lo, hi = sorted((a, b))
            if hi - lo < 1e-9:
                continue
            assert idle_gap_energy(hi, PROFILE) > idle_gap_energy(lo, PROFILE)

    def test_slopes_decrease_along_chain(self):
        p = PROFILE
        assert p.p_cr > p.p_short > p.p_long > p.p_idle
        # numeric slopes inside each segment
        probes = [(50, 150, p.p_cr), (250, 500, p.p_short),
                  (700, 11000, p.p_long), (12000, 20000, p.p_idle)]
        for lo, hi, slope in probes:
            measured = (idle_gap_energy(hi, p) - idle_gap_energy(lo, p)) \
                / (hi - lo) * 1000
            assert measured == pytest.approx(slope, rel=1e-9)


class TestPhaseTiming:
    def test_reference_edge(self):
        scn = ConnectionlessScenario(
            t_i=750, t_elab=150, rtt=40, b_tx=16000, b_rx=16000)
        t = phase_timing(scn, PROFILE)
        assert (t.t_tx, t.t_w, t.t_rx, t.t_q) == (128.0, 190.0, 160.0, 272.0)
        assert not t.prom_tx and not t.prom_rx
        # cross-check against the quiet-gap accounting
        assert idle_gap_energy(t.t_q, PROFILE) == pytest.approx(225.9, abs=0.1)

    def test_reference_cloud(self):
        scn = ConnectionlessScenario(
            t_i=750, t_elab=150, rtt=300, b_tx=16000, b_rx=16000)
        t = phase_timing(scn, PROFILE)
        assert (t.t_tx, t.t_w, t.t_rx, t.t_q) == (128.0, 450.0, 160.0, 12.0)
        assert idle_gap_energy(t.t_q, PROFILE) == pytest.approx(12.0, abs=0.1)

    def test_exact_fit_gives_zero_quiet_time(self):
        scn = ConnectionlessScenario(
            t_i=128 + 160 + 190, t_elab=150, rtt=40, b_tx=16000, b_rx=16000)
        assert phase_timing(scn, PROFILE).t_q == 0.0

    def test_overrun_carries_deficit(self):
        scn = ConnectionlessScenario(
            t_i=400, t_elab=150, rtt=40, b_tx=16000, b_rx=16000)
        with pytest.raises(PeriodOverrunError) as err:
            phase_timing(scn, PROFILE)
        assert err.value.deficit_ms == pytest.approx(78.0)

    @pytest.mark.parametrize("deficit, text", [
        (78.0, "78.000"), (999_999_999_999_999.9, "999999999999999.875"),
        (1e15, "1.000e+15"), (4.444e294, "4.444e+294"),
        (float("inf"), "inf")])
    def test_overrun_message_stays_short(self, deficit, text):
        assert str(PeriodOverrunError(deficit)) \
            == f"cycle phases exceed the period by {text} ms"

    def test_wait_promotion_flag(self):
        t = timing_from_phases(10, 12000, 10, 17220, PROFILE)
        assert t.prom_rx and not t.prom_tx
        # promotion carved from the quiet time
        assert t.t_q == pytest.approx(17220 - 10 - 12000 - 10 - 200)

    def test_quiet_promotion_flag(self):
        t = timing_from_phases(10, 10, 10, 30000, PROFILE)
        assert t.prom_tx and not t.prom_rx
        assert t.t_q == pytest.approx(30000 - 30 - 200)
        assert t.t_q > PROFILE.idle_entry_ms

    def test_residual_grazing_idle_stays_unpromoted(self):
        # the residual exceeds the IDLE threshold by less than one
        # promotion, so no promotion fits and none is charged
        residual = PROFILE.idle_entry_ms + 100
        t = timing_from_phases(10, 10, 10, residual + 30, PROFILE)
        assert not t.prom_tx
        assert t.t_q == pytest.approx(residual)


class TestCycleEnergy:
    def test_reference_edge_total(self):
        scn = ConnectionlessScenario(
            t_i=750, t_elab=150, rtt=40, b_tx=16000, b_rx=16000)
        e = cycle_energy(phase_timing(scn, PROFILE), PROFILE)
        assert e.e_i == pytest.approx(729.5, abs=0.1)
        assert e.e_tx == pytest.approx(153.6, abs=1e-9)
        assert e.e_rx == pytest.approx(160.0, abs=1e-9)

    def test_reference_cloud_total(self):
        scn = ConnectionlessScenario(
            t_i=750, t_elab=150, rtt=300, b_tx=16000, b_rx=16000)
        e = cycle_energy(phase_timing(scn, PROFILE), PROFILE)
        assert e.e_i == pytest.approx(615.4, abs=0.1)

    def test_all_zero_timing(self):
        e = cycle_energy(PhaseTiming(0, 0, 0, 0), PROFILE)
        assert e.e_i == 0.0

    def test_promotion_energy_charged(self):
        t = PhaseTiming(10, 10, 10, 15000, prom_tx=True)
        e = cycle_energy(t, PROFILE)
        assert e.e_prom_tx == pytest.approx(240.0)
        assert e.e_prom_rx == 0.0

    def test_total_is_exact_sum(self):
        t = PhaseTiming(128, 190, 160, 272)
        e = cycle_energy(t, PROFILE)
        assert e.e_i == (e.e_tx + e.e_w + e.e_rx + e.e_q
                         + e.e_prom_tx + e.e_prom_rx)


class TestCompare:
    def test_edge_favorable_reference(self):
        edge, cloud = reference_scenarios(750, 50)
        r = compare(edge, cloud, PROFILE)
        assert r.rho == pytest.approx(729.5 / 735.9, abs=1e-3)
        assert r.rho < 1
        assert r.delta_rtt == 10

    def test_cloud_favorable_reference(self):
        edge, cloud = reference_scenarios(750, 150)
        r = compare(edge, cloud, PROFILE)
        assert r.rho == pytest.approx(729.5 / 711.5, abs=1e-3)
        assert r.rho > 1

    def test_identical_rtt_gives_exactly_one(self):
        edge, cloud = reference_scenarios(750, 40)
        assert compare(edge, cloud, PROFILE).rho == 1.0

    def test_differing_non_rtt_field_rejected(self):
        edge, cloud = reference_scenarios(750, 50)
        cloud = cloud._replace(b_tx=15999.0)
        with pytest.raises(ValueError, match="only in rtt"):
            compare(edge, cloud, PROFILE)

    def test_overflowing_cycle_energy_raises(self):
        edge, cloud = reference_scenarios(750, 50)
        with pytest.raises(ValueError, match="cycle energy overflows"):
            compare(edge, cloud, PROFILE._replace(p_tx=1e308))

    @pytest.mark.filterwarnings("ignore:profile has no")
    def test_overflowing_rho_raises(self):
        # Both energies are finite: the edge pays one huge promotion, the
        # cloud only a sliver of near-zero CR and DRX power.
        profile = PROFILE._replace(p_cr=1e-300, p_short=1e-301,
                                   p_long=1e-302, p_idle=0.0, p_prom=1e10,
                                   short_drx=None, long_drx=None, idle=None)
        t_i = profile.idle_entry_ms + 1000
        edge = ConnectionlessScenario(t_i=t_i, rtt=0)
        cloud = edge._replace(rtt=profile.idle_entry_ms - 1)
        edge_mj = cycle_energy(phase_timing(edge, profile), profile).e_i
        cloud_mj = cycle_energy(phase_timing(cloud, profile), profile).e_i
        assert (edge_mj, cloud_mj) == (2e9, 5.94e-301)
        with pytest.raises(ValueError, match="rho = .* is not finite"):
            compare(edge, cloud, profile)

    @pytest.mark.parametrize("edge_mj, cloud_mj",
                             [(1.0, 0.0), (1e300, 1e-300)])
    def test_energy_ratio_must_be_finite(self, edge_mj, cloud_mj):
        with pytest.raises(ValueError, match="is not finite"):
            energy_ratio(edge_mj, cloud_mj)

    def test_transfer_energies_placement_independent(self):
        rng = random.Random(13)
        for _ in range(300):
            t_i = rng.uniform(2000, 60000)
            edge = ConnectionlessScenario(
                t_i=t_i,
                t_elab=rng.uniform(0, 500),
                rtt=rng.uniform(1, 200),
                b_tx=rng.uniform(0, 20000),
                b_rx=rng.uniform(0, 20000),
            )
            cloud = edge._replace(rtt=edge.rtt + rng.uniform(0, 400))
            r = compare(edge, cloud, PROFILE)
            assert r.edge.e_tx == r.cloud.e_tx
            assert r.edge.e_rx == r.cloud.e_rx


class TestGoldenTable:
    @pytest.mark.parametrize(
        "t_i,rtt_cloud,e_w_e,e_w_c,e_q_e,e_q_c,e_i_e,e_i_c", GOLDEN_ROWS)
    def test_row(self, t_i, rtt_cloud, e_w_e, e_w_c, e_q_e, e_q_c,
                 e_i_e, e_i_c):
        edge, cloud = reference_scenarios(t_i, rtt_cloud)
        r = compare(edge, cloud, PROFILE)
        assert r.edge.e_w == pytest.approx(e_w_e, abs=0.1)
        assert r.cloud.e_w == pytest.approx(e_w_c, abs=0.1)
        assert r.edge.e_q == pytest.approx(e_q_e, abs=0.1)
        assert r.cloud.e_q == pytest.approx(e_q_c, abs=0.1)
        assert r.edge.e_i == pytest.approx(e_i_e, abs=0.1)
        assert r.cloud.e_i == pytest.approx(e_i_c, abs=0.1)
        favors_cloud = r.rho > 1
        assert favors_cloud == ((t_i, rtt_cloud) in CLOUD_FAVORABLE)

    @pytest.mark.parametrize("t_i,rtt_cloud", [(r[0], r[1])
                                               for r in GOLDEN_ROWS])
    def test_wait_and_quiet_shift_by_delta_rtt(self, t_i, rtt_cloud):
        edge, cloud = reference_scenarios(t_i, rtt_cloud)
        t_edge = phase_timing(edge, PROFILE)
        t_cloud = phase_timing(cloud, PROFILE)
        delta = rtt_cloud - edge.rtt
        assert t_cloud.t_w == pytest.approx(t_edge.t_w + delta)
        assert t_cloud.t_q == pytest.approx(t_edge.t_q - delta)


class TestInvariants:
    def test_time_conservation(self):
        rng = random.Random(17)
        p = PROFILE
        for _ in range(2000):
            scn = ConnectionlessScenario(
                t_i=rng.uniform(500, 60000),
                t_elab=rng.uniform(0, 2000),
                rtt=rng.uniform(1, 400),
                b_tx=rng.uniform(0, 30000),
                b_rx=rng.uniform(0, 30000),
            )
            try:
                t = phase_timing(scn, p)
            except PeriodOverrunError:
                continue
            charged = p.t_prom * (t.prom_tx + t.prom_rx)
            total = t.t_tx + t.t_w + t.t_rx + t.t_q + charged
            assert total == pytest.approx(scn.t_i, abs=1e-9)

    def test_edge_wins_when_both_quiet_times_reach_long_drx(self):
        # strict benefit requires the wait to start below the SHORT DRX
        # ceiling and both quiet residues to sit inside LONG DRX, where
        # the shifted quiet time repays at the smaller long-sleep power
        rng = random.Random(19)
        p = PROFILE
        for _ in range(500):
            t_elab = rng.uniform(0, 350)
            rtt_edge = rng.uniform(1, min(200.0, 590 - t_elab))
            delta = rng.uniform(1, 500)
            b = rng.uniform(0, 20000)
            t_tx = transfer_time(b, 1e6)
            t_rx = transfer_time(b, 0.8e6)
            t_q_cloud = rng.uniform(700, 10000)
            t_i = t_tx + t_rx + (t_elab + rtt_edge + delta) + t_q_cloud
            edge = ConnectionlessScenario(
                t_i=t_i, t_elab=t_elab, rtt=rtt_edge, b_tx=b, b_rx=b)
            cloud = edge._replace(rtt=rtt_edge + delta)
            t_cloud = phase_timing(cloud, p)
            t_edge = phase_timing(edge, p)
            assert 600 < t_cloud.t_q <= t_edge.t_q <= 11600
            assert compare(edge, cloud, p).rho < 1
