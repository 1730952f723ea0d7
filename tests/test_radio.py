"""Unit tests for the radio model: path loss, SNR, AF capacity, topology
generation and serialization."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaymatch as rm
from relaymatch.errors import ConfigurationError
from relaymatch.cli import preset_path
from relaymatch.radio import (MAX_LINKS, PATH_LOSS_PRESETS, dbm_to_watts,
                              topology_from_dict, topology_to_dict)


class TestPathLoss:
    def test_macro_gain_at_1km(self):
        # PL = 128.1 + 37.6*log10(1) = 128.1 dB
        gain = rm.path_gain((0.0, 0.0), (1000.0, 0.0), rm.PathLossModel())
        assert gain == pytest.approx(10 ** -12.81, rel=1e-12)

    def test_los_gain_at_1km(self):
        gain = rm.path_gain((0.0, 0.0), (1000.0, 0.0), rm.LOS_2GHZ)
        assert gain == pytest.approx(10 ** -9.85, rel=1e-12)

    def test_gain_monotone_in_distance(self):
        model = rm.PathLossModel()
        g1 = rm.path_gain((0.0, 0.0), (100.0, 0.0), model)
        g2 = rm.path_gain((0.0, 0.0), (200.0, 0.0), model)
        assert g1 > g2

    def test_coincident_points_clamped_with_warning(self, caplog):
        model = rm.PathLossModel()
        with caplog.at_level(logging.WARNING, logger="relaymatch.radio"):
            gain = rm.path_gain((5.0, 5.0), (5.0, 5.0), model)
        assert "clamped" in caplog.text
        assert gain == pytest.approx(10 ** (-model.loss_db(1.0) / 10.0))

    def test_presets_registered(self):
        assert PATH_LOSS_PRESETS["macro"] == rm.PathLossModel()
        assert PATH_LOSS_PRESETS["los-2ghz"] == rm.LOS_2GHZ
        assert PATH_LOSS_PRESETS["air-to-air"] == rm.AIR_TO_AIR
        assert rm.AIR_TO_AIR.shadowing_sigma_db == 4.0


class TestLinkBudget:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_noise_power_over_10mhz(self):
        # -174 dBm/Hz over 10 MHz = 10^(-20.4) W/Hz * 1e7 Hz
        assert rm.noise_power(10e6) == pytest.approx(10 ** -13.4, rel=1e-12)

    def test_noise_power_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            rm.noise_power(0.0)

    def test_snr_direct_arithmetic(self):
        # 20 dBm = 0.1 W; 0.1 * 1e-10 / 1e-13 = 100
        assert rm.snr(20.0, 1e-10, 1e-13) == pytest.approx(100.0, rel=1e-12)

    def test_snr_zero_power(self):
        assert rm.snr(-math.inf, 1e-10, 1e-13) == 0.0

    def test_snr_linear_in_gain(self):
        assert rm.snr(20.0, 2e-10, 1e-13) == pytest.approx(
            2 * rm.snr(20.0, 1e-10, 1e-13))

    def test_snr_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            rm.snr(20.0, 0.0, 1e-13)
        with pytest.raises(ConfigurationError):
            rm.snr(20.0, 1e-10, 0.0)


class TestAfCapacity:
    def test_zero_first_hop_gives_zero(self):
        assert rm.af_capacity(0.0, 50.0, 10e6) == 0.0

    def test_symmetric_example(self):
        expected = 5e6 * math.log2(1 + 225.0 / 31.0)
        assert rm.af_capacity(15.0, 15.0, 10e6) == pytest.approx(expected, rel=1e-9)

    def test_below_bottleneck_hop(self):
        c = rm.af_capacity(8.0, 30.0, 10e6)
        assert c < 5e6 * math.log2(1 + 8.0)

    def test_rejects_negative_snr(self):
        with pytest.raises(ConfigurationError):
            rm.af_capacity(-1.0, 5.0, 10e6)


class TestTopologyGeneration:
    def test_zero_sources_rejected(self):
        with pytest.raises(ConfigurationError):
            rm.generate_topology(rm.TopologyParams(num_sources=0), seed=1)

    def test_same_seed_bit_identical(self):
        params = rm.TopologyParams(num_sources=5)
        a = rm.generate_topology(params, 42)
        b = rm.generate_topology(params, 42)
        assert topology_to_dict(a) == topology_to_dict(b)

    def test_different_seeds_differ(self):
        params = rm.TopologyParams(num_sources=5)
        a = rm.generate_topology(params, 1)
        b = rm.generate_topology(params, 2)
        assert topology_to_dict(a) != topology_to_dict(b)

    def test_counts_channels_and_quotas(self):
        params = rm.TopologyParams(num_sources=7, num_relays=4, radios_per_relay=3)
        topo = rm.generate_topology(params, 3)
        assert topo.num_sources == 7
        assert topo.num_radios == 12
        channels = [c.channel for c in topo.radios]
        assert len(set(channels)) == len(channels)
        assert all(1 <= q <= 3 for q in topo.quotas)
        lo, hi = params.rate_requirement_bps
        assert all(lo <= s.required_rate_bps <= hi for s in topo.sources)

    def test_placement_geometry(self):
        params = rm.TopologyParams(num_sources=20, num_relays=6)
        topo = rm.generate_topology(params, 9)
        half = params.area_side_m / 2.0
        for relay in topo.relays:
            d = math.hypot(relay.position[0] - half, relay.position[1] - half)
            assert d <= params.relay_radius_m + 1e-9
        half_diag = half * math.sqrt(2.0)
        lo, hi = params.source_annulus
        for src in topo.sources:
            d = math.hypot(src.position[0] - half, src.position[1] - half)
            assert lo * half_diag - 1e-9 <= d <= hi * half_diag + 1e-9
            assert 0 <= src.position[0] <= params.area_side_m
            assert 0 <= src.position[1] <= params.area_side_m

    def test_fixed_and_ranged_source_radios(self):
        topo = rm.generate_topology(rm.TopologyParams(source_radios=2), 5)
        assert set(topo.quotas) == {2}
        topo = rm.generate_topology(rm.TopologyParams(source_radios=(1, 2)), 5)
        assert set(topo.quotas) <= {1, 2}

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            rm.generate_topology(rm.TopologyParams(source_annulus=(0.9, 0.5)), 1)
        with pytest.raises(ConfigurationError):
            rm.generate_topology(rm.TopologyParams(rate_requirement_bps=(0, 1e6)), 1)
        with pytest.raises(ConfigurationError):
            rm.generate_topology(rm.TopologyParams(relay_radius_m=5000.0), 1)

    @pytest.mark.parametrize("field,value", [
        ("area_side_m", math.nan), ("area_side_m", math.inf),
        ("relay_radius_m", math.nan),
        ("rate_requirement_bps", (math.nan, 4e7)),
        ("rate_requirement_bps", (1e7, math.inf)),
        ("source_radios", (1, math.nan))])
    def test_non_finite_params_rejected(self, field, value):
        params = rm.TopologyParams(**{field: value})
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            params.validate()

    def test_link_count_bounded(self):
        # 10 x 10 x 10 links at the limit pass; one source more is refused
        scale = round(MAX_LINKS ** (1 / 3))
        assert scale ** 3 == MAX_LINKS
        rm.TopologyParams(num_sources=scale, num_relays=scale,
                          radios_per_relay=scale).validate()
        with pytest.raises(ConfigurationError, match=(
                f"num_sources x num_relays x radios_per_relay = {scale + 1} x "
                f"{scale} x {scale} = {(scale + 1) * scale ** 2} ")):
            rm.TopologyParams(num_sources=scale + 1, num_relays=scale,
                              radios_per_relay=scale).validate()

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4"])
    def test_presets_within_link_bound(self, preset):
        config = rm.ExperimentConfig.from_json(preset_path(preset))
        for n in config.sweep_num_sources or [config.topology.num_sources]:
            dataclasses.replace(config.topology, num_sources=n).validate()


class TestGainAndCapacityTables:
    def test_shadowing_is_pure_function_of_topology(self):
        params = rm.TopologyParams(num_sources=4, path_loss=rm.AIR_TO_AIR)
        topo = rm.generate_topology(params, 11)
        a = rm.build_gain_table(topo)
        b = rm.build_gain_table(topo)
        np.testing.assert_array_equal(a.source_to_relay, b.source_to_relay)
        np.testing.assert_array_equal(a.relay_to_destination, b.relay_to_destination)

    def test_shadowing_perturbs_deterministic_gains(self):
        params = rm.TopologyParams(num_sources=4, path_loss=rm.AIR_TO_AIR)
        topo = rm.generate_topology(params, 11)
        flat = rm.PathLossModel(intercept_db=103.0, slope_db=26.0)
        shadowed = rm.build_gain_table(topo)
        plain = rm.build_gain_table(dataclasses.replace(topo, path_loss=flat))
        assert not np.allclose(shadowed.source_to_relay, plain.source_to_relay,
                               rtol=1e-6, atol=0.0)

    def test_capacity_table_shape_and_positivity(self):
        params = rm.TopologyParams(num_sources=6, num_relays=4, radios_per_relay=2)
        topo = rm.generate_topology(params, 2)
        caps = rm.build_capacity_table(topo)
        assert caps.shape == (6, 8)
        assert (caps > 0).all()

    def test_radios_of_one_relay_have_equal_capacity(self):
        # both radios of a relay see the same geometry and shadowing draw is
        # per relay pair, so columns of one relay may differ only by shadowing
        params = rm.TopologyParams(num_sources=3, num_relays=2, radios_per_relay=2)
        topo = rm.generate_topology(params, 4)
        caps = rm.build_capacity_table(topo)
        owner = topo.radio_owner
        for m in range(2):
            cols = [l for l in range(topo.num_radios) if owner[l] == m]
            np.testing.assert_allclose(caps[:, cols[0]], caps[:, cols[1]])


class TestSerialization:
    def test_round_trip_preserves_capacities(self, tmp_path):
        params = rm.TopologyParams(num_sources=5, path_loss=rm.AIR_TO_AIR)
        topo = rm.generate_topology(params, 13)
        gains = rm.build_gain_table(topo)
        path = tmp_path / "topo.json"
        rm.save_topology(path, topo, gains)
        topo2, gains2 = rm.load_topology(path)
        np.testing.assert_array_equal(rm.build_capacity_table(topo, gains),
                                      rm.build_capacity_table(topo2, gains2))
        assert topo2.num_sources == topo.num_sources
        assert topo2.quotas == topo.quotas

    def test_dict_round_trip(self):
        topo = rm.generate_topology(rm.TopologyParams(num_sources=3), 1)
        doc = topology_to_dict(topo)
        topo2, _ = topology_from_dict(doc)
        assert topology_to_dict(topo2) == doc

    @settings(max_examples=40, deadline=None)
    @given(params=st.builds(
        rm.TopologyParams, num_sources=st.integers(1, 6), num_relays=st.integers(1, 4),
        radios_per_relay=st.integers(1, 3),
        source_radios=st.one_of(st.none(), st.integers(1, 3),
                                st.tuples(st.integers(1, 2), st.integers(2, 3))),
        # an int area and bandwidth must come back as ints
        area_side_m=st.one_of(st.integers(400, 5000), st.floats(400, 5000)),
        bandwidth_hz=st.one_of(st.integers(10 ** 5, 10 ** 8), st.floats(1e5, 1e8)),
        path_loss=st.sampled_from(sorted(PATH_LOSS_PRESETS.values(), key=repr))),
        seed=st.integers(0, 2 ** 63))
    def test_json_round_trip_is_exact(self, params, seed):
        topo = rm.generate_topology(params, seed)
        gains = rm.build_gain_table(topo)
        text = json.dumps(topology_to_dict(topo, gains))
        topo2, gains2 = topology_from_dict(json.loads(text))
        assert topo2 == topo
        assert json.dumps(topology_to_dict(topo2, gains2)) == text
        for a, b in ((gains.source_to_relay, gains2.source_to_relay),
                     (gains.relay_to_destination, gains2.relay_to_destination)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
