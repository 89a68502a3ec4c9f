import re

import numpy as np
import pytest

import multinv as mi
from multinv.config import (load_problem, problem_from_config,
                            problem_to_config, save_problem)
from multinv.model import UniformMarginal, validate_problem

TIGHT = "tightness:M=2,eps=0.1,l=1,h=4,p=100"
ALL_IDS = ["fig1_linear", "fig1_nonlinear", "sector_sim", "affine_sim",
           "transform_check", TIGHT]


class TestBuild:
    @pytest.mark.parametrize("instance_id", ALL_IDS)
    def test_every_instance_validates(self, instance_id):
        p = mi.instances.build(instance_id)
        assert validate_problem(p) == []

    def test_binomial_demand_weights(self):
        p = mi.instances.build("sector_sim")
        values, probs = mi.demand_pmf(p.demand, 0)
        assert np.array_equal(values, [0.0, 0.5, 1.0, 1.5])
        assert np.allclose(probs, [0.125, 0.375, 0.375, 0.125])

    def test_doubling_cost_values(self):
        p = mi.instances.build("fig1_nonlinear")
        assert p.ordering(3.0) == 12.0

    def test_tightness_parameters(self):
        p = mi.instances.build(TIGHT)
        delta = 0.1 / 3.0
        assert p.holding.holding == (delta, delta)
        assert p.holding.backlog == (100.0, 100.0)
        zs = sorted(z for z, _ in p.ordering.discounts)
        assert zs == [2.0, 2.0 * (1.0 + delta)]
        g = p.demand.marginals[0]
        assert isinstance(g, UniformMarginal)
        assert (g.lo, g.hi) == (1.0, 1.0 + delta)

    def test_tightness_rejected_by_dp(self):
        p = mi.instances.build(TIGHT)
        with pytest.raises(mi.ValidationError):
            mi.solve_joint_dp(p)

    def test_locations_exchangeable(self):
        for name in ("fig1_linear", "sector_sim"):
            p = mi.instances.build(name)
            assert p.demand.marginals[0] == p.demand.marginals[1]
            assert p.holding.holding[0] == p.holding.holding[1]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            mi.instances.build("tightness:M=2,eps=-1,l=1,h=4,p=100")
        with pytest.raises(ValueError):
            mi.instances.build("tightness:M=2,eps=0.1,l=1,h=4,p=5")
        with pytest.raises(ValueError):
            mi.instances.build("tightness:M=2,eps=0.1,l=4,h=1,p=100")
        with pytest.raises(ValueError):
            mi.instances.build("unknown_instance")
        with pytest.raises(ValueError):
            mi.instances.build("tightness:M=2,eps")

    @pytest.mark.parametrize("instance_id, message", [
        ("tightness:esp=0.5", "tightness: unknown parameter 'esp'"),
        ("sector_sim:foo=1", "sector_sim: unknown parameter 'foo'"),
        ("tightness:M=2.5", "parameter 'M' must be a whole number, got 2.5"),
        ("tightness:sim_periods=10.7",
         "parameter 'sim_periods' must be a whole number, got 10.7"),
    ])
    def test_unknown_or_non_integral_parameter_rejected(self, instance_id, message):
        for parse in (mi.instances.build, mi.instances.policy_defaults):
            with pytest.raises(ValueError, match=re.escape(message)):
                parse(instance_id)

    def test_whole_number_parameters_and_defaults(self):
        p = mi.instances.build("tightness:M=3.0,sim_periods=10")
        assert (p.m, p.periods) == (3, 10)
        assert p.holding.backlog == (100.0,) * 3  # the default p
        d = mi.instances.policy_defaults("tightness:M=3.0")
        assert d["pi_v"]["m"] == 3 and type(d["pi_v"]["m"]) is int

    def test_policy_defaults(self):
        d = mi.instances.policy_defaults(TIGHT)
        assert d["pi_v"]["m"] == 2
        assert d["base_stock_auto"] == pytest.approx(1.0 + 0.1 / 3.0)
        d2 = mi.instances.policy_defaults("affine_sim")
        assert d2["pi_diamond"] == (16.0 / 3.0, 4.0 / 3.0)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("instance_id", ALL_IDS)
    def test_json_round_trip_preserves_problem(self, instance_id):
        p = mi.instances.build(instance_id)
        q = problem_from_config(problem_to_config(p))
        assert q == p

    def test_file_round_trip(self, tmp_path):
        p = mi.instances.build("sector_sim")
        path = tmp_path / "sector.json"
        save_problem(p, path)
        assert load_problem(path) == p

    @pytest.mark.parametrize("instance_id", ALL_IDS)
    def test_file_round_trip_is_byte_equal(self, instance_id, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(mi.instances.build(instance_id), first)
        save_problem(load_problem(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_schema_field_names(self):
        cfg = problem_to_config(mi.instances.build("affine_sim"))
        assert cfg["locations"] == 2
        assert cfg["grid"] == {"min": -2.0, "max": 8.0, "step": 0.5}
        assert cfg["horizon"] == {"kind": "finite", "periods": 20}
        assert cfg["ordering"]["pieces"][0] == {"upper": 6.0, "fixed": 4.0,
                                                "slope": 2.0}
        assert cfg["holding"][0] == {"holding_rate": 0.2, "backlog_rate": 10.0}
        assert cfg["demand"]["locations"][0]["kind"] == "discrete"
        assert cfg["demand"]["iid_across_periods"] is True
