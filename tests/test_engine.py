"""Policies, the seeded runner, scenario generation, and batch summaries."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from delibsim import (
    CoalitionStructure,
    EngineInvariantError,
    GeneratorConfig,
    Policy,
    PolicyError,
    SplitMix64,
    batch,
    builtin_fixture,
    default_initial_structure,
    default_step_cap,
    generate_scenario,
    potential,
    run,
    summarize,
)
from delibsim import engine

from conftest import line_space


class TestSplitMix64:
    def test_reference_stream(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_zero_stream(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_randbelow_bounds_and_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        draws = [a.randbelow(7) for _ in range(200)]
        assert draws == [b.randbelow(7) for _ in range(200)]
        assert set(draws) <= set(range(7))

    def test_randint_inclusive(self):
        rng = SplitMix64(5)
        draws = {rng.randint(2, 4) for _ in range(200)}
        assert draws == {2, 3, 4}

    def test_uniform_range(self):
        rng = SplitMix64(7)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0)
            assert -1.0 <= x < 1.0

    def test_choice(self):
        rng = SplitMix64(11)
        assert rng.choice(["only"]) == "only"


class TestPolicy:
    def test_parse_tiers(self):
        p = Policy.parse("subsume>compromise")
        assert p.tiers == (("subsume",), ("compromise",))
        q = Policy.parse("follow,single_agent")
        assert q.tiers == (("follow", "single_agent"),)

    def test_render_roundtrip(self):
        text = "merge>follow,single_agent>compromise"
        assert Policy.parse(text).render() == text

    @pytest.mark.parametrize(
        "bad",
        ["teleport", "follow>follow", "follow,follow", "", ">follow", "follow>"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(PolicyError):
            Policy.parse(bad)

    def test_unknown_selector(self):
        with pytest.raises(PolicyError):
            Policy.parse("follow", selector="coin_flip")

    def test_seed_bounds(self):
        with pytest.raises(PolicyError):
            Policy.parse("follow", seed=-1)
        with pytest.raises(PolicyError):
            Policy.parse("follow", seed=1 << 64)
        with pytest.raises(PolicyError):  # written as "seed": true, which read_trace refuses
            Policy.parse("follow", seed=True)
        Policy.parse("follow", seed=(1 << 64) - 1)


class TestDefaultInitialStructure:
    def test_nearest_candidate_with_declaration_tie_break(self):
        # v1 equidistant to a and b: the earlier declared candidate wins
        space = line_space([1.0], {"a": 0.5, "b": 1.5})
        init = default_initial_structure(space)
        assert [(sorted(c.members), c.proposal) for c in init] == [(["v1"], "a")]

    def test_non_approvers_pool_at_status_quo(self):
        space = line_space([1.0, 0.2, 0.3], {"a": 1.0})
        init = default_initial_structure(space)
        assert [(sorted(c.members), c.proposal) for c in init] == [
            (["v1"], "a"),
            (["v2", "v3"], "r"),
        ]

    def test_continuous_singletons(self):
        space = line_space([2.0, 0.0, -1.0])
        init = default_initial_structure(space)
        assert [(sorted(c.members), c.proposal) for c in init] == [
            (["v1"], (2.0,)),
            (["v3"], (-1.0,)),
            (["v2"], "r"),
        ]


class TestRun:
    def test_merge_only_run_on_example3(self):
        space, init = builtin_fixture("example3")
        trace = run(space, init, Policy.parse("merge"))
        assert trace.classification == "successful"
        assert [s.transition.kind for s in trace.steps] == ["merge"]
        assert potential(trace.terminal) == 16

    def test_terminal_unsuccessful_without_allowed_kinds(self):
        space, init = builtin_fixture("example2")
        trace = run(space, init, Policy.parse("single_agent"))
        assert trace.steps == ()
        assert trace.classification == "unsuccessful"

    def test_vacuous_success_when_nobody_approves(self):
        space = line_space([1.0, -1.0], {"a": 9.0})
        init = default_initial_structure(space)
        trace = run(space, init, Policy.parse("follow,single_agent"))
        assert trace.steps == ()
        assert trace.classification == "successful"

    def test_step_cap_classification(self):
        space, init = builtin_fixture("example3")
        trace = run(space, init, Policy.parse("merge"), step_cap=0)
        assert trace.classification == "step_cap_reached"
        assert trace.terminal == init

    @pytest.mark.parametrize("cap", [2.7, True, "3", -1])
    def test_step_cap_must_be_a_non_negative_int(self, cap):
        space, init = builtin_fixture("example3")
        with pytest.raises(PolicyError):
            run(space, init, Policy.parse("merge"), step_cap=cap)

    def test_default_step_cap(self):
        space, _ = builtin_fixture("example2")
        assert default_step_cap(space) == 10 * 100

    def test_same_seed_same_trace(self):
        space, init = builtin_fixture("example1")
        policy = Policy.parse("single_agent,follow,merge,compromise,subsume", seed=31)
        assert run(space, init, policy) == run(space, init, policy)

    def test_first_enumerated_is_deterministic_without_rng(self):
        space, init = builtin_fixture("example2")
        policy = Policy.parse("subsume", selector="first_enumerated")
        trace = run(space, init, policy)
        assert trace.steps[0].transition.sources == (0, 1)

    def test_higher_tier_shadows_lower(self):
        space, init = builtin_fixture("example2")
        trace = run(space, init, Policy.parse("follow>merge", seed=3))
        assert trace.steps[0].transition.kind == "follow"

    def test_scenario_ref_recorded(self):
        space, init = builtin_fixture("example3")
        trace = run(space, init, Policy.parse("merge"), scenario_ref="example3")
        assert trace.scenario == "example3"

    @pytest.mark.parametrize("name, kind", [
        ("example1", "single_agent"),
        ("example2", "follow"),
        ("example3", "merge"),
        ("example4", "compromise"),
        ("example3", "subsume"),
    ])
    def test_step_that_changes_nothing_breaks_invariant(self, monkeypatch, name, kind):
        monkeypatch.setattr(engine, "apply_transition", lambda structure, space, t: structure)
        space, init = builtin_fixture(name)
        with pytest.raises(EngineInvariantError, match=f"^{kind} step"):
            run(space, init, Policy.parse(kind))


class TestGenerateScenario:
    def test_deterministic(self):
        config = GeneratorConfig(mode="finite")
        a_space, a_init = generate_scenario(config, 42)
        b_space, b_init = generate_scenario(config, 42)
        assert a_space.agents == b_space.agents
        assert a_space.proposals == b_space.proposals
        assert a_init == b_init

    def test_bounds(self):
        config = GeneratorConfig(
            mode="finite", min_agents=3, max_agents=5, max_proposals=4,
            dimensions=(2,), coordinate_range=1.5,
        )
        for seed in range(30):
            space, _ = generate_scenario(config, seed)
            assert 3 <= len(space.agents) <= 5
            assert space.dimension == 2
            assert 1 <= len(space.proposals) <= 4
            assert space.status_quo == (0.0, 0.0)
            for _, loc in space.agents + space.proposals:
                assert all(abs(c) <= 1.5 for c in loc)
                assert all(round(c, 4) == c for c in loc)

    def test_continuous_mode(self):
        space, init = generate_scenario(GeneratorConfig(mode="continuous"), 7)
        assert space.is_continuous
        assert space.proposals is None

    def test_config_validation(self):
        with pytest.raises(PolicyError):
            GeneratorConfig(mode="quantum")
        with pytest.raises(PolicyError):
            GeneratorConfig(min_agents=5, max_agents=2)
        with pytest.raises(PolicyError):
            GeneratorConfig(dimensions=())
        with pytest.raises(PolicyError, match="max_proposals"):
            GeneratorConfig(max_proposals=26)
        GeneratorConfig(max_proposals=25)  # one candidate per letter but "r"

    @pytest.mark.parametrize(
        "span", [-1.0, 1e308, math.inf, 10**400], ids=["negative", "1e308", "inf", "huge_int"]
    )
    def test_coordinate_range_must_span_finite_width(self, span):
        # -1.0 would draw from a reversed interval; 2 * 1e308 overflows, and
        # the space then blamed a non-finite coordinate on agent 'v1'.
        with pytest.raises(PolicyError, match="'coordinate_range'"):
            GeneratorConfig(coordinate_range=span)

    @pytest.mark.parametrize("span", [0, 0.0, 1e300])
    def test_coordinate_range_edge_values_generate(self, span):
        space, _ = generate_scenario(GeneratorConfig(coordinate_range=span), 5)
        assert all(abs(x) <= span for _, loc in space.agents for x in loc)

    def test_continuous_coordinate_range_bounded(self):
        # above about 1e77 the hull solver overflowed and ended in an IndexError
        with pytest.raises(PolicyError, match="'coordinate_range'"):
            GeneratorConfig(mode="continuous", coordinate_range=1e80)
        config = GeneratorConfig(mode="continuous", coordinate_range=1e64)
        for seed in (1, 2, 3):
            space, initial = generate_scenario(config, seed)
            run(space, initial, Policy.parse("compromise", "uniform_random", seed))

    def test_config_dict_roundtrip(self):
        config = GeneratorConfig(mode="continuous", max_agents=6, dimensions=(1, 2))
        assert GeneratorConfig.from_dict(config.to_dict()) == config


class TestBatch:
    def test_rows_and_summary(self):
        config = GeneratorConfig(mode="finite", max_agents=5)
        policies = [Policy.parse("follow,single_agent"), Policy.parse("merge")]
        rows = batch(config, policies, seeds=range(5))
        assert len(rows) == 10
        for row in rows:
            assert row.policy in ("follow,single_agent", "merge")
            assert row.x_size != "continuous"
            assert row.classification in ("successful", "unsuccessful", "step_cap_reached")
        summary = summarize(rows)
        assert summary["merge"]["runs"] == 5
        assert 0.0 <= summary["merge"]["success_rate"] <= 1.0
        assert sum(summary["merge"]["step_histogram"].values()) == 5

    def test_batch_deterministic(self):
        config = GeneratorConfig(mode="continuous", max_agents=5, dimensions=(1, 2))
        policies = [Policy.parse("compromise")]
        assert batch(config, policies, seeds=range(4)) == batch(config, policies, seeds=range(4))

    def test_continuous_x_size(self):
        config = GeneratorConfig(mode="continuous", max_agents=4, dimensions=(1,))
        rows = batch(config, [Policy.parse("merge")], seeds=range(2))
        assert all(row.x_size == "continuous" for row in rows)
