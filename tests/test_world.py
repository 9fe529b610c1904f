"""Environment generators, observation noise, and world stepping."""

import math

import numpy as np
import pytest

from tailnav.geometry import Pose, VelocityCommand, WallSegment
from tailnav.world import (
    EnvironmentConfig,
    ObstacleSpec,
    StaticMap,
    build_environment,
    current_clearance,
    init_world,
    observe,
    step_world,
)

STOP = VelocityCommand(0.0, 0.0)


def _minimal_config(**overrides) -> EnvironmentConfig:
    base = dict(
        name="open-space",
        static_map=StaticMap(walls=(), bounds=(0.0, 0.0, 12.0, 10.0)),
        obstacles=(),
        start=Pose(1.0, 5.0, 0.0),
        goal=(11.0, 5.0),
        goal_radius=0.4,
        robot_radius=0.3,
        dt=0.1,
        max_steps=600,
        v_max=1.0,
        omega_max=1.5,
        sigma_obs=0.0,
        sensing_radius=6.0,
        sigma_act=0.0,
    )
    base.update(overrides)
    return EnvironmentConfig(**base)


class TestBuildEnvironment:
    def test_open_space_has_no_walls(self):
        cfg, _state = build_environment("open-space", 0)
        assert cfg.static_map.walls == ()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_environment("labyrinth", 0)

    def test_deterministic_construction(self):
        a, _ = build_environment("bottleneck", 7)
        b, _ = build_environment("bottleneck", 7)
        assert a.to_dict() == b.to_dict()

    def test_seeds_vary_layout(self):
        a, _ = build_environment("bottleneck", 0)
        b, _ = build_environment("bottleneck", 1)
        assert a.to_dict() != b.to_dict()

    def test_bottleneck_gap_width_in_range(self):
        for seed in range(20):
            cfg, _ = build_environment("bottleneck", seed)
            # The slab rectangles leave a vertical gap at x in [5.5, 6];
            # its edges are the interior wall-corner ys nearest the center.
            ys = sorted({round(p[1], 9) for w in cfg.static_map.walls
                         for p in (w.a, w.b)
                         if 5.4 < p[0] < 6.1 and 0.0 < p[1] < 10.0})
            mid = (ys[0] + ys[-1]) / 2.0
            lo = max(y for y in ys if y < mid)
            hi = min(y for y in ys if y > mid)
            assert 1.2 <= hi - lo <= 1.8

    def test_all_environments_have_reachable_goal_inside_bounds(self):
        for name in ("open-space", "bottleneck", "warehouse-squeeze"):
            cfg, state = build_environment(name, 3)
            x0, y0, x1, y1 = cfg.static_map.bounds
            assert x0 <= cfg.goal[0] <= x1 and y0 <= cfg.goal[1] <= y1
            assert state.outcome == "running"

    def test_config_round_trips_through_dict(self):
        for name in ("open-space", "bottleneck", "warehouse-squeeze"):
            cfg, _ = build_environment(name, 5)
            assert EnvironmentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_refused(self):
        cfg, _ = build_environment("bottleneck", 0)
        d = {**cfg.to_dict(), "sigma_actt": 0.5}
        with pytest.raises(TypeError, match="sigma_actt"):
            EnvironmentConfig.from_dict(d)

    def test_missing_command_delay_loads_as_zero(self):
        cfg, _ = build_environment("bottleneck", 0)
        d = cfg.to_dict()
        del d["command_delay"]
        assert EnvironmentConfig.from_dict(d) == cfg
        assert cfg.command_delay == 0


class TestObserve:
    def test_exact_positions_without_noise(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(3.0, 5.0), radius=0.35,
                         behavior="crossing", speed=0.0),
        ))
        state = init_world(cfg, 0)
        obs = observe(state, cfg)
        assert len(obs.obstacles) == 1
        oid, pos, radius = obs.obstacles[0]
        assert (oid, radius) == (0, 0.35)
        assert pos == pytest.approx((3.0, 5.0))

    def test_sensing_radius_limits_visibility(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(10.0, 5.0), radius=0.35,
                         behavior="crossing", speed=0.0),
        ), sensing_radius=6.0)
        state = init_world(cfg, 0)
        assert observe(state, cfg).obstacles == ()

    def test_seeded_noise_reproducible(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(3.0, 5.0), radius=0.35,
                         behavior="crossing", speed=0.0),
        ), sigma_obs=0.05)
        a = observe(init_world(cfg, 4), cfg).obstacles[0][1]
        b = observe(init_world(cfg, 4), cfg).obstacles[0][1]
        assert a == b
        assert a != (3.0, 5.0)
        c = observe(init_world(cfg, 5), cfg).obstacles[0][1]
        assert a != c


class TestStepWorld:
    def test_stop_command_keeps_pose(self):
        cfg = _minimal_config()
        state = init_world(cfg, 0)
        state, _obs, out = step_world(state, STOP, cfg)
        assert (state.robot.x, state.robot.y) == (1.0, 5.0)
        assert out.status == "running"

    def test_goal_threshold_success(self):
        cfg = _minimal_config(start=Pose(10.55, 5.0, 0.0))
        state = init_world(cfg, 0)
        state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
        assert out.status == "success"
        assert state.outcome == "success"

    def test_driving_into_wall_collides_with_negative_clearance(self):
        cfg = _minimal_config(
            static_map=StaticMap(
                walls=(WallSegment((1.5, 4.0), (1.5, 6.0)),),
                bounds=(0.0, 0.0, 12.0, 10.0)),
        )
        state = init_world(cfg, 0)
        clear = []
        for _ in range(3):
            state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
            clear.append(out.clearance)
            if out.status == "collision":
                break
        assert out.status == "collision"
        assert clear[0] > 0.0 > clear[-1]

    def test_thin_wall_not_tunneled_at_full_speed(self):
        cfg = _minimal_config(
            static_map=StaticMap(
                walls=(WallSegment((2.0, 4.9), (2.0, 5.1)),),
                bounds=(0.0, 0.0, 12.0, 10.0)),
            goal=(11.0, 5.0),
        )
        state = init_world(cfg, 0)
        while state.outcome == "running":
            state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
            if state.robot.x > 3.0:
                break
        assert state.outcome == "collision"

    def test_collision_takes_precedence_over_success(self):
        cfg = _minimal_config(
            start=Pose(10.55, 5.0, 0.0),
            obstacles=(ObstacleSpec(position=(10.8, 5.0), radius=0.35,
                                    behavior="crossing", speed=0.0),),
        )
        state = init_world(cfg, 0)
        state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
        assert out.status == "collision"

    def test_timeout_at_max_steps(self):
        cfg = _minimal_config(max_steps=5)
        state = init_world(cfg, 0)
        for _ in range(5):
            state, _obs, out = step_world(state, STOP, cfg)
        assert out.status == "timeout"

    def test_terminal_state_cannot_step(self):
        cfg = _minimal_config(max_steps=1)
        state = init_world(cfg, 0)
        state, _obs, _out = step_world(state, STOP, cfg)
        with pytest.raises(RuntimeError):
            step_world(state, STOP, cfg)

    def test_command_clamped_to_limits(self):
        cfg = _minimal_config()
        state = init_world(cfg, 0)
        _state, _obs, out = step_world(state, VelocityCommand(5.0, -9.0), cfg)
        assert out.executed.v <= cfg.v_max
        assert out.executed.omega >= -cfg.omega_max

    def test_actuation_noise_seeded(self):
        cfg = _minimal_config(sigma_act=0.02)
        outs = []
        for _ in range(2):
            state = init_world(cfg, 11)
            _state, _obs, out = step_world(state, VelocityCommand(1.0, 0.5),
                                           cfg)
            outs.append((out.executed.v, out.executed.omega))
        assert outs[0] == outs[1]
        assert outs[0] != (1.0, 0.5)

    def test_command_delay_queues_commands(self):
        cfg = _minimal_config(command_delay=2)
        state = init_world(cfg, 0)
        state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
        assert out.executed.v == 0.0
        state, _obs, out = step_world(state, VelocityCommand(1.0, 0.0), cfg)
        assert out.executed.v == 0.0
        state, _obs, out = step_world(state, VelocityCommand(0.5, 0.0), cfg)
        assert out.executed.v == pytest.approx(1.0)

    def test_full_episode_bit_reproducible(self):
        cfg, _ = build_environment("bottleneck", 3)

        def run():
            state = init_world(cfg, 3)
            rows = []
            for k in range(40):
                cmd = VelocityCommand(0.75, 0.5 if k % 2 else -0.5)
                state, obs, out = step_world(state, cmd, cfg)
                rows.append((state.robot.x, state.robot.y,
                             state.robot.heading, out.clearance,
                             tuple(map(tuple, state.positions))))
                if state.outcome != "running":
                    break
            return rows

        assert run() == run()


class TestObstacleBehaviors:
    def test_crossing_obstacle_moves_along_direction(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(6.0, 8.0), radius=0.35,
                         behavior="crossing", speed=0.5,
                         direction=(0.0, -1.0)),
        ))
        state = init_world(cfg, 0)
        state, _obs, _out = step_world(state, STOP, cfg)
        assert state.positions[0] == pytest.approx([6.0, 7.95])

    def test_crossing_obstacle_reflects_at_bounds(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(6.0, 0.2), radius=0.35,
                         behavior="crossing", speed=1.0,
                         direction=(0.0, -1.0)),
        ), start=Pose(1.0, 9.0, 0.0))
        state = init_world(cfg, 0)
        for _ in range(10):
            state, _obs, _out = step_world(state, STOP, cfg)
        assert state.directions[0][1] == 1.0
        assert state.positions[0][1] > 0.0

    def test_patrolling_obstacle_turns_around(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(6.0, 8.0), radius=0.35,
                         behavior="patrolling", speed=1.0,
                         direction=(1.0, 0.0), patrol_span=2.0),
        ))
        state = init_world(cfg, 0)
        max_x = 6.0
        for _ in range(30):
            state, _obs, _out = step_world(state, STOP, cfg)
            max_x = max(max_x, state.positions[0][0])
        assert max_x < 7.3                      # reversed near span/2 = 1.0
        assert state.directions[0][0] == -1.0 or state.positions[0][0] < 6.0

    def test_gap_blocker_waits_until_triggered(self):
        spec = ObstacleSpec(position=(9.0, 5.0), radius=0.5,
                            behavior="gap-blocking", speed=0.8,
                            trigger_distance=3.0, target=(6.0, 5.0),
                            hold_time=1.0)
        cfg = _minimal_config(obstacles=(spec,), start=Pose(1.0, 5.0, 0.0))
        state = init_world(cfg, 0)
        for _ in range(10):
            state, _obs, _out = step_world(state, STOP, cfg)
        assert state.positions[0] == pytest.approx([9.0, 5.0])

    def test_gap_blocker_transits_holds_and_retreats(self):
        spec = ObstacleSpec(position=(9.0, 5.0), radius=0.5,
                            behavior="gap-blocking", speed=0.8,
                            trigger_distance=20.0, target=(8.0, 5.0),
                            retreat=(9.5, 5.0), hold_time=0.5)
        cfg = _minimal_config(obstacles=(spec,), start=Pose(1.0, 5.0, 0.0))
        state = init_world(cfg, 0)
        xs = []
        for _ in range(60):
            state, _obs, _out = step_world(state, STOP, cfg)
            xs.append(state.positions[0][0])
        assert min(xs) == pytest.approx(8.0, abs=0.15)   # reached the target
        assert xs[-1] == pytest.approx(9.5, abs=0.15)    # retreated for good

    def test_invalid_behavior_rejected(self):
        with pytest.raises(ValueError):
            ObstacleSpec(position=(0.0, 0.0), radius=0.3,
                         behavior="wandering", speed=0.5)


class TestCurrentClearance:
    def test_matches_manual_arithmetic(self):
        cfg = _minimal_config(obstacles=(
            ObstacleSpec(position=(3.0, 5.0), radius=0.4,
                         behavior="crossing", speed=0.0),
        ))
        state = init_world(cfg, 0)
        assert current_clearance(state, cfg) == pytest.approx(2.0 - 0.3 - 0.4)
