"""Tests of the benchmark's own machinery (no package code is timed here)."""

import types

from refs import reference_gamma
from tracing import Tracer, tail_percentile
from workloads import WORKLOADS, ball_inputs, query_inputs


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_union_of_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", clock.advance)

    def middle():
        clock.advance(5)
        leaf(10)
        clock.advance(1)
        leaf(4)

    mid = tracer.wrap("mid", middle)

    def outer():
        clock.advance(2)
        mid()
        clock.advance(3)
        leaf(7)

    tracer.wrap("top", outer)()
    # top spans 2 + 20 + 3 + 7 = 32 and its children (mid, one leaf) cover 27;
    # the grandchildren inside mid are not subtracted a second time
    assert tracer.stats["top"] == [1, 32, 5]
    assert tracer.stats["mid"] == [1, 20, 6]
    assert tracer.stats["leaf"] == [3, 21, 21]


def test_bfs_setup_ends_at_first_product():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    product = tracer.wrap("mul", lambda: clock.advance(1), product=True)

    def enumerate_ball():
        clock.advance(7)
        product()
        clock.advance(2)
        product()

    tracer.wrap("bfs", enumerate_ball, bfs=True)()
    tracer.wrap("empty_bfs", lambda: clock.advance(4), bfs=True)()
    assert tracer.bfs_setup_ns == 7 + 4


def test_disabled_tracer_records_nothing_and_restore_undoes_patches():
    tracer = Tracer()
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer.patch(module, "f", tracer.wrap("f", module.f))
    tracer.enabled = False
    assert module.f(1) == 2 and "f" in tracer.stats and tracer.calls("f") == 0
    tracer.restore()
    assert module.f is original


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value, n = tail_percentile(range(1, 101))
    assert (pct, value, n) == (90.0, 90, 100)
    assert tail_percentile(range(10)) is None
    pct, value, n = tail_percentile([5.0] + [1.0] * 10)
    assert value == 1.0 and n == 11
    for size in (11, 37, 250):
        samples = list(range(size))
        _, value, _ = tail_percentile(samples)
        assert sum(1 for s in samples if s > value) == 10


def test_same_seed_gives_same_inputs():
    for workload in WORKLOADS[:2]:
        assert ball_inputs(workload, 7) == ball_inputs(workload, 7)
    assert query_inputs(7, "specs") == query_inputs(7, "specs")


def test_different_seeds_give_different_query_argv():
    argvs = [tuple(tuple(c["argv"]) for c in query_inputs(seed, "specs")[1]) for seed in range(20)]
    assert len(set(argvs)) == len(argvs)


def test_query_mix_is_fixed_across_seeds():
    """Seeds change arguments, not how many calls of each subcommand a round makes."""
    mixes = set()
    for seed in range(20):
        _, calls = query_inputs(seed, "specs")
        mixes.add(tuple(c["argv"][0] for c in calls))
    assert len(mixes) == 1


def test_composite_references_match_known_spheres():
    z2_z3 = reference_gamma(ball_inputs("ball-words", 0)[1]["spec"], 6)
    assert [b - a for a, b in zip(z2_z3, z2_z3[1:])] == [3, 4, 6, 8, 12, 16]
    z_x_surface = reference_gamma(ball_inputs("ball-words", 0)[3]["spec"], 4)
    assert [b - a for a, b in zip(z_x_surface, z_x_surface[1:])] == [10, 74, 522, 3650]


def test_failed_cli_call_is_a_failed_check_not_a_crash():
    from worker import QueryOp

    op = QueryOp(None, query_inputs(0, "specs")[1][0])
    assert op.check((2, "")) is False
    assert op.check((0, "not json")) is False
