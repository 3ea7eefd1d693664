"""Same-instant batched rebalancing of FluidResource (DESIGN.md §8).

A submit to a resource already solved at ``now`` defers its solve to a
shared zero-delay entry.  The oracle below is the eager behaviour it
replaces, written out here: the identical schedule with ``_rebalance()``
forced after every mutation.  Both runs must agree bit for bit on the
order and time of every completion, every value read mid-burst,
``finished_at`` and ``busy_time()``.
"""

import math
import random

import pytest

from repro.sim import Environment, FluidResource, SimulationError

#: Equal works make wakeups tie across resources; the tiny ones sit near
#: the clock's resolution at t = 1e8 (one ulp is ~1.49e-8 there).
WORKS = (1.0, 2.0, 2.0, 4.0, None, 1.2e-8, 2e-8, 3e-8, 5e-10)
CAPS = (math.inf, math.inf, 0.5, 1.0, 3.0)
CAPACITIES = (1.0, 2.0, 4.0)
READS = ("rate", "remaining", "used_rate", "utilization", "busy_time",
         "flows")


def _script(seed: int) -> dict:
    """A random multi-process burst schedule over three or four resources."""
    rng = random.Random(seed)
    procs = []
    for _ in range(rng.randint(2, 3)):
        steps = []
        for _ in range(rng.randint(10, 30)):
            kind = rng.choices(
                ("submit", "remove", "capacity", "cap", "read", "yield0",
                 "wait"), weights=(10, 1, 1, 1, 3, 2, 2))[0]
            if kind == "submit":
                steps.append((kind, rng.random(), rng.choice(WORKS),
                              rng.choice(CAPS)))
            elif kind in ("capacity", "cap"):
                steps.append((kind, rng.random(), rng.random(),
                              rng.choice(CAPACITIES)))
            elif kind == "read":
                steps.append((kind, rng.random(), rng.random(),
                              rng.choice(READS)))
            elif kind == "wait":
                steps.append((kind, rng.choice((0.5, 1.0, 2.0))))
            else:
                steps.append((kind, rng.random()))
        procs.append(steps)
    return {"t0": rng.choice((0.0, 1e8)),
            "capacities": [rng.choice(CAPACITIES)
                           for _ in range(rng.randint(3, 4))],
            "procs": procs}


def _pick(seq, u):
    return seq[int(u * len(seq))]


def _run(script: dict, eager: bool) -> list:
    """Execute *script*; ``eager`` forces a solve after every mutation."""
    env = Environment(initial_time=script["t0"])
    res = [FluidResource(env, c, name=f"r{i}")
           for i, c in enumerate(script["capacities"])]
    flows = []
    log = []

    def solved(r):
        if eager:
            r._rebalance()

    def live():
        return [f for f in flows if f._slot >= 0]

    def proc(pid, steps):
        for step in steps:
            kind = step[0]
            if kind == "submit":
                r = _pick(res, step[1])
                f = r.submit(step[2], cap=step[3], label=f"f{len(flows)}")
                flows.append(f)
                f.done.callbacks.append(
                    lambda ev, lab=f.label: log.append(
                        (lab, "done" if ev.ok else "cancel", env.now)))
                if not f.done.triggered:  # a done flow never solved
                    solved(r)
            elif kind == "remove":
                if live():
                    f = _pick(live(), step[1])
                    log.append((pid, "removed", f.label,
                                f.resource.remove(f)))
                    solved(f.resource)
            elif kind == "capacity":
                r = _pick(res, step[1])
                r.adjust_capacity(step[3])
                solved(r)
            elif kind == "cap":
                if live():
                    f = _pick(live(), step[1])
                    f.resource.adjust_cap(f, step[3])
                    solved(f.resource)
            elif kind == "read":
                what = step[3]
                if what in ("rate", "remaining"):
                    if flows:
                        f = _pick(flows, step[1])
                        log.append((pid, what, f.label, getattr(f, what)))
                else:
                    r = _pick(res, step[2])
                    got = getattr(r, what)
                    if what == "busy_time":
                        got = got()
                    elif what == "flows":
                        got = tuple(f.label for f in got)
                    log.append((pid, what, r.name, got))
            elif kind == "yield0":
                yield env.timeout(0.0)
            else:
                yield env.timeout(step[1])

    for pid, steps in enumerate(script["procs"]):
        env.process(proc(pid, steps))
    env.run(until=script["t0"] + 64.0)
    for f in live():
        if f.persistent:
            f.resource.remove(f)
    env.run()
    log.append(("finished_at", [f.finished_at for f in flows]))
    log.append(("busy", [r.busy_time() for r in res]))
    return log


@pytest.mark.parametrize("seed", range(60))
def test_batched_matches_eager_oracle(seed):
    script = _script(seed)
    assert _run(script, eager=False) == _run(script, eager=True)


def _edge_env(log):
    env = Environment(initial_time=1e8)
    a = FluidResource(env, 1.0, name="a")
    b = FluidResource(env, 1.0, name="b")

    def track(flow):
        flow.done.callbacks.append(
            lambda ev: log.append((flow.label, ev.ok, env.now)))
        return flow

    return env, a, b, track


def _sub_resolution_submit(eager: bool) -> list:
    # A capped flow solves `a` at this instant; the tiny flow then gets
    # rate ~1 and finishes inside one ulp of t = 1e8, so its submit must
    # complete it on the spot, ahead of b's zero-work flow.
    log = []
    env, a, b, track = _edge_env(log)
    track(a.submit(1.0, cap=1e-6, label="capped"))
    track(a.submit(1.2e-8, label="tiny"))
    if eager:
        a._rebalance()
    track(b.submit(0.0, label="zero"))
    env.run()
    return log


def _remove_lifts_below_resolution(eager: bool) -> list:
    # Sharing `a`, the small flow needs two ulps; removing its competitor
    # doubles its rate so it finishes inside one, at the removal.
    log = []
    env, a, b, track = _edge_env(log)
    big = track(a.submit(1.0, label="big"))
    track(a.submit(1e-8, label="small"))
    a.remove(big)
    if eager:
        a._rebalance()
    track(b.submit(0.0, label="zero"))
    env.run()
    return log


@pytest.mark.parametrize("case, label", [(_sub_resolution_submit, "tiny"),
                                         (_remove_lifts_below_resolution,
                                          "small")])
def test_sub_resolution_completes_in_place(case, label):
    got = case(eager=False)
    assert got == case(eager=True)
    labels = [lab for lab, _ok, _t in got]
    assert got[labels.index(label)] == (label, True, 1e8)
    assert labels.index(label) < labels.index("zero")


def _mid_burst_mutation(mutate, eager: bool) -> list:
    # a's second submit defers and reserves a tie; b then arms a wakeup
    # for the same time t=2.  A mutation of `a` after that must arm with
    # a fresh tie, behind b's, as an eager solve at that point would.
    log = []
    env = Environment()
    a = FluidResource(env, 2.0, name="a")
    b = FluidResource(env, 1.0, name="b")
    x = a.submit(2.0, cap=1.0, label="x")
    y = a.submit(2.0, cap=1.0, label="y")
    if eager:
        a._rebalance()
    z = b.submit(2.0, label="z")
    mutate(a, y)
    for f in (x, y, z):
        f.done.callbacks.append(
            lambda ev, f=f: log.append((f.label, ev.ok, env.now)))
    env.run()
    return log


@pytest.mark.parametrize("mutate", [
    lambda res, flow: res.remove(flow),
    lambda res, flow: res.adjust_capacity(2.0),
    lambda res, flow: res.adjust_cap(flow, 1.0),
], ids=["remove", "adjust_capacity", "adjust_cap"])
def test_mid_burst_mutation_arms_with_a_fresh_tie(mutate):
    got = _mid_burst_mutation(mutate, eager=False)
    assert got == _mid_burst_mutation(mutate, eager=True)
    done = [lab for lab, ok, t in got if ok and t == 2.0]
    assert done[0] == "z" and "x" in done


def test_burst_at_one_instant_costs_two_rebalances():
    env = Environment()
    res = FluidResource(env, 10.0)
    calls = []
    real = res._rebalance

    def spy():
        calls.append(env.now)
        real()

    res._rebalance = spy
    flows = [res.submit(5.0 + i, cap=1.0 + i % 3) for i in range(40)]
    assert len(calls) == 1       # the first submit solved eagerly
    env.run(until=0.0)           # the shared zero-delay entry flushes
    assert calls == [0.0, 0.0]
    env.run()
    assert all(f.finished_at > 0 for f in flows)


def test_reads_flush_a_deferred_burst():
    env = Environment()
    res = FluidResource(env, 12.0)
    a = res.submit(100.0)
    b = res.submit(100.0)
    c = res.submit(100.0, cap=2.0)
    assert res._pending
    assert [a.rate, b.rate, c.rate] == [5.0, 5.0, 2.0]
    assert not res._pending
    assert res.used_rate == 12.0


def test_adjust_cap_rejects_a_foreign_flow():
    env = Environment()
    a = FluidResource(env, 10.0, name="a")
    b = FluidResource(env, 10.0, name="b")
    flow = a.submit(100.0)
    with pytest.raises(SimulationError, match="another resource"):
        b.adjust_cap(flow, 2.0)
    assert flow.cap == math.inf and flow.rate == 10.0
    a.adjust_cap(flow, 2.0)
    env.run(until=flow.done)
    assert env.now == 50.0
