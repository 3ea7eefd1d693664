"""Vectorized max-min allocator vs. the scalar reference, bit for bit.

:func:`repro.sim.fluid.maxmin_allocate_vec` promises the *exact* float
sequence of the scalar :func:`maxmin_allocate` — not approximate
equality: the fluid solver's trajectories (and the perf suite's
byte-identity gates) depend on the two paths being interchangeable at
any population size.  These tests pin that contract:

- hypothesis-randomized cap vectors (zeros, finite caps, ``inf`` mixes,
  populations straddling the ``_SCALAR_MAX`` crossover) compared with
  ``==`` per element, never ``approx``;
- the directed edge cases called out in DESIGN.md §13 (all-zero caps,
  equal shares, a single flow, NaN deferral);
- ``_seq_sum`` against the naive left-to-right accumulation loop;
- a :class:`FluidResource` population driven across the crossover so the
  integrated ``_rebalance`` path exercises the vector allocator against
  the scalar oracle on live flows, and its scalar and vector ``_settle``
  drains match a whole-array reference drain.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FluidResource
from repro.sim.fluid import (_SCALAR_MAX, _seq_sum, maxmin_allocate,
                             maxmin_allocate_vec)

# Cap values the allocator sees in practice: zero and tiny caps from
# throttled flows, mid-range finite caps, and inf for uncapped flows.
_cap = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-12, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)


def assert_bit_identical(capacity, caps):
    ref = maxmin_allocate(capacity, list(caps))
    vec = maxmin_allocate_vec(capacity, np.asarray(caps, dtype=np.float64))
    assert len(ref) == len(vec)
    for i, (r, v) in enumerate(zip(ref, vec)):
        # Bitwise: == on floats, with NaN==NaN allowed explicitly.
        assert r == v or (math.isnan(r) and math.isnan(v)), (
            f"position {i}: scalar {r!r} != vec {float(v)!r} "
            f"(capacity={capacity}, n={len(ref)})")


@settings(max_examples=200, deadline=None)
@given(capacity=st.floats(min_value=1e-6, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
       caps=st.lists(_cap, max_size=3 * _SCALAR_MAX))
def test_vec_matches_scalar_bitwise(capacity, caps):
    assert_bit_identical(capacity, caps)


@settings(max_examples=60, deadline=None)
@given(capacity=st.floats(min_value=1e-6, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
       n=st.integers(0, 3 * _SCALAR_MAX),
       cap=_cap)
def test_vec_matches_scalar_on_equal_caps(capacity, n, cap):
    """All-equal caps hit the identity-permutation fast path."""
    assert_bit_identical(capacity, [cap] * n)


class TestDirectedEdgeCases:
    def test_empty(self):
        assert len(maxmin_allocate_vec(10.0, np.empty(0))) == 0

    def test_single_flow(self):
        assert_bit_identical(10.0, [math.inf])
        assert_bit_identical(10.0, [3.0])
        assert_bit_identical(10.0, [30.0])

    def test_all_zero_caps(self):
        assert_bit_identical(100.0, [0.0] * 50)

    def test_all_uncapped_equal_shares(self):
        # The dominant meter population: every position is the memoized
        # equal-share tail.
        for n in (2, _SCALAR_MAX, _SCALAR_MAX + 1, 100):
            assert_bit_identical(100.0, [math.inf] * n)

    def test_crossover_populations(self):
        """Sizes straddling the scalar/vector switch in _rebalance."""
        for n in (_SCALAR_MAX - 1, _SCALAR_MAX, _SCALAR_MAX + 1):
            caps = [1.0 + i if i % 3 else math.inf for i in range(n)]
            assert_bit_identical(50.0, caps)

    def test_finite_cap_above_share_runs(self):
        # Caps larger than the fair share force the scalar-steps regime.
        assert_bit_identical(10.0, [100.0, 200.0, 300.0, 400.0])

    def test_mixed_regimes_interleaved(self):
        caps = [0.5, math.inf, 2.0, math.inf, 0.1, 1e6, 0.0, 3.0]
        assert_bit_identical(7.3, caps)

    def test_nan_caps_defer_to_scalar(self):
        caps = [1.0, float("nan"), math.inf]
        assert_bit_identical(10.0, caps)

    def test_capacity_zero(self):
        assert_bit_identical(0.0, [1.0, math.inf, 0.0])


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                 allow_nan=False), max_size=200))
def test_seq_sum_matches_left_fold(values):
    total = 0.0
    for v in values:
        total += v
    arr = np.asarray(values, dtype=np.float64)
    assert _seq_sum(arr) == total  # bitwise, not approx


def _live_rates(n_flows):
    """Rates of *n_flows* live flows on one FluidResource vs. the oracle."""
    env = Environment()
    res = FluidResource(env, capacity=100.0)
    caps = [math.inf if i % 4 == 0 else 0.5 + (i % 7) for i in range(n_flows)]
    flows = [res.submit(work=1e9, cap=c, label=f"f{i}")
             for i, c in enumerate(caps)]
    env.run(until=0.0)
    want = maxmin_allocate(100.0, caps)
    return [f.rate for f in flows], want


@pytest.mark.parametrize("n_flows", [_SCALAR_MAX - 4, _SCALAR_MAX - 1,
                                     _SCALAR_MAX, _SCALAR_MAX + 1,
                                     _SCALAR_MAX + 8])
def test_fluid_resource_across_crossover(n_flows):
    """_rebalance below/above _SCALAR_MAX produces oracle-exact rates."""
    got, want = _live_rates(n_flows)
    assert got == want  # bitwise


def test_fluid_resource_paths_agree_over_time():
    """Crossing the threshold mid-run (removals) stays oracle-exact."""
    env = Environment()
    res = FluidResource(env, capacity=64.0)
    flows = [res.submit(work=(i + 1) * 100.0, cap=0.75 + i % 5,
                        label=f"f{i}") for i in range(_SCALAR_MAX + 12)]
    # Flows finish one by one, shrinking the population through the
    # crossover; at every step live rates must match the scalar oracle.
    while any(f.finished_at is None for f in flows):
        env.run(until=env.now + 25.0)
        live = [f for f in flows if f.finished_at is None]
        if not live:
            break
        want = maxmin_allocate(64.0, [f.cap for f in live])
        assert [f.rate for f in live] == want


def test_fluid_settle_across_crossover_matches_vector_drain():
    """Grow then shrink a population (persistent flows mixed in) across
    _SCALAR_MAX: every settle leaves ``remaining`` bit-equal to the
    whole-array drain, and busy_time() to its reference integral."""
    env = Environment()
    res = FluidResource(env, capacity=64.0)
    real_settle = res._settle
    sizes = []
    ref_busy = [0.0]

    def settle_with_reference():
        dt = env.now - res._last_update
        if dt > 0:
            sizes.append(res._act_n - res._act_dead)
            drain = np.where(res._f_pers, 0.0, res._f_rate * dt)
            want = np.maximum(res._f_rem - drain, 0.0)
            ref_busy[0] += res._used_now * dt
            real_settle()
            assert np.array_equal(res._f_rem, want)
        else:
            real_settle()

    res._settle = settle_with_reference
    flows = []
    for i in range(_SCALAR_MAX + 10):
        work = None if i % 5 == 0 else 3.0 + 7.0 * i
        cap = math.inf if i % 3 else 0.25 + i % 4
        flows.append(res.submit(work, cap=cap, label=f"f{i}"))
        env.run(until=env.now + 0.01 * (i + 1))
    for f in flows[::7]:
        res.remove(f)
        env.run(until=env.now + 0.5)
    env.run(until=env.now + 1e4)
    for f in [f for f in flows if f.persistent and f._slot >= 0]:
        res.remove(f)
        env.run(until=env.now + 0.5)
    assert min(sizes) <= _SCALAR_MAX < max(sizes)
    assert all(f.remaining == 0.0 for f in flows
               if not f.persistent and f.finished_at is not None)
    assert res.busy_time() == ref_busy[0] / res.capacity
