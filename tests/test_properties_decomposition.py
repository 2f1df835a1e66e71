"""Theorem 5.6 through the whole pipeline (hypothesis).

Composing one link's assumption with one more component that the
execution satisfies shrinks the admissible set to the intersection, so
``from_views`` on the composed system may only tighten: no ``mls~``
entry, no ``ms~`` entry and not the precision may rise.  The execution
stays admissible, so every true offset ``S_p - S_q`` must still lie in
the tightened ``[-ms~(q, p), ms~(p, q)]``.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bias import RoundTripBias, RoundTripBiasUnsigned
from repro.delays.bounds import BoundedDelay, lower_bounds_only, no_bounds
from repro.delays.composite import Composite
from repro.delays.system import System
from repro.graphs.topology import random_connected, ring
from repro.workloads.scenarios import bounded_uniform, heterogeneous

#: Karp's cycle mean subtracts path weights, so a tighter ``ms~`` may
#: read a last-bit larger precision; ``mls~`` and ``ms~`` are exact.
PRECISION_TOL = 1e-9


def extra_component(kind, fwd, rev, slack):
    """An assumption of ``kind`` that delays ``fwd``/``rev`` satisfy."""
    both = fwd + rev
    if kind == "none":
        return no_bounds()
    if kind == "lower":
        return lower_bounds_only(
            max(0.0, min(fwd, default=0.0) - slack),
            max(0.0, min(rev, default=0.0) - slack),
        )
    if kind == "bounded":
        lb = max(0.0, min(both, default=0.0) - slack)
        return BoundedDelay.symmetric(lb, max(both, default=lb) + slack)
    spread = max(
        [0.0]
        + [f - r for f in fwd for r in rev]
        + [r - f for f in fwd for r in rev]
    )
    if kind == "bias":
        return RoundTripBias(spread + slack)
    return RoundTripBiasUnsigned(spread + slack)


@st.composite
def composed(draw):
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        scenario = heterogeneous(
            random_connected(draw(st.integers(3, 7)), 0.3, seed), seed=seed
        )
    else:
        scenario = bounded_uniform(
            ring(draw(st.integers(3, 6))), lb=1.0, ub=3.0, seed=seed
        )
    alpha = scenario.run()
    system = scenario.system
    link = draw(st.sampled_from(system.topology.links))
    fwd, rev = system.link_delays(alpha, *link)
    kind = draw(
        st.sampled_from(["none", "lower", "bounded", "bias", "unsigned"])
    )
    extra = extra_component(kind, fwd, rev, draw(st.floats(0.0, 2.0)))
    combined = Composite.of(system.assumptions[link], extra)
    assume(combined.admits(fwd, rev))
    tighter = System(
        topology=system.topology,
        assumptions={**system.assumptions, link: combined},
    )
    return system, tighter, alpha


class TestCompositionNeverLoosens:
    @given(composed())
    @settings(max_examples=60, deadline=None)
    def test_one_more_component_only_tightens(self, case):
        system, tighter, alpha = case
        views = alpha.views()
        before = ClockSynchronizer(system).from_views(views)
        after = ClockSynchronizer(tighter).from_views(views)

        assert list(after.mls_tilde) == list(before.mls_tilde)
        for edge, value in after.mls_tilde.items():
            assert value <= before.mls_tilde[edge], edge
        assert np.all(after.ms_tilde.matrix <= before.ms_tilde.matrix)
        assert after.precision <= before.precision + PRECISION_TOL

        starts = alpha.start_times()
        for p in system.processors:
            for q in system.processors:
                low, high = after.offset_interval(p, q)
                truth = starts[p] - starts[q]
                assert low - 1e-9 <= truth <= high + 1e-9, (p, q)
