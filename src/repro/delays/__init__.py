"""Delay assumptions, samplers and the system ``(G, A)``.

This subpackage implements Sections 5 and 6 of the paper:

* the abstract :class:`~repro.delays.base.DelayAssumption` interface and
  the :class:`~repro.delays.base.PairTiming` statistics it consumes;
* the four concrete models of the introduction --
  :class:`~repro.delays.bounds.BoundedDelay` (upper and lower bounds),
  :func:`~repro.delays.bounds.lower_bounds_only`,
  :func:`~repro.delays.bounds.no_bounds`, and
  :class:`~repro.delays.bias.RoundTripBias`;
* :class:`~repro.delays.composite.Composite`, the decomposition theorem
  (5.6) as a combinator;
* delay samplers describing how the simulated network actually behaves;
* :class:`~repro.delays.system.System`, the paper's ``(G, A)`` pair.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ADMIT_TOL": "repro.delays.base",
    "DelayAssumption": "repro.delays.base",
    "DirectionStats": "repro.delays.base",
    "PairTiming": "repro.delays.base",
    "RoundTripBias": "repro.delays.bias",
    "RoundTripBiasUnsigned": "repro.delays.bias",
    "BoundedDelay": "repro.delays.bounds",
    "lower_bounds_only": "repro.delays.bounds",
    "no_bounds": "repro.delays.bounds",
    "Composite": "repro.delays.composite",
    "AsymmetricUniform": "repro.delays.distributions",
    "Bimodal": "repro.delays.distributions",
    "Constant": "repro.delays.distributions",
    "CorrelatedLoad": "repro.delays.distributions",
    "DelaySampler": "repro.delays.distributions",
    "Direction": "repro.delays.distributions",
    "ShiftedExponential": "repro.delays.distributions",
    "TruncatedNormal": "repro.delays.distributions",
    "UniformDelay": "repro.delays.distributions",
    "System": "repro.delays.system",
    "UnknownLinkError": "repro.delays.system",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
