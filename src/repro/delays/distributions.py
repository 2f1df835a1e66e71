"""Delay samplers for the simulator.

The paper separates the *assumption* (what an algorithm may rely on) from
the *actual behaviour* of the message delivery system.  A sampler describes
the actual behaviour: it draws a delay for each message.  A scenario pairs
each link with an assumption and a sampler whose support lies inside the
assumption's admissible set -- the simulator verifies this on every draw.

Samplers for bias-bounded links need correlation across the two directions
of a link, so the sampler interface receives the direction of each message
(``FORWARD`` = canonical ``p -> q``).

A simulated run draws from :func:`run_copy` of each sampler, so run state
(a :class:`CorrelatedLoad` base) never leaks from one run into the next.
"""

from __future__ import annotations

import copy
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro._types import Time


class Direction(Enum):
    """Orientation of a message relative to its link's canonical (p, q)."""

    FORWARD = "forward"
    REVERSE = "reverse"

    def flipped(self) -> "Direction":
        return Direction.REVERSE if self is Direction.FORWARD else Direction.FORWARD


class DelaySampler(ABC):
    """Draws a delay for one message on one link.

    Samplers may be stateful (e.g. a per-link base load); state must be
    derived only from the supplied ``rng`` so runs stay reproducible.
    """

    @abstractmethod
    def sample(self, rng: random.Random, direction: Direction) -> Time:
        """Return the delay for the next message in ``direction``."""


@dataclass
class UniformDelay(DelaySampler):
    """Delays uniform on ``[low, high]``, independent per message.

    Matches ``BoundedDelay.symmetric(low, high)`` tightly.
    """

    low: Time
    high: Time

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"need 0 <= low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        return rng.uniform(self.low, self.high)


@dataclass
class AsymmetricUniform(DelaySampler):
    """Different uniform ranges per direction (models asymmetric routes)."""

    low_forward: Time
    high_forward: Time
    low_reverse: Time
    high_reverse: Time

    def __post_init__(self) -> None:
        if not 0 <= self.low_forward <= self.high_forward:
            raise ValueError("forward range invalid")
        if not 0 <= self.low_reverse <= self.high_reverse:
            raise ValueError("reverse range invalid")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        if direction is Direction.FORWARD:
            return rng.uniform(self.low_forward, self.high_forward)
        return rng.uniform(self.low_reverse, self.high_reverse)


@dataclass
class ShiftedExponential(DelaySampler):
    """``minimum + Exp(mean_extra)``: a minimal wire delay plus queueing.

    This is the canonical "lower bound known, no upper bound" behaviour
    (model 2 of the introduction): the support is ``[minimum, inf)``.
    An optional ``cap`` truncates the tail (useful when the link is
    *assumed* unbounded but the experiment wants bounded runtimes).
    """

    minimum: Time
    mean_extra: Time
    cap: Optional[Time] = None

    def __post_init__(self) -> None:
        if self.minimum < 0 or self.mean_extra < 0:
            raise ValueError("minimum and mean_extra must be >= 0")
        if self.cap is not None and self.cap < self.minimum:
            raise ValueError("cap must be >= minimum")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        extra = rng.expovariate(1.0 / self.mean_extra) if self.mean_extra else 0.0
        d = self.minimum + extra
        if self.cap is not None:
            d = min(d, self.cap)
        return d


@dataclass
class TruncatedNormal(DelaySampler):
    """Normal(mu, sigma) clipped into ``[low, high]`` by resampling.

    A reasonable stand-in for LAN delay distributions (tight mode, small
    spread) when the experiment wants interior -- not extreme -- delays.
    """

    mu: Time
    sigma: Time
    low: Time
    high: Time
    _max_tries: int = 1000

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError("need 0 <= low <= high")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        for _ in range(self._max_tries):
            d = rng.gauss(self.mu, self.sigma)
            if self.low <= d <= self.high:
                return d
        # Pathological parameters: fall back to clamping.
        return min(max(self.mu, self.low), self.high)


@dataclass
class CorrelatedLoad(DelaySampler):
    """Bias-respecting sampler: both directions see the same base load.

    A base delay is drawn once per link (lazily, from the run's rng); each
    message gets ``base + jitter`` with ``|jitter| <= max_jitter``.  Any
    two messages, in any directions, then differ by at most
    ``2 * max_jitter``, so the sampler satisfies
    ``RoundTripBias(bias=2 * max_jitter)`` *regardless of the base load* --
    exactly the experimental observation (cf. Mills' NTP measurements) the
    paper's model 4 encodes.
    """

    base_low: Time
    base_high: Time
    max_jitter: Time
    _base: Optional[Time] = None

    def __post_init__(self) -> None:
        if not 0 <= self.base_low <= self.base_high:
            raise ValueError("need 0 <= base_low <= base_high")
        if self.max_jitter < 0:
            raise ValueError("max_jitter must be >= 0")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        if self._base is None:
            self._base = rng.uniform(self.base_low, self.base_high)
        jitter = rng.uniform(-self.max_jitter, self.max_jitter)
        return max(0.0, self._base + jitter)

    @property
    def implied_bias(self) -> Time:
        """The tightest ``RoundTripBias`` this sampler is guaranteed to meet."""
        return 2.0 * self.max_jitter


@dataclass
class Bimodal(DelaySampler):
    """Mixture of a fast mode and a slow mode (e.g. cache hit vs. retry)."""

    fast: DelaySampler
    slow: DelaySampler
    slow_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.slow_probability <= 1.0:
            raise ValueError("slow_probability must be in [0, 1]")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        chosen = self.slow if rng.random() < self.slow_probability else self.fast
        return chosen.sample(rng, direction)


@dataclass
class Constant(DelaySampler):
    """Every message takes exactly ``value`` -- degenerate but invaluable
    in tests, where exact expected precisions can be computed by hand."""

    value: Time

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("delay must be >= 0")

    def sample(self, rng: random.Random, direction: Direction) -> Time:
        return self.value


#: Built-in samplers that keep no state between draws: a run may draw
#: from the caller's instance.  Exact types only -- a subclass may add
#: state.
_STATELESS = frozenset(
    {UniformDelay, AsymmetricUniform, ShiftedExponential, TruncatedNormal,
     Constant}
)


def run_copy(sampler: DelaySampler) -> DelaySampler:
    """The instance one simulated run draws from.

    A stateless built-in is shared as it is; a :class:`CorrelatedLoad`
    gets a shallow copy, whose base is drawn afresh by the run (its
    fields are immutable numbers); any other sampler -- a user subclass,
    or a :class:`Bimodal` whose modes may hold state -- gets a deep copy.
    """
    kind = type(sampler)
    if kind in _STATELESS:
        return sampler
    if kind is CorrelatedLoad:
        return copy.copy(sampler)
    return copy.deepcopy(sampler)


__all__ = [
    "Direction",
    "DelaySampler",
    "UniformDelay",
    "AsymmetricUniform",
    "ShiftedExponential",
    "TruncatedNormal",
    "CorrelatedLoad",
    "Bimodal",
    "Constant",
    "run_copy",
]
