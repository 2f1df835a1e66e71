"""The simulator's histograms in a campaign cell's metrics, pinned.

An instrumented run buffers its ``sim.message.delay`` and
``sim.scheduler.queue_depth`` samples and observes them when its event
loop ends.  The snapshot must read exactly as when each sample was
observed on the spot: the same count, bucket counts and ``sum`` to the
last bit -- also for a run stopped by its event budget, whose samples up
to the raise are recorded.  The figures below were recorded with the
per-sample observes.
"""

import pytest

from repro.experiments.common import heterogeneous_builder, round_trip_bias_builder
from repro.graphs import ring
from repro.obs.recorder import Recorder, recording
from repro.runner.cells import CellSpec, CellTask, execute_cell
from repro.sim.network import NetworkSimulator, SimulationConfig, SimulationError
from repro.workloads.scenarios import heterogeneous

HISTOGRAMS = ("sim.message.delay", "sim.scheduler.queue_depth")


def readings(snapshot):
    return {
        name: (
            snapshot[name]["count"],
            snapshot[name]["counts"],
            float.hex(snapshot[name]["sum"]),
        )
        for name in HISTOGRAMS
    }


@pytest.mark.parametrize(
    "build, n, seed, expected",
    [
        (
            heterogeneous_builder, 8, 11,
            {
                "sim.message.delay": (
                    48,
                    [0] * 13 + [4, 34, 9, 1],
                    "0x1.adab3b57eee44p+7",
                ),
                "sim.scheduler.queue_depth": (
                    80,
                    [2, 1, 2, 6, 15, 54, 0, 0, 0, 0, 0, 0],
                    "0x1.6800000000000p+10",
                ),
            },
        ),
        (
            round_trip_bias_builder, 16, 4,
            {
                "sim.message.delay": (
                    96,
                    [0] * 13 + [6, 12, 18, 60],
                    "0x1.0d42c13d17ed1p+10",
                ),
                "sim.scheduler.queue_depth": (
                    160,
                    [2, 1, 2, 4, 9, 24, 87, 31, 0, 0, 0, 0],
                    "0x1.cd40000000000p+12",
                ),
            },
        ),
    ],
    ids=["heterogeneous-ring8", "round-trip-bias-ring16"],
)
def test_cell_histograms_are_pinned(build, n, seed, expected):
    outcome = execute_cell(CellTask(CellSpec(build.__name__, ring(n), seed), build))
    assert readings(outcome.metrics) == expected


def test_samples_before_an_event_budget_raise_are_recorded():
    scenario = heterogeneous(ring(8), seed=11)
    simulator = NetworkSimulator(
        scenario.system,
        scenario.samplers,
        scenario.start_times,
        seed=scenario.seed,
        config=SimulationConfig(max_events=30),
    )
    recorder = Recorder()
    with recording(recorder), pytest.raises(SimulationError, match="budget"):
        simulator.run(scenario.automata)
    assert readings(recorder.registry.snapshot()) == {
        "sim.message.delay": (
            22,
            [0] * 13 + [2, 16, 3, 1],
            "0x1.869650ba403a9p+6",
        ),
        "sim.scheduler.queue_depth": (
            30,
            [0, 0, 0, 1, 4, 25, 0, 0, 0, 0, 0, 0],
            "0x1.4c80000000000p+9",
        ),
    }
