"""Golden-trace regression test.

A heterogeneous 5-ring execution is archived under ``tests/data``
(system + trace JSON).  Re-synchronizing it must reproduce the pinned
precision and corrections exactly (up to float tolerance): any change to
the estimate formulas, the shortest-path stage, Karp's algorithm or the
correction construction shows up here even if all invariants still hold.

To regenerate after an *intentional* output change::

    python -c "
    from repro.analysis.system_io import save_system
    from repro.analysis.trace import save_execution
    from repro.workloads.scenarios import heterogeneous
    from repro.graphs import ring
    sc = heterogeneous(ring(5), seed=2024)
    save_system(sc.system, 'tests/data/golden_system.json')
    save_execution(sc.run(), 'tests/data/golden_trace.json')"

and update the pinned values below from the printed result.
"""

from pathlib import Path

import pytest

from repro.analysis.system_io import load_system
from repro.analysis.trace import load_execution
from repro.core.optimality import verify_certificate
from repro.core.synchronizer import ClockSynchronizer
from repro.engine import available_backends

DATA = Path(__file__).parent / "data"

PINNED_PRECISION = 0.86062467187324
PINNED_CORRECTIONS = {
    0: 0.0,
    1: 2.945356016722653,
    2: -1.557613325639131,
    3: 4.0994076550717615,
    4: -0.3613924889273963,
}


@pytest.fixture(scope="module")
def archive():
    system = load_system(DATA / "golden_system.json")
    alpha = load_execution(DATA / "golden_trace.json")
    return system, alpha


class TestGoldenTrace:
    def test_archive_loads_and_validates(self, archive):
        system, alpha = archive
        alpha.validate()
        assert system.is_admissible(alpha)

    def test_precision_pinned(self, archive):
        system, alpha = archive
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(
            PINNED_PRECISION, abs=1e-12
        )

    def test_corrections_pinned(self, archive):
        system, alpha = archive
        result = ClockSynchronizer(system).from_execution(alpha)
        for p, pinned in PINNED_CORRECTIONS.items():
            assert result.corrections[p] == pytest.approx(
                pinned, abs=1e-12
            ), p

    def test_certificate_still_verifies(self, archive):
        system, alpha = archive
        result = ClockSynchronizer(system).from_execution(alpha)
        verify_certificate(result)

    def test_all_backends_agree_on_golden_instance(self, archive):
        system, alpha = archive
        for backend in available_backends():
            result = ClockSynchronizer(
                system, backend=backend
            ).from_execution(alpha)
            assert result.precision == pytest.approx(
                PINNED_PRECISION, abs=1e-9
            ), backend


BIAS_PINNED_PRECISION = 0.12685070296264667
BIAS_PINNED_CORRECTIONS = {
    0: 0.0,
    1: 2.158511558460547,
    2: 1.3671982643361666,
    3: 0.3810651816659161,
}


class TestGoldenBiasTrace:
    """A second pinned archive under the round-trip bias model, so a
    regression localized to the Lemma 6.5 path cannot hide behind the
    heterogeneous archive."""

    @pytest.fixture(scope="class")
    def archive(self):
        system = load_system(DATA / "golden_bias_system.json")
        alpha = load_execution(DATA / "golden_bias_trace.json")
        return system, alpha

    def test_precision_pinned(self, archive):
        system, alpha = archive
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(
            BIAS_PINNED_PRECISION, abs=1e-12
        )

    def test_corrections_pinned(self, archive):
        system, alpha = archive
        result = ClockSynchronizer(system).from_execution(alpha)
        for p, pinned in BIAS_PINNED_CORRECTIONS.items():
            assert result.corrections[p] == pytest.approx(pinned, abs=1e-12)

    def test_certificate_verifies(self, archive):
        system, alpha = archive
        verify_certificate(
            ClockSynchronizer(system).from_execution(alpha)
        )
