"""Tests for the campaign sweep API (repro.workloads.campaign)."""

import pytest

from repro.graphs.topology import line, ring
from repro.workloads.campaign import Campaign
from repro.workloads.scenarios import bounded_uniform, round_trip_bias


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def bias_builder(topology, seed):
    return round_trip_bias(topology, bias=0.5, seed=seed)


class TestCampaign:
    def test_full_sweep_table(self):
        campaign = Campaign(seeds=range(2))
        campaign.add("bounded", bounded_builder).add("bias", bias_builder)
        table = campaign.run([ring(4), line(4)])
        assert len(table.rows) == 4  # 2 builders x 2 topologies
        assert all(row[-1] for row in table.rows)  # all sound
        names = {row[0] for row in table.rows}
        assert names == {"bounded", "bias"}

    def test_cells_hold_raw_data(self):
        campaign = Campaign(seeds=range(3))
        campaign.add("bounded", bounded_builder)
        cells = campaign.run_results([ring(4)]).aggregates
        assert len(cells) == 1
        cell = cells[0]
        assert len(cell.precisions) == 3
        assert len(cell.realized) == 3
        assert all(r <= p + 1e-9 for r, p in zip(cell.realized, cell.precisions))
        assert cell.certified

    def test_deterministic(self):
        def run_once():
            campaign = Campaign(seeds=range(2))
            campaign.add("bounded", bounded_builder)
            return campaign.run_results([ring(4)]).aggregates[0].precisions

        assert run_once() == run_once()

    def test_duplicate_builder_rejected(self):
        campaign = Campaign(seeds=range(1))
        campaign.add("x", bounded_builder)
        with pytest.raises(ValueError, match="already"):
            campaign.add("x", bias_builder)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="no scenario builders"):
            Campaign(seeds=range(1)).run([ring(4)])
        with pytest.raises(ValueError, match="seed"):
            Campaign(seeds=[])

    def test_chaining_returns_self(self):
        campaign = Campaign(seeds=range(1))
        assert campaign.add("a", bounded_builder) is campaign
