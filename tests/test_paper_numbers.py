"""Pinned paper-figure numbers: the full Figure 7(a) and Figure 8 runs.

The ratio asserts in ``benchmarks/`` let Figure 7(a) lose 46% at 32
channels without failing.  These tests pin each printed value of the two
figures to within 1% instead, so a change to a default or to the timing
model that moves a paper number fails tier-1 and has to update the value
here, with its reason in CHANGES.md.
"""

import pytest

from repro.experiments import run_fig7a, run_fig8

#: Figure 7(a): read+write GB/s of one vFPGA per number of HBM channels.
FIG7A_GBPS = {1: 8.3, 2: 14.2, 4: 31.2, 8: 56.2, 12: 62.6, 16: 64.5, 24: 66.0, 32: 69.9}

#: Figure 8: cumulative AES-ECB GB/s with 1..4 tenants sharing the link.
FIG8_CUMULATIVE_GBPS = [11.91, 11.97, 11.97, 11.97]


def _jain(rates):
    return sum(rates) ** 2 / (len(rates) * sum(r * r for r in rates))


def test_fig7a_full_sweep_matches_pinned_values():
    result = run_fig7a()
    measured = {row["channels"]: row["throughput_gbps"] for row in result.rows}
    assert measured.keys() == FIG7A_GBPS.keys()
    for channels, gbps in FIG7A_GBPS.items():
        assert measured[channels] == pytest.approx(gbps, rel=0.01), channels


def test_fig8_matches_pinned_values_and_stays_fair():
    result = run_fig8()
    assert [row["vfpgas"] for row in result.rows] == [1, 2, 3, 4]
    for row, cumulative in zip(result.rows, FIG8_CUMULATIVE_GBPS):
        assert row["cumulative_gbps"] == pytest.approx(cumulative, rel=0.01)
        assert _jain(row["per_tenant_gbps"]) >= 0.99
