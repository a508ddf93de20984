"""Paper-reproduction experiments: one runner per table/figure + ablations."""

from .ablations import (
    run_ablation_credits,
    run_ablation_transport,
    run_ablation_packet_size,
    run_ablation_page_size,
    run_ablation_striping,
    run_ablation_writeback,
)
from .appbench import hll_throughput, run_fig11, run_fig12
from .common import ExperimentResult, format_table
from .macrobench import (
    cbc_throughput,
    multitenant_ecb_rates,
    run_fig8,
    run_fig10a,
    run_fig10b,
)
from .microbench import hbm_throughput, run_fig7a, run_fig7b
from .tables import TABLE3_SCENARIOS, run_table1, run_table2, run_table3

__all__ = [
    "ExperimentResult",
    "format_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "TABLE3_SCENARIOS",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig10a",
    "run_fig10b",
    "run_fig11",
    "run_fig12",
    "hbm_throughput",
    "multitenant_ecb_rates",
    "cbc_throughput",
    "hll_throughput",
    "run_ablation_packet_size",
    "run_ablation_page_size",
    "run_ablation_credits",
    "run_ablation_striping",
    "run_ablation_writeback",
    "run_ablation_transport",
]
