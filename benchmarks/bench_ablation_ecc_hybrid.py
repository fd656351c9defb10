"""Ablations for the Section VII discussion points.

* Larger ECC codewords: moving from 32 B to 4 KB codewords collapses the
  SEC-DED parity overhead by more than 90 %.
* Hybrid coarse/fine system: pure RoMe wins for streaming-dominated traffic,
  but once a workload's fine-grained (sparse-attention-style) share exceeds a
  small crossover fraction, the hybrid or conventional system wins because of
  RoMe's overfetch.
"""

from repro.core.ecc import codeword_comparison, parity_savings_vs_baseline
from repro.core.hybrid import AccessMix, best_system, crossover_fine_fraction


def test_ecc_codeword_ablation(benchmark, table_printer):
    rows = benchmark(codeword_comparison)
    table_printer("Section VII: ECC overhead vs codeword size", rows)
    overheads = [row["secded_overhead"] for row in rows]
    assert overheads == sorted(overheads, reverse=True)
    assert parity_savings_vs_baseline() > 0.9


def test_hybrid_fine_grained_ablation(benchmark, table_printer):
    def build():
        rows = []
        for fine_fraction in (0.0, 0.02, 0.05, 0.1, 0.25, 0.5):
            mix = AccessMix(
                coarse_bytes=1e9 * (1 - fine_fraction),
                fine_bytes=1e9 * fine_fraction,
                fine_access_bytes=64,
            )
            rows.append(
                {"fine_fraction": fine_fraction, "best_system": best_system(mix)}
            )
        rows.append({"fine_fraction": crossover_fine_fraction(),
                     "best_system": "crossover"})
        return rows

    rows = benchmark(build)
    table_printer("Section VII: best system vs fine-grained traffic share", rows)
    assert rows[0]["best_system"] == "rome"
    assert rows[-2]["best_system"] != "rome"
