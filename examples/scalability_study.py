"""Scalability study: SIGMA's one-shot aggregation vs iterative GloGNN.

Generates a family of social-network-like graphs of growing size (the
paper's pokec generator) and measures, for SIGMA and GloGNN,

* the SimRank precomputation time (SIGMA only),
* the per-run learning time, and
* the speed-up of SIGMA over GloGNN as the graph grows —

reproducing the trend of the paper's Fig. 5 at laptop scale.

Configuring the precompute
--------------------------
SIGMA's precompute column is dominated by LocalPush (Algorithm 1), run
by the frontier-batched engine core (:mod:`repro.simrank.engine`; see
``BENCH_localpush.json``, produced by ``benchmarks/bench_localpush.py``).
Each round pushes its whole frontier as one sparse product in the
calling thread.  The whole pipeline is configured by one object —
:class:`repro.config.SimRankConfig` — whose ``cache_dir`` field is the
one flag of this script: the persistent operator cache.  A warm cache
skips the precompute column entirely, and a looser-ε run can even be
served from a tighter-ε entry by the cache's cross-ε reuse.

Every run shares the ``(1 − c)·ε`` stopping rule and the
``‖Ŝ − S‖_max < ε`` guarantee.
"""

from __future__ import annotations

import argparse

from repro.config import SIGMA_DEFAULT_SIMRANK
from repro.experiments import format_table, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=None,
                        help="persistent operator cache directory")
    args = parser.parse_args()

    simrank = SIGMA_DEFAULT_SIMRANK.with_overrides(cache_dir=args.cache_dir)
    result = run_experiment("fig5", base_dataset="pokec", num_sizes=4,
                            shrink=2.0, base_scale=0.5, seed=0,
                            simrank=simrank, print_result=False)
    print("learning time across graph sizes")
    print(format_table(result.rows()))
    print("\nSIGMA speed-up over GloGNN by graph size:")
    for edges, ratio in result.speedup_trend():
        print(f"  edges={edges:7d}: {ratio:.2f}x")


if __name__ == "__main__":
    main()
