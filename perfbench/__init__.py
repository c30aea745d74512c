"""The repository benchmark: one SIGMA paper cell, read serving, read+write serving.

Run one workload with::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 30 --trace 0

and the benchmark's own tests with ``python -m pytest perfbench/tests -q``.

Three workloads exercise the system through its public entry points
(:func:`repro.api.run` and the HTTP daemon from :mod:`repro.serve`):

``paper-pokec``
    One fixed SIGMA ``RunSpec`` on synthetic pokec at scale 0.25 (2000
    nodes), LocalPush at ε = 0.02, top-k 32, cold precompute, 60 epochs,
    run back to back for the whole window.  Never touches serving,
    dynamic repair or the operator cache.
``serve-read``
    An in-process daemon over a fixed synthetic pokec graph at scale 0.25
    (2000 nodes), two closed-loop readers sending a Zipf-popular 80/20
    ``/topk`` + ``/score`` mix.  No training, no all-pairs precompute, no
    repair.
``serve-write``
    The same daemon and read mix from one reader, beside one open-loop
    writer posting 4-edit ``/update`` batches at 4 batches/s with
    ``"wait": true``.  The only workload where ``Graph.apply_delta``,
    ``DynamicOperator.apply`` and the delta-chain store do work.

``--seed`` draws the serve traffic (sources, read mix, update stream,
checked sample).  The paper cell and the served graph are fixed, because
their cost depends on the generated graph more than run-to-run noise
does (see :mod:`perfbench.workloads`).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run: half of the time untraced, half traced
through the benchmark's own span wrappers (:mod:`perfbench.probes`),
giving the per-layer breakdown, the tracing overhead, and a JSONL trace
that ``python -m repro.telemetry`` reads.

Modules: :mod:`perfbench.catalogue` names every metric,
:mod:`perfbench.inputs` derives the inputs from ``--seed``,
:mod:`perfbench.loadgen` drives the daemon, :mod:`perfbench.workloads`
sets up, measures and checks each workload, :mod:`perfbench.probes`
wraps the entry points in spans and derives the per-layer metrics,
:mod:`perfbench.report` holds the statistics and run metadata, and
:mod:`perfbench.bench` runs one workload end to end.
"""
