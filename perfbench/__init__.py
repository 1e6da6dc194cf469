"""The repo benchmark: five workloads, host wall-clock + simulated metrics,
and a per-layer dissection applied from outside ``src/``.

See ``perfbench/README.md``.  Entry points:

- ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``
  (one workload, one JSON result line; the ``BENCHMARK.json`` command),
- ``PYTHONPATH=src python -m perfbench`` (every workload, printed table),
- ``python3 perfbench/compare.py A.json B.json`` (parent-vs-change rows).
"""
