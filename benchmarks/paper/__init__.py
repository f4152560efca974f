"""The paper's Section 7 test bench, kept outside the ``repro`` package.

* :mod:`paper.experiments` — one runner per table/figure, registered in
  ``EXPERIMENTS``; :mod:`paper.results` — the tables they return;
  :mod:`paper.run` — the CLI (``PYTHONPATH=src:benchmarks python -m
  paper.run``).
* :mod:`paper.analysis` — Table 1's arithmetic partitioning model.
* :mod:`paper.baselines` — the BUC and BU-BST cubes the paper compares
  CURE against, and :mod:`paper.baselines.query`, the node, roll-up and
  iceberg queries over them.
* ``bench_*.py`` — one pytest-benchmark shim per experiment, asserting
  the figure's qualitative shape (``python -m pytest benchmarks/paper``).

The product, :mod:`repro`, imports nothing from here.
"""
