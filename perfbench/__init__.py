"""Benchmark of fracgreen: cold CLI runs, warm kernel tables, field solves.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/run.py`` for the options and ``BENCHMARK.json`` for the metric
list.  Nothing here changes the package under ``src/fracgreen``: layer
timings come from wrappers the benchmark installs around its public
functions (``perfbench/trace.py``).
"""
