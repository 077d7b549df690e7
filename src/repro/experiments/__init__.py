"""Experiment harnesses reproducing the paper's evaluation tables.

Each module exposes ``run(spark, ...) -> pandas.DataFrame`` returning the
table's rows (paper numbers alongside measured ones where applicable);
``jobs/`` wraps them for spark-submit; ``perfbench/`` times the Table III
queries and the ``I_δ`` build under the benchmark. EXPERIMENTS.md records a
captured copy of each.
"""
