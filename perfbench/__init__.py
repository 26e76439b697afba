"""The repository benchmark (see ``perfbench/README.md``).

Run one workload with::

    python3 perfbench/run.py --workload figures_hot --seed 1 --seconds 10 --trace 0
"""
