"""Seeded, output-checked benchmark for the ``kostant`` library.

Run ``python3 perfbench/run.py --help`` for usage; see README.md in this
directory for the workloads, metrics and the comparison command.
"""
