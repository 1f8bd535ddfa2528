"""Outside-in benchmark for uncertainty-lab; run it as ``python3 perfbench/run.py``."""
