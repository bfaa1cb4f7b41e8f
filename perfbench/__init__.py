"""Benchmark of the SPI reproduction; run ``python3 perfbench/run.py --help``."""
