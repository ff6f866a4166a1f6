"""Runs the benchmark's smoke mode: every workload at a tiny size, in both
modes, with the printed metrics checked against BENCHMARK.json and a wrong
recorded digest shown to fail its item."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
