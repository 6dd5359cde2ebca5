"""End-to-end benchmark of wigscale; run it with ``python3 bench/run.py``."""
