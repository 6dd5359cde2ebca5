"""`python -m wigscale`: the same command as the `wigscale` script."""

from .cli import entry

entry()
