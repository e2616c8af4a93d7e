"""The repository benchmark: real entry points, timed from outside.

See ``bench/README.md`` and ``python -m bench --help``.
"""
