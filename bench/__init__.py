"""The repo's reference benchmark: four fixed workloads measured from outside.

Nothing under ``src/`` knows this package exists.  Every layer is timed by
calling (or wrapping) its public functions; see ``bench/README.md`` for the
metric dictionary and ``BENCHMARK.json`` for the contract the driver checks.
"""
