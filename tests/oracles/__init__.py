"""Test oracles: the earlier implementations the hot kernels replaced.

``src/`` ships one vectorized path per kernel; the equivalence tests and the
codec throughput benchmark pin it to these forms byte for byte.
"""
