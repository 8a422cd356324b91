"""Test oracles: the scalar implementations the hot kernels replaced.

``src/`` ships one vectorized path per kernel; the equivalence tests and the
codec throughput benchmark pin it to these loops byte for byte.
"""
