"""The pure-Python reference kernels."""

from __future__ import annotations

from bipcore import kernels


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


def test_is_sum_real_tiny():
    # single vertex, weight 2: 1 + 2
    assert kernels.is_sum_real([0], [2.0], 1) == 3.0
    # edge with weights a, b: 1 + a + b
    assert kernels.is_sum_real([2, 1], [2.0, 5.0], 3) == 8.0
    # free=0 means the empty set only
    assert kernels.is_sum_real([2, 1], [2.0, 5.0], 0) == 1.0


def test_is_sum_complex_matches_real_on_real_inputs():
    adj = [2, 1]
    zr = kernels.is_sum_real(adj, [2.0, 5.0], 3)
    zc = kernels.is_sum_complex(adj, [2.0 + 0j, 5.0 + 0j], 3)
    assert zc == complex(zr)
