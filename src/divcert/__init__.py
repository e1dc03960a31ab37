"""Exact-arithmetic verification engine for divisibility properties of
binomial and q-binomial coefficients."""

__version__ = "0.1.0"

# The coefficient kernels have one implementation, in _kernels.py.
KERNEL_BACKEND = "python"
