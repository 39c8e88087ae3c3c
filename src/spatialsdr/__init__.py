"""Sufficient dimension reduction for spatially correlated regression data."""
