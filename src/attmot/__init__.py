"""Attribute-assisted multi-object tracking on synthetic pedestrian benchmarks."""

__version__ = "0.1.0"
