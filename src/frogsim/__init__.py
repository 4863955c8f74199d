"""Frog-model chains on the complete graph, deterministic limits, and experiments."""

__version__ = "0.1.0"
