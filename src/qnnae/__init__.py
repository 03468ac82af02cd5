"""Neural-network architecture scoring through a probabilistic quantum memory."""

__version__ = "0.1.0"
