"""Three-pass single-photon QKD: protocol simulation and key-rate analysis."""

__version__ = "0.1.0"
