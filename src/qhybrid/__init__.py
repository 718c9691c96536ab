"""Hybrid quantum-classical machine learning toolkit.

Three-stage pipeline on MNIST-style digit data: an autoencoder compresses
784-pixel images into 64 latent features, a 5-qubit circuit turns latent
blocks into measurement-probability features, and a dense network with
batch norm and dropout classifies the result. The circuit's probabilities
are computed in closed form, with the statevector simulator kept as the
test oracle, so the quantum features are a classical function of the
latents (arXiv:2403.07059). Everything is deterministic under a single
64-bit seed.
"""

__version__ = "0.1.0"
