"""Train the from-scratch convolutional autoencoder and verify its
gradients.

The model is pure numpy: a strided 1-D convolution, a dense bottleneck,
and a transposed convolution back to the input, trained with Adam on
mean-squared reconstruction error.  Anomalies reconstruct poorly, so the
error doubles as an anomaly score.
"""

import numpy as np

from atrellis.neural_autoencoder import (AEArchitecture, fit, grad_check,
                                         init_model, reconstruction_error)

rng = np.random.default_rng(0)

# Toy "normal" data: two smooth channel patterns plus noise, flattened
# to the 2r layout the feature pipeline produces.
r = 10
base = np.concatenate([np.linspace(0.2, 0.8, r), np.linspace(0.7, 0.3, r)])
data = np.clip(base + rng.normal(0, 0.02, size=(400, 2 * r)), 0, 1)

arch = AEArchitecture(r)
model = init_model(arch, seed=3)

before = float(np.mean([reconstruction_error(model, x) for x in data]))
model, train_errors = fit(model, data, epochs=60)
after = float(np.mean(train_errors))
print(f"mean reconstruction error: {before:.5f} -> {after:.5f}")

# An off-manifold input scores far worse than anything seen in training.
anomaly = np.clip(1.0 - base, 0, 1)
print(f"worst training error:      {max(train_errors):.5f}")
print(f"anomalous input error:     {reconstruction_error(model, anomaly):.5f}")

# Backpropagation sanity: compare analytic gradients against central
# finite differences over every weight.
fresh = init_model(arch, seed=3)
err = grad_check(fresh, data[0], eps=1e-5)
print(f"\ngradient check, max relative error: {err:.2e}")
