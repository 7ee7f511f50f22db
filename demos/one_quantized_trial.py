"""One quantize-and-forward trial: bits on the wire, then EM at the fusion center.

Each reading is quantized to M levels, encoded as a short bit word, and every
bit crosses its own AWGN channel.  The fusion center never sees the readings —
it runs EM on the noisy bit words, treating the pre-quantization readings as
the latent variables.
"""

import numpy as np

from fieldest import (
    GAUSSIAN_BELL,
    Area,
    BitMapper,
    FieldParams,
    SolverConfig,
    calibrate_eta_quantized,
    calibrate_sigma,
    deploy_uniform,
    em_estimate,
    loglik_quantized,
    make_uniform_quantizer,
    quantize,
    quantize_forward,
    sample_observations,
)

truth = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
area = Area(0.0, 8.0, 0.0, 8.0)
k, m = 40, 8

quantizer = make_uniform_quantizer(m, 0.0, 12.0)
bm = BitMapper(3)
sigma2 = calibrate_sigma(GAUSSIAN_BELL, truth, area, 15.0)
eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer, sigma2, 15.0)

net = deploy_uniform(k, area, np.random.SeedSequence(61)).with_sigma2(np.full(k, sigma2))
obs = sample_observations(net, GAUSSIAN_BELL, truth, np.random.SeedSequence(62))
z = quantize_forward(obs, quantizer, bm, eta2, np.random.SeedSequence(63))

levels = quantize(quantizer, obs)
sent = bm.codebook[levels - 1]
flipped = np.mean((z > 0.5) != (sent > 0.5))
print(f"{k} sensors, M = {m} levels -> {bm.alpha} bits each, eta^2 = {eta2:.4f}")
print(f"hard-decision bit flip rate on this draw: {flipped:.1%}\n")

print("first five sensors (reading -> level -> word -> received):")
for i in range(5):
    word = "".join(str(b) for b in sent[i].astype(int))
    rx = " ".join(f"{v:+.2f}" for v in z[i])
    print(f"  r = {obs[i]:6.3f}  level {levels[i]}  bits {word}  z = [{rx}]")

init = FieldParams(9.0, 1.5, 1.5, 3.0, 3.0)
result = em_estimate(z, net, quantizer, bm, GAUSSIAN_BELL, eta2, init, SolverConfig())

ll = result.loglik_trace
print(f"\nEM: {'converged' if result.converged else result.divergence_reason}"
      f" after {result.iterations} iterations")
print(f"log-likelihood ascent: {ll[0]:.3f} -> {ll[len(ll) // 2]:.3f} -> {ll[-1]:.3f}"
      f"  (monotone: {bool(np.all(np.diff(ll) >= -1e-9))})")
print(f"check against the direct evaluation: "
      f"{loglik_quantized(z, net, quantizer, bm, GAUSSIAN_BELL, result.theta_hat, eta2):.3f}")

err = result.theta_hat.as_array() - truth.as_array()
print("estimate:", np.round(result.theta_hat.as_array(), 4))
print("truth:   ", truth.as_array())
print(f"squared error: {float(np.sum(err ** 2)):.5f}")
