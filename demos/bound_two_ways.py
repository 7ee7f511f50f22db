"""The quantized-channel CRLB computed two independent ways.

The Fisher information of the bit-word likelihood has no closed form.  The
package evaluates it (a) as a multinomial series whose terms are weak
compositions of the bit indices, truncated at order zeta, and (b) by composite
Simpson quadrature over the received-word space.  The series climbs toward the
quadrature value from below as zeta grows; this demo prints that convergence.
"""

import numpy as np

from fieldest import (
    GAUSSIAN_BELL,
    Area,
    BitMapper,
    FieldParams,
    calibrate_eta_quantized,
    calibrate_sigma,
    crlb_from_fisher,
    deploy_uniform,
    fisher_quantized_series,
    fisher_quantized_simpson,
    make_uniform_quantizer,
    series_term_count,
)


def main():
    truth = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
    area = Area(0.0, 8.0, 0.0, 8.0)
    k, m = 10, 2

    quantizer = make_uniform_quantizer(m, 0.0, 12.0)
    bm = BitMapper(1)
    sigma2 = calibrate_sigma(GAUSSIAN_BELL, truth, area, 15.0)
    eta2 = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer, sigma2, 15.0)
    net = deploy_uniform(k, area, np.random.SeedSequence(4)).with_sigma2(np.full(k, sigma2))

    reference = fisher_quantized_simpson(
        net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, nodes=81
    )
    ref_trace = float(np.trace(reference))
    print(f"K = {k}, M = {m}: Simpson reference (quadrature(nodes=81)), "
          f"trace = {ref_trace:.6f}\n")

    print(f"{'zeta':>4}  {'terms':>7}  {'trace':>12}  {'rel gap':>9}")
    for zeta in range(0, 11, 2):
        fisher = fisher_quantized_series(
            net, GAUSSIAN_BELL, truth, quantizer, bm, eta2, zeta=zeta
        )
        trace = float(np.trace(fisher))
        gap = abs(trace - ref_trace) / ref_trace
        print(f"{zeta:>4}  {series_term_count(zeta, m):>7}  {trace:12.6f}  {gap:9.2%}")

    # ten one-bit sensors carry too little information to pin down five
    # parameters (the Fisher matrix above is singular), so for an actual
    # bound we need a bigger network and a finer quantizer
    k2, m2 = 40, 4
    quantizer2 = make_uniform_quantizer(m2, 0.0, 12.0)
    bm2 = BitMapper(2)
    eta2b = calibrate_eta_quantized(GAUSSIAN_BELL, truth, area, quantizer2, sigma2, 15.0)
    net2 = deploy_uniform(k2, area, np.random.SeedSequence(4)).with_sigma2(
        np.full(k2, sigma2)
    )
    fisher2 = fisher_quantized_simpson(
        net2, GAUSSIAN_BELL, truth, quantizer2, bm2, eta2b, nodes=81
    )
    print(f"\nCRLB diagonal at K = {k2}, M = {m2} (quadrature(nodes=81)):")
    for name, v in zip(("h", "rho_x", "rho_y", "x_c", "y_c"), crlb_from_fisher(fisher2)):
        print(f"  var({name})  >=  {v:.6f}")


if __name__ == "__main__":
    main()
