#!/usr/bin/env python3
"""Tabulate the area-decreasing certificate and minimum-probe verdict for
every bundled fixture at a common resolution.

Usage: python scripts/sweep_certificates.py [--n 65]
"""

import argparse

from minmaps import TheoremHypotheses, presets
from minmaps.verifier import area_decreasing_certificate, interior_minimum_probe

# pinching constants handed to each fixture's certificate and probe. The
# flat fixtures (paper_example, affine) get (1, 1) too and fail its pinching
# check, so a negative minimum there is reported inconclusive, never a
# violation
HYPOTHESES = {
    "z_squared": TheoremHypotheses(1.0, 1.0),
    "z_squared_mixed": TheoremHypotheses(1.0, 2.0),
    "identity_hyperbolic": TheoremHypotheses(2.0, 2.0),
    "constant": TheoremHypotheses(1.0, 1.0),
    "mobius": TheoremHypotheses(1.0, 1.0),
    "paper_example": TheoremHypotheses(1.0, 1.0),
    "affine": TheoremHypotheses(1.0, 1.0),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=65)
    args = ap.parse_args()

    header = (f"{'fixture':<20} {'min_phi':>10} {'min_theta':>10} "
              f"{'max|J_f|':>10} {'decreasing':>10}  probe")
    print(header)
    for name in sorted(presets.SCENARIOS):
        mf = presets.SCENARIOS[name](n=args.n)
        hyp = HYPOTHESES[name]
        cert = area_decreasing_certificate(mf, hyp)
        probe = interior_minimum_probe(mf, "phi", hyp)
        print(f"{name:<20} {cert.min_phi:>10.5f} {cert.min_theta:>10.5f} "
              f"{cert.max_abs_jf:>10.5f} {str(cert.area_decreasing):>10}  "
              f"{probe.status.value}")


if __name__ == "__main__":
    main()
