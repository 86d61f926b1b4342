#!/usr/bin/env python3
"""Refinement study for one fixture: identity residual norms and measured
contraction orders, plus the mean-curvature sup, on a halving grid ladder.

Usage: python scripts/run_refinement.py [--fixture z_squared] [--grids 17,33,65]
"""

import argparse
import functools

from minmaps import presets
from minmaps.verifier import (refinement_study, verify_form_laplacian,
                              verify_gradient_identities,
                              verify_jacobian_laplacians,
                              verify_pullback_derivative)

CHECKS = (
    ("pullback", verify_pullback_derivative),
    ("form_laplacian", verify_form_laplacian),
    ("jacobians", verify_jacobian_laplacians),
    ("gradients", verify_gradient_identities),
    ("mean_curvature", lambda mf: mf.graph.max_norm_H),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixture", default="z_squared",
                    choices=sorted(presets.SCENARIOS))
    ap.add_argument("--grids", default="17,33,65",
                    help="comma-separated point counts; spacing must halve")
    args = ap.parse_args()
    ns = tuple(int(tok) for tok in args.grids.split(","))

    # one field per grid serves every quantity: its passes are cached on it
    make_field = functools.cache(presets.SCENARIOS[args.fixture])

    print(f"fixture = {args.fixture}, grids = {ns}")
    print(f"{'quantity':<16} {'norms':<42} orders")
    for name, check in CHECKS:
        quantity = check if name == "mean_curvature" \
            else (lambda mf, c=check: c(mf).norm_inf)
        st = refinement_study(make_field, ns, quantity)
        norms = " ".join(f"{v:.6e}" for v in st.norms)
        orders = "exact" if st.exact else \
            " ".join(f"{o:.3f}" for o in st.orders)
        print(f"{name:<16} {norms:<42} {orders}")


if __name__ == "__main__":
    main()
