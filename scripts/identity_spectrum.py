#!/usr/bin/env python3
"""Hessian spectrum at the identity map S^2 -> S^2.

The critical manifold through the identity is the Moebius group orbit
(dimension 6); the script prints the low eigenvalue cluster so the
kernel/gap structure is visible across refinement levels.

Usage: python scripts/identity_spectrum.py [--levels 2 3 4]
"""

import argparse

import numpy as np

from harmonicflow import (
    UnitSphere,
    build_icosphere,
    grad_l2_norm,
    hessian_spectrum,
    identity_sphere_map,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--kernel-tol", type=float, default=0.1)
    args = ap.parse_args()

    s2 = UnitSphere(3)
    for level in args.levels:
        mesh = build_icosphere(level)
        f = identity_sphere_map(mesh, s2)
        spec = hessian_spectrum(f, kernel_tol=args.kernel_tol, n_modes=16)
        low = np.array(spec.eigenvalues[:10])
        gap = "none" if spec.gap_ratio is None else f"{spec.gap_ratio:.1f}"
        print(
            f"level {level}: |M(id)| = {grad_l2_norm(f):.3e}, "
            f"kernel dim {spec.kernel_dim} (tol {spec.kernel_tol:.2g}), "
            f"gap ratio {gap}"
        )
        print(f"  low eigenvalues: {np.array2string(low, precision=5)}")


if __name__ == "__main__":
    main()
