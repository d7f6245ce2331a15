#!/usr/bin/env python3
"""Distortion gallery for the built-in mapping kinds.

For each mapping prints the dilatations, the ellipticity interval of the
distortion tensor, the determinant drift, and the component-harmonicity
verdict under one grid refinement.

Usage: python scripts/mapping_gallery.py [--nodes 65]
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dirichlet_p.grid import GridDomain  # noqa: E402
from dirichlet_p.mappings import (  # noqa: E402
    LinearMapping,
    PowerMapping,
    RadialStretch,
    analyze,
    verify_component_harmonicity,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=65)
    args = parser.parse_args()
    box = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (args.nodes, args.nodes))
    gallery = [
        ("z^2", PowerMapping(box, 2, puncture=0.3)),
        ("z^3", PowerMapping(box, 3, puncture=0.3)),
        ("radial stretch a=1.5", RadialStretch(box, 1.5, puncture=0.25)),
        ("radial stretch a=3", RadialStretch(box, 3.0, puncture=0.25)),
        ("linear diag(2,1)", LinearMapping(box, np.diag([2.0, 1.0]))),
        ("linear sheared", LinearMapping(box, np.array([[1.0, 0.4], [0.4, 1.5]]))),
    ]
    for name, mapping in gallery:
        an = analyze(mapping)
        rep = verify_component_harmonicity(an, min_order=1.0)
        orders = []
        for field, row in rep.details["fields"].items():
            tag = "floor" if row["regime"] == "exact_floor" else f"{row['order']:.2f}"
            orders.append(f"{field}={tag}")
        print(f"{name:24s} K_O={an.K_O:8.4f} K_I={an.K_I:8.4f} "
              f"ellipticity=[{an.alpha:.4f}, {an.beta:.4f}] "
              f"det_err={an.details['det_error']:.1e} "
              f"harmonic={'yes' if rep.passed else 'NO'} ({', '.join(orders)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
