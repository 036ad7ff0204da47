#!/usr/bin/env python3
"""Sweep a grid of small model surfaces and tabulate their symmetry algebras.

Runs the full pipeline (case detection, singular locus, graded solve,
classification) over every gamma vector with entries in a small range, then
prints one row per surface.  Everything is exact, so the table is stable
across runs.

Usage: python scripts/classification_survey.py [--k 4] [--max-coeff 1]
"""

import argparse
import itertools
from fractions import Fraction

from paracr.liealg import classify, profile, structure_constants
from paracr.normalform import detect_case, singular_locus
from paracr.solver import solve_algebra
from paracr.surface import ModelSurface


def survey(k: int, max_coeff: int):
    values = [Fraction(v) for v in range(-max_coeff, max_coeff + 1)]
    rows = []
    for gamma in itertools.product(values, repeat=k - 1):
        if all(g == 0 for g in gamma):
            continue
        s = ModelSurface(k, gamma)
        det = detect_case(s)
        locus = singular_locus(s)
        alg = solve_algebra(s)
        label = classify(profile(structure_constants(alg))).label
        rows.append((gamma, det.kind, locus.kind, alg.dimension, label))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--max-coeff", type=int, default=1)
    args = parser.parse_args()

    rows = survey(args.k, args.max_coeff)
    header = f"{'gamma':<22} {'case':<10} {'locus':<8} {'dim':>3}  label"
    print(header)
    print("-" * len(header))
    counts = {}
    for gamma, case, locus, dim, label in rows:
        gamma_text = ",".join(str(g) for g in gamma)
        print(f"({gamma_text:<20}) {case:<10} {locus:<8} {dim:>3}  {label}")
        counts[label] = counts.get(label, 0) + 1
    print()
    for label in sorted(counts):
        print(f"{label}: {counts[label]} surfaces")


if __name__ == "__main__":
    main()
