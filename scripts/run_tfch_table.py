#!/usr/bin/env python3
"""Temporal self-convergence of the full solver against an N0=200 reference.
Extra flags are passed straight through to the CLI."""

import sys

from tfch.cli import main

if __name__ == "__main__":
    sys.exit(main(["tfch-convergence",
                   "--alphas", "0.3,0.5,0.7,0.9",
                   "--Ns", "15,18,21,24",
                   "--N0", "200", "--M", "60",
                   "--kappa", "0.01", "--epsilon", "0.1",
                   "--out", "results/tfch_table"] + sys.argv[1:]))
