#!/usr/bin/env python3
"""Sweep the three counterexample families and print how the ratio between
the cyclotomic-intersection degree and the degree at level m1 grows with l.

A bounded ratio is what the strong comparison property would require; all
three families show it growing linearly in l.
"""

import sys

from gspimage import cli

FAMILIES = [
    ("cm", "5,13,17,29", ["--g", "2"]),
    ("selfproduct", "3,5,7,11", []),
    ("mumford", "3,5,7,11,101", []),
]


def main() -> int:
    status = 0
    for name, ells, extra in FAMILIES:
        print(f"== {name} ==")
        status |= cli.main(["sweep", name, "--ell", ells, *extra])
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
