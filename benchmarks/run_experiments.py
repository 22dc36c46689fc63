"""Check every claim of the paper's evaluation and print its verdict.

Runs the claims of ``benchmarks/claims.py`` (Fig. 2 validation, the
Fig. 4 t-line transients and mismatch spreads, the Fig. 11 CNN
variants, Table 1 OBC max-cut, the §4.5 netlists, then this
repository's extensions and ablations) and prints one line per claim::

    id | paper | measured | verdict

The verdict is ``pass``; ``deviation`` for a claim this repository
knowingly does not reproduce (printed with its reason, and still
checked against its documented value); or ``FAIL`` (printed with the
check it missed). The script exits 1 if any claim FAILs.

Run:  PYTHONPATH=src python benchmarks/run_experiments.py [--fast]

The full run uses the paper's populations (100-chip ensembles, 1000
max-cut graphs, 1000 random netlists; ~4 min on 2 CPUs); ``--fast``
divides them by 10.
"""

from __future__ import annotations

import argparse
import sys
import time

import claims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fast", action="store_true",
                        help="divide population sizes by 10")
    parser.add_argument("--skip-extensions", action="store_true",
                        help="only the paper's tables and figures")
    args = parser.parse_args(argv)
    size = "fast" if args.fast else "full"

    started = time.time()
    checked = failed = 0
    for claim in claims.CLAIMS:
        if args.skip_extensions and claim.extension:
            continue
        measured, verdict = claim.verdict(size)
        if verdict == "FAIL":
            verdict += f" (needs {claim.check.describe(size)})"
            failed += 1
        elif verdict == "deviation":
            verdict += f": {claim.deviation}"
        checked += 1
        print(f"{claim.id} | {claim.paper} | {claims.show(measured)} | "
              f"{verdict}", flush=True)
    print(f"\n{checked} claims at size {size!r}, {failed} FAIL, "
          f"{time.time() - started:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
