#!/usr/bin/env python
"""Full turbofan experiment: train across seeds, detect, diagnose, aggregate.

Reads the public turbofan text files from --data as `tdcae train` does: a
directory holding train_<subset>.txt, or the file itself. --subset synthetic
runs the bundled surrogate instead and reads no --data. Outputs go to
--out/<subset>.
"""

import argparse
import json
import sys
from pathlib import Path

from tdcae import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data", help="dataset directory or file")
    parser.add_argument("--subset", default="FD001", choices=cli.SUBSETS)
    parser.add_argument("--out", default="out/cmapss")
    parser.add_argument("--seeds", default="0 1 2 3 4")
    parser.add_argument("--epochs", type=int, default=50)
    args = parser.parse_args()

    out = Path(args.out) / args.subset
    source = ["--subset", args.subset]
    if args.subset != "synthetic":
        source += ["--data", args.data]
    rc = cli.main(["train", "--out", str(out), "--seeds", args.seeds,
                   "--epochs", str(args.epochs)] + source)
    if rc != 0:
        return rc

    runs = json.loads((out / "train_summary.json").read_text())["runs"]
    metrics_files = []
    for run in runs:
        seed_out = out / f"seed{run['seed']}"
        rc = cli.main(["detect", "--out", str(seed_out),
                       "--checkpoint", str(out / run["checkpoint"])] + source)
        if rc != 0:
            return rc
        metrics_files.append(str(seed_out / "metrics.json"))

    rc = cli.main(["diagnose", "--out", str(out), "--checkpoint", str(out / runs[0]["checkpoint"])]
                  + source)
    if rc != 0:
        return rc

    return cli.main(["report", "--out", str(out)] + metrics_files)


if __name__ == "__main__":
    sys.exit(main())
